"""Reference implementations that only the tests use."""

from fractions import Fraction
from functools import cache
from math import comb
from operator import ge, lt

from flopk.acceptance import _lattice_words
from flopk.bott import BottResult, Weight
from flopk.chow import ch_matrix_inverse
from flopk.flop import _column, flop_certificate
from flopk.kgroup import IntegerMatrix, KVector, _padded, _skew_count, _straighten, flop_matrix
from flopk.partitions import (
    BoxShape, Partition, box_index, enumerate_box, lr_coefficients, partitions_of,
)
from flopk.weyl import Permutation


def apply(matrix, vector) -> tuple[int, ...]:
    """The integer matrix applied to a vector, entry by entry."""
    if len(vector) != matrix.cols:
        raise ValueError("dimension mismatch")
    return tuple(sum(r * v for r, v in zip(row, vector)) for row in matrix.entries)


def permute(sigma, seq) -> tuple:
    """Positional action of a permutation: the entry at position j moves
    to position sigma(j).  This is a left action compatible with word
    application (``weyl.apply_word``)."""
    if len(seq) != len(sigma):
        raise ValueError("size mismatch")
    out = [None] * len(seq)
    for j, v in enumerate(seq):
        out[sigma[j] - 1] = v
    return tuple(out)


def box_complement(box, alpha) -> Partition:
    """The 180-degree rotated complement of alpha inside the box, by its
    parts; ``_complement_indices`` reads it off the exponents."""
    if not alpha.fits(box):
        raise ValueError(f"{alpha} does not fit in {box}")
    padded = tuple(alpha) + (0,) * (box.rows - len(alpha))
    return Partition(box.cols - p for p in reversed(padded))


def compose(s, t) -> Permutation:
    """Functional composition of permutations of one size: compose(s, t)
    sends x to s(t(x))."""
    if len(s) != len(t):
        raise ValueError("size mismatch")
    return Permutation(s[t[i] - 1] for i in range(len(s)))


def transposition_product(word, h) -> Permutation:
    """s_{i_k} * ... * s_{i_1} for the word [i_1, ..., i_k], multiplied out
    as adjacent transpositions; ``weyl.word_permutation`` reads the
    permutation off the word's action instead."""
    product = Permutation(range(1, h + 1))
    for i in word:
        if not 1 <= i <= h - 1:
            raise ValueError(f"need 1 <= i <= {h - 1}, got {i}")
        images = list(range(1, h + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        product = compose(Permutation(images), product)
    return product


def rational_det(matrix) -> Fraction:
    """Determinant over the rationals by Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


# ---------------------------------------------------------------------------
# The integral presentation K(G) = Lambda_t[z]/(h_k(z), k > h-t), z = x - 1
# ---------------------------------------------------------------------------
#
# The s_mu(z) over the box form a basis, they multiply by the
# box-truncated Littlewood-Richardson rule, and a binomial change of basis
# D connects them with the Schur powers.  Coordinates in this basis are
# called z-coordinates.

def _shifted_schur_coefficient(lam: Partition, mu: Partition, t: int) -> int:
    """d_{lam,mu} = det C(lam_i + t - i, mu_j + t - j), i, j = 1..t: the
    coefficient of s_mu(z) in s_lam(1 + z) over t variables."""
    lam = tuple(lam) + (0,) * (t - len(lam))
    mu = tuple(mu) + (0,) * (t - len(mu))
    return IntegerMatrix(
        [[comb(lam[i] + t - 1 - i, mu[j] + t - 1 - j) for j in range(t)] for i in range(t)]
    ).det()


def _schur_z(lam: Partition, box) -> tuple[int, ...]:
    """z-coordinates of s_lam(1 + z): the d_{lam,mu} over mu in the box.

    lam may stick out of the box; the s_mu(z) with mu outside it vanish.
    """
    return tuple(
        _shifted_schur_coefficient(lam, mu, box.rows) if lam.contains(mu) else 0
        for mu in enumerate_box(box)
    )


@cache
def binomial_change(box) -> tuple[IntegerMatrix, IntegerMatrix]:
    """The change of basis D from Schur powers to the s_mu(z), and its inverse.

    [Sigma^lam sub] = s_lam(1 + z) = sum_{mu in lam} d_{lam,mu} s_mu(z), so
    column lam of D holds the d_{lam,mu} (Lascoux 1978, "Classes de Chern
    d'un produit tensoriel"; Macdonald, Symmetric Functions, I.3 Ex. 10).
    Every mu inside lam fits in the box, so no truncation enters and D is
    unitriangular in the canonical order.  z = x - 1 is the same
    substitution with shift -1, and d_{lam,mu} is homogeneous of degree
    |lam| - |mu| in the shift, so D^-1 has the entries
    (-1)^(|lam|-|mu|) d_{lam,mu}: no solve is needed.
    """
    basis = enumerate_box(box)
    d = IntegerMatrix.from_columns([_schur_z(lam, box) for lam in basis])
    sizes = [p.size for p in basis]
    d_inv = IntegerMatrix(
        [[-x if (si - sj) % 2 else x for x, sj in zip(row, sizes)]
         for row, si in zip(d.entries, sizes)]
    )
    return d, d_inv


def _horizontal_strips(lam, box):
    """The nu in the box with nu/lam a horizontal strip (nu interlaces lam)."""
    lam = tuple(lam) + (0,) * (box.rows - len(lam))
    out = [()]
    for i in range(box.rows):
        top = lam[i - 1] if i else box.cols
        out = [nu + (part,) for nu in out for part in range(lam[i], top + 1)]
    return [Partition(nu) for nu in out]


@cache
def pieri_twist(box) -> IntegerMatrix:
    """T, multiplication by O(1) in the basis s_mu(z) of K(G), by the Pieri rule.

    O(1) = prod (1 + z_i)^-1 = sum_k (-1)^k h_k(z), and h_k(z) vanishes for
    k above the box width, so column lam has the sign (-1)^(|nu|-|lam|) at
    every nu in the box with nu/lam a horizontal strip, and zeros elsewhere.
    """
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    n = len(basis)
    twist = [[0] * n for _ in range(n)]
    for j, lam in enumerate(basis):
        for nu in _horizontal_strips(lam, box):
            twist[index[nu]][j] = (-1) ** (nu.size - lam.size)
    return IntegerMatrix(twist)


# ---------------------------------------------------------------------------
# The twist by O(1) in the Schur-power basis: the flop matrix as U^c . Pi
# ---------------------------------------------------------------------------

@cache
def schur_twist(box: BoxShape) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Multiplication by O(1) in the Schur-power basis, as sparse columns.

    Entry j lists the (i, u) with [Sigma^lam_j sub (x) O(1)] =
    sum u [Sigma^lam_i sub], nonzero u only, i increasing.  O(1) =
    (x_1 ... x_t)^-1 lowers every exponent e = lam + delta of the
    alternant by one, so the entry is s_{lam - 1^t}, in closed form:

    * e_t >= 1: the single pair (index of e - 1, 1);
    * e_t = 0: only the last column, x^-1 = sum_{k<h} (-1)^k C(h, k+1) x^k
      (``_column`` at e = -1), leaves {0, ..., h-1}.  Each k not among
      rest = (e_1 - 1, ..., e_{t-1} - 1) goes after the p entries above
      it, passing t - 1 - p: the term (-1)^k C(h, k+1) (-1)^(t-1-p), in
      basis order as k rises.  The tests' oracle is ``_straighten``.

    The runtime builds the flop matrix from the h x h matrix
    U_1^c . P_1 instead (``kgroup.flop_matrix``); this U is its second route.
    """
    t = box.rows
    index = box_index(box)
    inverse = _column(-1, box.h)
    columns = []
    for exps in index:
        rest = tuple(e - 1 for e in exps)
        if exps[-1]:
            columns.append(((index[rest], 1),))
            continue
        rest, p, column = rest[:-1], t - 1, []  # p: the entries of rest above k
        for k, a in inverse:
            while p and rest[p - 1] < k:
                p -= 1
            if not p or rest[p - 1] != k:
                column.append((index[rest[:p] + (k,) + rest[p:]], -a if (t - 1 - p) % 2 else a))
        columns.append(tuple(column))
    return tuple(columns)


def _apply_twist(v: dict[int, int], twist) -> dict[int, int]:
    """U applied to a sparse vector {index: coefficient}, with U given by
    its sparse columns (``schur_twist``)."""
    out: dict[int, int] = {}
    for j, x in v.items():
        for i, u in twist[j]:
            out[i] = out.get(i, 0) + u * x
    return {i: x for i, x in out.items() if x}


@cache
def _complement_indices(box: BoxShape) -> tuple[int, ...]:
    """Basis index of the rotated box complement of each basis partition:
    the exponents lam + delta, reversed and each taken from h - 1."""
    index = box_index(box)
    return tuple(index[tuple(box.h - 1 - e for e in reversed(exps))] for exps in index)


def twist_flop_matrix(box) -> IntegerMatrix:
    """The flop matrix as U^c . Pi, one column at a time: column j is U
    (``schur_twist``) applied c times to the unit vector at the box
    complement of j (``_complement_indices``), with no orbit shared
    between columns."""
    twist = schur_twist(box)
    columns = []
    for beta in _complement_indices(box):
        v = {beta: 1}
        for _ in range(box.cols):
            v = _apply_twist(v, twist)
        columns.append([v.get(i, 0) for i in range(box.rank)])
    return IntegerMatrix.from_columns(columns)


def dense_flop_matrix(box) -> IntegerMatrix:
    """The flop matrix as the dense product D^-1 . T^c . D . Pi.

    Pi sends each basis partition to its rotated box complement, D and
    D^-1 are the binomial change of basis to the s_mu(z) and back, and T
    is the Pieri twist by O(1) in the s_mu(z) basis, applied c times.
    """
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    d, d_inv = binomial_change(box)
    m = IntegerMatrix.from_columns(
        [d.column(index[box_complement(box, alpha)]) for alpha in basis]
    )
    twist = pieri_twist(box)
    for _ in range(box.cols):
        m = twist @ m
    return d_inv @ m


def involution_certificate(matrix, box) -> tuple[int, tuple[int, ...]]:
    """Determinant and Smith form of a given flop matrix F, proven by
    F . F = I.

    U^c . Pi (``schur_twist`` and the box complement) is applied to every
    column of F in c passes of U, a route that shares nothing with the
    compound ``flop_matrix`` builds, and each must come back as the unit
    vector;
    otherwise ArithmeticError.  An integer involution has determinant
    +-1, hence Smith form (1, ..., 1), and its eigenvalues are +-1, so
    det F = (-1)^((n - tr F) / 2).
    """
    twist = schur_twist(box)
    complement = _complement_indices(box)
    for j, column in enumerate(zip(*matrix.entries)):
        v = {complement[i]: x for i, x in enumerate(column) if x}
        for _ in range(box.cols):
            v = _apply_twist(v, twist)
        if v != {j: 1}:
            raise ArithmeticError(
                f"flop matrix of {box} is not an involution at column "
                f"{enumerate_box(box)[j].text()}"
            )
    n = box.rank
    minus_ones = (n - sum(matrix.entries[i][i] for i in range(n))) // 2
    return (-1) ** minus_ones, (1,) * n


def column_by_double_sum(e: int, h: int) -> tuple[tuple[int, int], ...]:
    """``flop._column`` by expanding the remainder sum_{k<h} C(e, k)
    (x - 1)^k term by term: about h^2 / 2 products of big integers."""
    if 0 <= e < h:
        return ((e, 1),)
    binomial = [comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k) for k in range(h)]
    column = []
    for j in range(h):
        a = sum(binomial[k] * comb(k, j) * (-1) ** (k - j) for k in range(j, h))
        if a:
            column.append((j, a))
    return tuple(column)


def sorted_straighten(weight, box) -> tuple[tuple[int, int], ...]:
    """``kgroup._straighten`` keyed by exponent tuples: each reduced column
    x^e is appended on the right, and a term's sign comes from sorting its
    exponents decreasingly, not from the bitmask of its rows."""
    t, h = box.rows, box.h
    wedge = {(): 1}
    for i, w in enumerate(weight):
        out = {}
        for j, a in _column(w + t - 1 - i, h):
            for exps, c in wedge.items():
                if j in exps:
                    continue
                # j goes after the p larger entries, passing the smaller ones
                p = sum(x > j for x in exps)
                key = exps[:p] + (j,) + exps[p:]
                out[key] = out.get(key, 0) + (-a * c if (len(exps) - p) % 2 else a * c)
        wedge = out
    index = box_index(box)
    return tuple(sorted((index[exps], c) for exps, c in wedge.items() if c))


def straightened_twist(box) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``schur_twist`` with every column of lam_t = 0 straightened:
    s_{lam - 1^t} by ``_straighten``, in place of the closed form."""
    t = box.rows
    index = box_index(box)
    return tuple(
        ((index[tuple(e - 1 for e in exps)], 1),) if exps[-1]
        else _straighten(tuple(x - 1 for x in _padded(lam, t)), box)
        for lam, exps in zip(enumerate_box(box), index)
    )


def flop_payload(box) -> dict:
    """The ``flopk flop-matrix`` report as one dict, every entry a decimal
    string: its stdout is ``canonical_json`` of this plus a newline."""
    matrix = flop_matrix(box)
    det, snf = flop_certificate(box)
    return {
        "box": [box.rows, box.cols],
        "basis": [p.text() for p in enumerate_box(box)],
        "matrix": [[str(x) for x in row] for row in matrix.entries],
        "det": str(det),
        "snf": [str(d) for d in snf],
    }


def matrix_table(payload: dict) -> list[str]:
    """The lines of ``flopk flop-matrix --format table`` for a ``flop_payload``."""
    lines = [f"box: {payload['box'][0]} x {payload['box'][1]}"]
    lines.append("basis: " + " ".join(payload["basis"]))
    width = max(len(e) for row in payload["matrix"] for e in row)
    for row in payload["matrix"]:
        lines.append(" ".join(e.rjust(width) for e in row))
    lines.append(f"det: {payload['det']}")
    lines.append("snf: " + " ".join(payload["snf"]))
    return lines


@cache
def _z_table(box) -> dict:
    """Structure constants of the s_mu(z): (i, j) -> [(k, c)] with
    s_i s_j = sum c s_k, by the Littlewood-Richardson rule truncated to
    the box, for every pair of basis indices."""
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    table = {}
    for i, lam in enumerate(basis):
        for j in range(i, len(basis)):
            entry = [(index[nu], c) for nu, c in lr_coefficients(lam, basis[j], box).items()]
            table[i, j] = table[j, i] = entry
    return table


def z_product(u, v, box) -> tuple[int, ...]:
    """Product of two classes given by their z-coordinates."""
    table = _z_table(box)
    out = [0] * len(u)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                for k, c in table[i, j]:
                    out[k] += a * b * c
    return tuple(out)


def _pieri_power(v, box, times: int) -> tuple[int, ...]:
    """T^times applied to z-coordinates: the product with O(times)."""
    twist = pieri_twist(box)
    for _ in range(times):
        v = apply(twist, v)
    return v


@cache
def _z_atom(atom, box) -> tuple[int, ...]:
    """z-coordinates of one atom."""
    kind, arg = atom
    if kind == "sub":
        return _schur_z(Partition(arg), box)
    if kind == "sub*":
        # Sigma^alpha sub* = Sigma^(alpha^c) sub (x) O(alpha_1), with alpha^c
        # the complement of alpha in the t x alpha_1 rectangle
        alpha = Partition(arg)
        padded = tuple(alpha) + (0,) * (box.rows - alpha.rows)
        rotated = Partition(alpha.cols - p for p in reversed(padded))
        return _pieri_power(_schur_z(rotated, box), box, alpha.cols)
    if kind == "quot":
        # [quot] = h - [sub]: sum_{nu in alpha} (-1)^|nu| s_{alpha/nu}(1^h)
        # [Sigma^(nu') sub], through D
        alpha = Partition(arg)
        coords = []
        for beta in enumerate_box(box):
            nu = beta.conjugate()
            coords.append(
                (-1) ** nu.size * _skew_count(alpha, nu, box.h) if alpha.contains(nu) else 0
            )
        return apply(binomial_change(box)[0], coords)
    if kind == "line":
        # O(k) = T^k [O], and O(-k) = (det sub)^k = s_(k^t)(1 + z)
        if arg >= 0:
            return _pieri_power(KVector.basis_vector(box, ()).coords, box, arg)
        return _schur_z(Partition((-arg,) * box.rows), box)
    if kind == "tangent_wedge":
        # Cauchy: wedge^i(sub* (x) quot) = sum over mu of Sigma^mu sub* (x)
        # Sigma^(mu') quot
        total = (0,) * box.rank
        for mu in partitions_of(arg, box.rows, box.cols):
            term = z_product(_z_atom(("sub*", mu), box), _z_atom(("quot", mu.conjugate()), box), box)
            total = tuple(x + y for x, y in zip(total, term))
        return total
    raise ValueError(f"unknown atom {atom}")


def z_expand(expr, box) -> KVector:
    """Expansion of a tautological class through the integral presentation:
    the atoms' z-coordinates are multiplied by the truncated LR table and
    mapped back to the Schur-power basis by D^-1."""
    total = [0] * box.rank
    for atoms, coeff in expr.terms.items():
        term = KVector.basis_vector(box, ()).coords
        for atom in atoms:
            term = z_product(term, _z_atom(atom, box), box)
        total = [x + coeff * y for x, y in zip(total, term)]
    return KVector(box, apply(binomial_change(box)[1], total))


def ch_expand(expr, box) -> KVector:
    """Expansion of a tautological class on the Chern-character route.

    Takes the character of the expression, solves against the character
    matrix of the basis, and demands an integral solution: a non-integral
    one can only come from a malformed expression or a bug, never from
    rounding, and raises ArithmeticError.
    """
    chv = expr.ch(box)
    rhs = [chv.coefficient(p) for p in enumerate_box(box)]
    coords = []
    for row in ch_matrix_inverse(box):
        val = sum(a * b for a, b in zip(row, rhs))
        if val.denominator != 1:
            raise ArithmeticError(
                f"expansion of {expr!r} on {box} has non-integer coordinate {val}"
            )
        coords.append(val.numerator)
    return KVector(box, tuple(coords))


def sort_bott_cohomology(w):
    """Borel-Weil-Bott by rho-shift, sort and inversion count.

    The dimension is the Weyl dimension of the sorted shifted weight minus
    rho, with the numerator and the denominator prod (j - i) both formed
    on every call; None when the shifted weight has a repeated entry.
    """
    h = len(w.a) + len(w.b)
    rho = tuple(range(h - 1, -1, -1))
    v = tuple(x + r for x, r in zip(w.a + w.b, rho))
    if len(set(v)) < h:
        return None
    degree = sum(1 for i in range(h) for j in range(i + 1, h) if v[i] < v[j])
    lam = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    return BottResult(degree, weyl_dimension(lam))


def exterior_cotangent_decomposition(p: int, box) -> list:
    """Weights of the irreducible summands of the p-th exterior power of
    the cotangent bundle.

    Cauchy: wedge^p(sub (x) quot*) splits over partitions mu of p inside
    the box as Sigma^mu(sub) (x) Sigma^(mu')(quot*); as a Weight the sub
    factor contributes the negated reversal of mu.
    """
    if not 0 <= p <= box.dim:
        raise ValueError(f"need 0 <= p <= {box.dim}, got {p}")
    out = []
    for mu in partitions_of(p, box.rows, box.cols):
        padded = tuple(mu) + (0,) * (box.rows - len(mu))
        a = tuple(-x for x in reversed(padded))
        conj = mu.conjugate()
        b = tuple(conj) + (0,) * (box.cols - len(conj))
        out.append(Weight(a, b))
    return out


def weyl_dimension(lam) -> int:
    """Dimension of the GL irreducible with (weakly dominant) weight lam:
    the product of lam_i - lam_j + j - i over i < j, divided by the
    product of j - i, both formed on every call."""
    n = len(lam)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    if num % den:
        raise ArithmeticError(f"non-integral Weyl dimension {num}/{den} for {lam}")
    return num // den


def gaussian_binomial(h: int, t: int) -> list[int]:
    """Coefficients of the Gaussian binomial [h choose t]_q.

    Computed by the q-Pascal recurrence; the list has length t(h-t)+1.
    """
    if not 0 <= t <= h:
        raise ValueError(f"need 0 <= t <= h, got t={t}, h={h}")
    # table[n][k] as coefficient lists
    prev = [[1]]
    for n in range(1, h + 1):
        cur = []
        for k in range(n + 1):
            if k == 0 or k == n:
                cur.append([1])
                continue
            left = prev[k - 1]  # [n-1 choose k-1]
            right = prev[k]  # [n-1 choose k], shifted by q^k
            size = max(len(left), len(right) + k)
            coeffs = [0] * size
            for i, c in enumerate(left):
                coeffs[i] += c
            for i, c in enumerate(right):
                coeffs[i + k] += c
            cur.append(coeffs)
        prev = cur
    return prev[t]


def is_indeterminate(pt) -> bool:
    """True iff the limit map of the G(2,4) model sends pt = (alpha : x :
    y : z : w) to the zero tuple.

    Equivalent to alpha = 0 and xw - yz = 0.  The all-zero input is not a
    projective point and is rejected.
    """
    alpha, x, y, z, w = pt
    if all(c == 0 for c in (alpha, x, y, z, w)):
        raise ValueError("the all-zero tuple is not a projective point")
    return alpha == 0 and x * w - y * z == 0


def determinantal_membership(p8) -> bool:
    """Membership in the rank-<=1 locus of [[x,y,z,w],[-v,t,u,-s]].

    Input order (x, y, z, w, s, t, u, v); true iff all six 2x2 minors
    vanish.  This is the local model of the fiber-product singularities
    along the graph of the duality isomorphism.
    """
    x, y, z, w, s, t, u, v = p8
    top = (x, y, z, w)
    bottom = (-v, t, u, -s)
    for i in range(4):
        for j in range(i + 1, 4):
            if top[i] * bottom[j] - top[j] * bottom[i] != 0:
                return False
    return True


def skew_constraints(nu, lam) -> list[list[int]]:
    """Index lists [col_a, col_b, row_a, row_b] into a word written into
    nu/lam in reverse reading order (rows top to bottom, each right to
    left), read off a list of the cells and a dict of their positions: the
    filling is semistandard iff word[col_a[i]] < word[col_b[i]] (down a
    column) and word[row_a[i]] >= word[row_b[i]] (along a row).
    ``acceptance._skew_constraints`` derives the same pairs by arithmetic."""
    inner = tuple(lam) + (0,) * (len(nu) - len(lam))
    reading = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, inner[r] - 1, -1)]
    position = {cell: k for k, cell in enumerate(reading)}
    column = [(position[r - 1, c], k) for k, (r, c) in enumerate(reading) if (r - 1, c) in position]
    row = [(k - 1, k) for k, (r, c) in enumerate(reading) if c + 1 < nu[r]]
    return [[pair[i] for pair in pairs] for pairs in (column, row) for i in (0, 1)]


def count_fillings(constraints, words) -> int:
    """How many of the words meet all the constraints of
    ``skew_constraints``, tested word by word; criterion 9 counts the same
    words as bits (``acceptance._count_masked``)."""
    col_a, col_b, row_a, row_b = constraints
    count = 0
    for word in words:
        at = word.__getitem__
        rows_ok = all(map(ge, map(at, row_a), map(at, row_b)))
        if rows_ok and all(map(lt, map(at, col_a), map(at, col_b))):
            count += 1
    return count


def brute_force_lr(nu, lam, mu) -> int:
    """Criterion 9's Littlewood-Richardson count for one triple, by the
    definition: the number of lattice words of content mu that, written
    into nu/lam in reverse reading order, give a filling whose rows weakly
    increase and whose columns strictly increase.  Each word is tested
    against every constraint of nu/lam; no LR rule of the package is used."""
    if not nu.contains(lam) or nu.size != lam.size + mu.size:
        return 0
    return count_fillings(skew_constraints(nu, lam), _lattice_words(mu))


def _lr_count(nu, lam, mu) -> int:
    """Number of Littlewood-Richardson tableaux of shape nu/lam, content mu.

    Cells are filled row by row, right to left within each row, which is
    exactly the order of the reverse reading word; the lattice (ballot)
    condition is enforced incrementally along with semistandardness.
    """
    if not nu.contains(lam) or nu.size != lam.size + mu.size:
        return 0
    inner = tuple(lam) + (0,) * (len(nu) - len(lam))
    cells = []  # (row, col) in reverse-reading order, 0-based
    for r in range(len(nu)):
        for c in range(nu[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))
    if not cells:
        return 1
    nvals = len(mu)
    counts = [0] * (nvals + 1)
    filling = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = filling.get((r - 1, c), 0) if r > 0 and c >= inner[r - 1] else 0
        right = filling.get((r, c + 1), nvals)
        total = 0
        for v in range(above + 1, min(right, nvals) + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            total += fill(idx + 1)
            del filling[(r, c)]
            counts[v] -= 1
        return total

    return fill(0)


def enumerate_lr(lam, mu, box=None) -> dict:
    """LR coefficients by candidate enumeration: every partition nu of
    |lam| + |mu| with at most rows(lam) + rows(mu) rows and
    cols(lam) + cols(mu) columns that contains lam, counted by a tableau
    search, then truncated to the box.  Most candidates count zero."""
    lam, mu = Partition(lam), Partition(mu)
    out = {}
    for nu in partitions_of(lam.size + mu.size, lam.rows + mu.rows, lam.cols + mu.cols):
        if nu.contains(lam) and (box is None or nu.fits(box)):
            c = _lr_count(nu, lam, mu)
            if c:
                out[nu] = c
    return out


def filling_lr(nu, lam, mu) -> int:
    """LR coefficient by brute force over fillings: fill nu/lam row by row,
    left to right, with values weakly increasing along rows, strictly
    increasing down columns and within the content mu; check the lattice
    condition on each completed reverse reading word (rows top to bottom,
    right to left)."""
    if not nu.contains(lam) or nu.size != lam.size + mu.size:
        return 0
    inner = tuple(lam) + (0,) * (len(nu) - len(lam))
    rows = [range(inner[r], nu[r]) for r in range(len(nu))]
    cells = [(r, c) for r, row in enumerate(rows) for c in row]
    reading = [(r, c) for r, row in enumerate(rows) for c in reversed(row)]
    room = [0, *mu]
    value = {}

    def fill(k):
        if k == len(cells):
            word = [value[cell] for cell in reading]
            return int(all(word[:i].count(v) < word[:i].count(v - 1)
                           for i, v in enumerate(word) if v > 1))
        r, c = cells[k]
        low = max(value.get((r, c - 1), 1), value.get((r - 1, c), 0) + 1)
        found = 0
        for v in range(low, len(room)):
            if room[v]:
                room[v] -= 1
                value[r, c] = v
                found += fill(k + 1)
                room[v] += 1
        return found

    return fill(0)
