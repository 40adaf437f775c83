"""The Grothendieck lattice of G(t,h) and the flop correspondence matrix.

K(G) is free abelian on the classes of Schur powers of the tautological
subbundle, indexed by box partitions in the canonical order.  Pulling
back along the bundle projections identifies this lattice with the
K-groups of the cotangent space and of its one-parameter deformation, so
a single coordinate lattice serves all three; the correspondence induced
by the dual-Grassmannian flop acts on it by sending each basis class to
the class of the dual Schur power.  This module holds that matrix as a
checked ``IntegerMatrix`` (``flop_matrix``), with Bareiss determinants
and Smith forms; module ``flop`` builds its rows and certifies it.

Everything runs in integers in this one basis, by straightening.  With
x_1, ..., x_t the K-theoretic Chern roots of the subbundle, the basis
class [Sigma^lam sub] = s_lam(x) = a_{lam+delta}(x) / a_delta(x) is a
bialternant, delta = (t-1, ..., 0), and any weight w in Z^t names the
class s_w(x) = a_{w+delta}(x) / a_delta(x) of a virtual bundle.  In the
integral presentation K(G) = Lambda_t[z]/(h_k(z), k > h-t) with
z = x - 1, the relations say that prod_j (u - z_j) divides u^h, so each
root has (x - 1)^h = 0.  A column x^e of the alternant may therefore be
replaced by its remainder (``flop._column``)

    x^e = sum_{k<h} C(e, k) (x - 1)^k,

with the generalized binomial C(e, k) = (-1)^k C(k - e - 1, k) when
e < 0 (x is a unit), rewritten in the powers x^j, j < h.  By linearity
in each column the alternant becomes a combination of alternants a_J
over exponent sets J in {0, ..., h-1}, each the wedge of its powers x^j
in wedge^t R, R = Z[x]/(x - 1)^h, keyed by the bitmask of J:
``_straighten`` wedges the columns on the left, the last first, through
``flop._wedge``, which drops a J that repeats an entry and keeps each
other J decreasing with the sign of that order.  Then a_J / a_delta is
s_mu, mu = J - delta a partition in the box (``flop._mask_index``).

* Expansion of an arbitrary tautological class (``expand_in_basis``)
  works in the representation ring of GL_t: every atom is a combination
  of weights (``_atom_vector``).  Sigma^alpha sub is s_alpha; the dual
  Schur power has the roots x_i^-1, so Sigma^alpha sub* is s_w with
  w = (-alpha_t, ..., -alpha_1), and O(k) = (det sub)^-k is s_w with
  w = (-k, ..., -k).  The quotient comes from [quot] = h - [sub] in the
  lambda-ring and the exterior powers of the tangent bundle from the
  Cauchy decomposition.  Two weights multiply as s_v s_w =
  det^(v_t + w_t) s_(v - v_t) s_(w - w_t), the last two by the
  Littlewood-Richardson rule for partitions with at most t rows, and
  each product is straightened into the box once (``_multiply``), so a
  chain of products never holds more than C(h, t) weights; the weights
  of the last product are straightened into the coordinates.

The Chern character (``TautClass.ch``, which hands the class to
``chow.tautological_ch``) is a second, rational route, and the integral
presentation above a third: the tests keep the binomial change of basis
D to the s_mu(z), their truncated Littlewood-Richardson products and
the Pieri twist T as oracles, for expansion and for the flop matrix as
D^-1 . T^c . D . Pi, and the twist U on the whole basis, applied c times
to each column of Pi, as a fourth.

A classical identity behind the involution property: for alpha in the
t x (h-t) box, Sigma^alpha sub* = Sigma^beta sub (x) O(h-t), with beta
the rotated box complement of alpha, so dualizing permutes the basis up
to a uniform twist.  One consequence worth recording: the restriction
of a basis bundle to the central fiber of the one-parameter deformation
sits in a two-term exact sequence with the bundle itself on both ends,
so its K-class is the difference of equal classes, i.e. zero; classes
supported on the central fiber vanish in the deformed lattice.  That is
a modeling identity, not an operation.
"""

from __future__ import annotations

from functools import cache
from math import comb, gcd

from . import flop
from .partitions import (BoxShape, Partition, Record, box_index, enumerate_box, lr_coefficients,
                         partitions_of, require_ints)


# ---------------------------------------------------------------------------
# K-vectors
# ---------------------------------------------------------------------------

class KVector(Record):
    """Integer coordinates in the Schur-power basis, canonical box order."""

    __slots__ = ("box", "coords")

    def __init__(self, box: BoxShape, coords: tuple[int, ...]):
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "coords", coords)
        if len(coords) != box.rank:
            raise ValueError(f"expected {box.rank} coordinates for {box}, got {len(coords)}")
        require_ints(coords, "coordinates")

    @classmethod
    def basis_vector(cls, box: BoxShape, alpha) -> "KVector":
        idx = _basis_position(alpha, box)
        return cls(box, tuple(int(i == idx) for i in range(box.rank)))

    def coefficient(self, alpha) -> int:
        return self.coords[_basis_position(alpha, self.box)]

    def as_dict(self) -> dict[Partition, int]:
        basis = enumerate_box(self.box)
        return {p: c for p, c in zip(basis, self.coords) if c}

    def __add__(self, other: "KVector") -> "KVector":
        if self.box != other.box:
            raise ValueError("box mismatch")
        return KVector(self.box, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "KVector") -> "KVector":
        return self + (-1) * other

    def __rmul__(self, n: int) -> "KVector":
        if not isinstance(n, int):
            return NotImplemented
        return KVector(self.box, tuple(n * c for c in self.coords))


# ---------------------------------------------------------------------------
# Formal tautological class expressions
# ---------------------------------------------------------------------------

# Atom kinds: ("sub", alpha) Schur power of the subbundle, ("sub*", alpha)
# of its dual, ("quot", alpha) of the quotient, ("line", k) the line bundle
# O(k), ("tangent_wedge", i) the i-th exterior power of the tangent bundle.
_Atom = tuple


class TautClass:
    """A formal integer combination of tensor products of tautological
    bundles, the admissible input of ``expand_in_basis``.

    Addition, subtraction and integer scaling are the lattice operations;
    ``*`` between two expressions is the tensor product.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[_Atom, ...], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _atom(cls, atom: _Atom) -> "TautClass":
        return cls({(atom,): 1})

    def __add__(self, other: "TautClass") -> "TautClass":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TautClass(out)

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-1) * other

    def __rmul__(self, n: int) -> "TautClass":
        if not isinstance(n, int):
            return NotImplemented
        return TautClass({k: n * v for k, v in self.terms.items()})

    def __mul__(self, other) -> "TautClass":
        """Tensor product, extended bilinearly."""
        if not isinstance(other, TautClass):
            return NotImplemented
        out: dict[tuple[_Atom, ...], int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0) + va * vb
        return TautClass(out)

    def ch(self, box: BoxShape):
        """Chern character of the expression on the given Grassmannian."""
        from .chow import tautological_ch

        return tautological_ch(self, box)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*{list(k)}" for k, v in self.terms.items())


def schur_sub(alpha) -> TautClass:
    """The Schur power Sigma^alpha of the tautological subbundle."""
    return TautClass._atom(("sub", Partition(alpha)))


def schur_sub_dual(alpha) -> TautClass:
    """Sigma^alpha of the dual of the tautological subbundle."""
    return TautClass._atom(("sub*", Partition(alpha)))


def schur_quot(alpha) -> TautClass:
    """Sigma^alpha of the quotient bundle."""
    return TautClass._atom(("quot", Partition(alpha)))


def wedge_tangent(i: int) -> TautClass:
    """i-th exterior power of the tangent bundle (dual sub tensor quot)."""
    require_ints((i,), "tangent wedge degree")
    return TautClass._atom(("tangent_wedge", i))


def line_bundle(k: int) -> TautClass:
    """O(k); O(-1) is the determinant of the subbundle."""
    require_ints((k,), "line bundle degree")
    return TautClass._atom(("line", k))


# ---------------------------------------------------------------------------
# Expansion in the Schur-power basis
# ---------------------------------------------------------------------------
#
# A sparse vector is a tuple of (basis index, coefficient) pairs, and a
# combination of weights one of (weight, coefficient) pairs, each weight a
# non-increasing tuple of t ints; nonzero coefficients only.

def _padded(alpha: Partition, t: int) -> tuple[int, ...]:
    return tuple(alpha) + (0,) * (t - len(alpha))


def _basis_position(alpha, box: BoxShape) -> int:
    """Basis index of the partition alpha, looked up by its exponents
    alpha + delta; ValueError if alpha does not fit in the box."""
    alpha = Partition(alpha)
    if not alpha.fits(box):
        raise ValueError(f"{alpha} does not fit in {box}")
    t = box.rows
    return box_index(box)[tuple(p + t - 1 - i for i, p in enumerate(_padded(alpha, t)))]


@cache  # unbounded: one entry per weight and box a session straightens
def _straighten(weight: tuple[int, ...], box: BoxShape) -> tuple[tuple[int, int], ...]:
    """s_weight(x) = a_{weight+delta}(x) / a_delta(x) in the Schur-power
    basis, for any t integers (see the module docstring).

    Each column x^e of the alternant is reduced modulo (x - 1)^h and
    wedged on the left, from the last column to the first, by
    ``flop._wedge``, whose terms are keyed by the bitmask of their
    exponents; each full set of t exponents is lam + delta for a basis
    partition lam.
    """
    t, h = box.rows, box.h
    wedge = {0: 1}
    for i in range(t - 1, -1, -1):
        column = flop._column(weight[i] + t - 1 - i, h)
        wedge = flop._wedge(wedge, [(1 << j, a) for j, a in reversed(column)])
    index = flop._mask_index(box)
    return tuple(sorted((index[mask], c) for mask, c in wedge.items() if c))


@cache  # one tuple of C(h, t) weights per box a session expands on
def _basis_weights(box: BoxShape) -> tuple[tuple[int, ...], ...]:
    """Each basis partition padded to t parts, a weight, in basis order."""
    t = box.rows
    return tuple(tuple(e - t + 1 + i for i, e in enumerate(exps)) for exps in box_index(box))


def _multiply(u, v, box: BoxShape) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Product of two combinations of weights, reduced into the box.

    s_v s_w = det^(v_t + w_t) s_(v - v_t) s_(w - w_t): the shifted weights
    are partitions, multiplied by the Littlewood-Richardson rule in t rows
    (none needed when one is empty), and each nu is shifted back.  The
    weights so collected are straightened once each, so every weight of
    the result is a basis partition and a chain of products never holds
    more than C(h, t) weights.
    """
    t = box.rows
    shifted = [(Partition(x - w[-1] for x in w), w[-1], b) for w, b in v]
    product: dict[tuple[int, ...], int] = {}
    for w, a in u:
        lam = Partition(x - w[-1] for x in w)
        for mu, low, b in shifted:
            shift, ab = w[-1] + low, a * b
            nus = (lr_coefficients(lam, mu, BoxShape(t, lam.cols + mu.cols)).items()
                   if lam and mu else ((lam or mu, 1),))
            for nu, c in nus:
                weight = tuple(p + shift for p in _padded(nu, t))
                product[weight] = product.get(weight, 0) + ab * c
    out: dict[int, int] = {}
    for weight, x in product.items():
        for k, y in _straighten(weight, box):
            out[k] = out.get(k, 0) + x * y
    weights = _basis_weights(box)
    return tuple((weights[k], x) for k, x in out.items() if x)


def _skew_count(alpha: Partition, nu: Partition, n: int) -> int:
    """s_{alpha/nu}(1^n), by Jacobi-Trudi with h_k(1^n) = C(n+k-1, k)."""
    def h(k):
        return comb(n + k - 1, k) if k >= 0 else 0

    m = alpha.rows
    if not m:
        return 1
    nu = tuple(nu) + (0,) * (m - len(nu))
    return IntegerMatrix(
        [[h(alpha[i] - nu[j] - i + j) for j in range(m)] for i in range(m)]
    ).det()


@cache  # one entry per atom and box a session expands
def _atom_vector(atom: _Atom, box: BoxShape) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One atom as a sparse combination of weights, (weight, coefficient)
    pairs; raises ValueError exactly where the character route
    (``chow.tautological_ch``) does.  A sub* or line atom is one weight,
    which may lie outside the box and is not straightened here; sub and
    quot atoms are basis partitions, and tangent wedges, being products,
    are reduced into the box."""
    kind, arg = atom
    t = box.rows
    if kind == "sub":
        return ((_basis_weights(box)[_basis_position(arg, box)], 1),)
    if kind == "sub*":
        # the dual has the roots x_i^-1: s_alpha(x^-1) = s_(-alpha_t, ..., -alpha_1)(x)
        alpha = Partition(arg)
        if alpha.rows > t:
            raise ValueError(f"{alpha} has more than {t} rows")
        return ((tuple(-a for a in reversed(_padded(alpha, t))), 1),)
    if kind == "quot":
        # [quot] = h - [sub] in the lambda-ring, so [Sigma^alpha quot] is
        # sum_{nu in alpha} (-1)^|nu| s_{alpha/nu}(1^h) [Sigma^(nu') sub];
        # nu' fits in the box exactly when it has at most t rows, and each
        # count is positive, the columns of alpha/nu being shorter than h
        alpha = Partition(arg)
        if alpha.rows > box.cols:
            raise ValueError(f"{alpha} has more than {box.cols} rows")
        return tuple(
            (w, (-1) ** nu.size * _skew_count(alpha, nu, box.h))
            for w, beta in zip(_basis_weights(box), enumerate_box(box))
            if alpha.contains(nu := beta.conjugate())
        )
    if kind == "line":
        # O(k) = (det sub)^-k
        return (((-arg,) * t, 1),)
    if kind == "tangent_wedge":
        # Cauchy: wedge^i(sub* (x) quot) splits into Sigma^mu sub* (x)
        # Sigma^mu' quot over the partitions mu of i
        total: dict[tuple[int, ...], int] = {}
        for mu in partitions_of(arg, t, box.cols):
            term = _multiply(
                _atom_vector(("sub*", mu), box), _atom_vector(("quot", mu.conjugate()), box), box
            )
            for w, x in term:
                total[w] = total.get(w, 0) + x
        return tuple((w, x) for w, x in total.items() if x)
    raise ValueError(f"unknown atom {atom}")


def expand_in_basis(expr: TautClass, box: BoxShape) -> KVector:
    """Integer coordinates of a tautological class in the Schur-power basis.

    Computed in integers throughout: each term multiplies its atoms'
    weights out one product at a time (``_multiply``, which reduces into
    the box), and every weight of the final product is straightened.
    """
    total = [0] * box.rank
    for atoms, coeff in expr.terms.items():
        term = _atom_vector(atoms[0], box) if atoms else (((0,) * box.rows, 1),)
        for atom in atoms[1:]:
            term = _multiply(term, _atom_vector(atom, box), box)
        for w, x in term:
            for k, y in _straighten(w, box):
                total[k] += coeff * x * y
    return KVector(box, tuple(total))


# ---------------------------------------------------------------------------
# Integer matrices: determinant, Smith form, the flop matrix
# ---------------------------------------------------------------------------

class IntegerMatrix:
    """A rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("entries must be a non-empty rectangular array")
        for row in rows:
            require_ints(row, "entries")
        self.entries = tuple(rows)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "IntegerMatrix":
        cols = cls(columns).entries  # the constructor's checks, on the transpose
        return cls([[col[i] for col in cols] for i in range(len(cols[0]))])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """Product, accumulated row by row so that zero entries cost nothing."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, other_row in zip(row, other.entries):
                if a:
                    acc = [x + a * y for x, y in zip(acc, other_row)]
            out.append(acc)
        return IntegerMatrix(out)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerMatrix) and self.entries == other.entries

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"IntegerMatrix[{body}]"


def smith_normal_form(matrix: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the matrix, zeros last.

    The cokernel of the column lattice is the direct sum of Z/d_i over the
    nonzero invariants plus one copy of Z per zero.  Reduction pivots on
    the least absolute value to keep entries small.  A pivot is nonzero
    until the remaining block is all zero, so the zeros of the diagonal
    only trail.
    """
    m = [list(row) for row in matrix.entries]
    nrows, ncols = len(m), len(m[0])
    for k in range(min(nrows, ncols)):
        while True:
            # move the smallest nonzero entry of the remaining block to (k, k)
            pivot, best = None, 0
            for i in range(k, nrows):
                row = m[i]
                for j in range(k, ncols):
                    if row[j] and (pivot is None or abs(row[j]) < best):
                        pivot, best = (i, j), abs(row[j])
                if best == 1:
                    break
            if pivot is None:
                break
            pi, pj = pivot
            m[k], m[pi] = m[pi], m[k]
            if pj != k:
                for row in m:
                    row[k], row[pj] = row[pj], row[k]
            # clear row and column k; a nonzero remainder is smaller than
            # the pivot, so the next pivot is strictly smaller and this
            # terminates.  Re-choosing the smallest entry, rather than
            # pivoting on the remainder, stops successive Euclid steps from
            # compounding the entries' growth.
            p = m[k][k]
            pivot_row = m[k]
            clear = True
            for i in range(k + 1, nrows):
                row = m[i]
                if row[k]:
                    q = row[k] // p
                    if q:
                        for j in range(k, ncols):
                            row[j] -= q * pivot_row[j]
                    clear = clear and not row[k]
            for j in range(k + 1, ncols):
                if pivot_row[j]:
                    q = pivot_row[j] // p
                    if q:
                        for row in m[k:]:
                            row[j] -= q * row[k]
                    clear = clear and not pivot_row[j]
            if clear:
                break
    diag = [abs(m[i][i]) for i in range(min(nrows, ncols))]
    # enforce the divisibility chain d_i | d_{i+1}; after the pass d_i
    # divides every later d_j, so the invariants come out sorted
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return tuple(diag)


def flop_matrix(box: BoxShape) -> IntegerMatrix:
    """Matrix of the flop correspondence on the Grothendieck lattice.

    Column alpha is the expansion of the dual Schur power; by the pullback
    identifications the same matrix represents the correspondence on the
    cotangent spaces and on their one-parameter deformations.  It is an
    involution and unimodular (``flop.flop_certificate``).

    Computed in integers as F = eps . C_t(M), the t-th compound of the
    h x h matrix M = U_1^c . P_1 on R = Z[x]/(x - 1)^h, c = h - t and
    eps = (-1)^(t(t-1)/2) (Horn and Johnson, Matrix Analysis, 0.8.1).
    Column k of M is x^(t-1-k): a unit vector for k < t, else the power
    x^-(k-t+1) (``flop._inverse_powers``).  The class s_w of a weight w is
    the alternant a_(w+delta), the wedge x^(e_1) ^ ... ^ x^(e_t) in wedge^t R,
    and the dual class of alpha has the exponents t - 1 - e over the
    exponents e of alpha, read from the smallest: so column alpha of F is
    the wedge of M's columns at alpha + delta, increasing, and its entry at
    the row with exponents I is the minor of M on I and those columns, in
    that order.  Equivalently F = U^c . Pi, with U = wedge^t U_1 the twist
    by O(1) = (x_1 ... x_t)^-1 and Pi = eps . wedge^t P_1 the rotated box
    complement, since the compound is multiplicative (Cauchy-Binet).

    The command line writes the rows of ``flop._flop_rows`` as they are
    and never builds this checked matrix.
    """
    rows = flop._flop_rows(box)
    for i, row in enumerate(rows):
        rows[i] = tuple(row)  # each list is freed as its tuple is made
    return IntegerMatrix(rows)
