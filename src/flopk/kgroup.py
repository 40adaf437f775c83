"""The Grothendieck lattice of G(t,h) and the flop correspondence matrix.

K(G) is free abelian on the classes of Schur powers of the tautological
subbundle, indexed by box partitions in the canonical order.  Pulling
back along the bundle projections identifies this lattice with the
K-groups of the cotangent space and of its one-parameter deformation, so
a single coordinate lattice serves all three; the correspondence induced
by the dual-Grassmannian flop acts on it by sending each basis class to
the class of the dual Schur power, and this module computes that matrix
together with its unimodularity and Smith-form certificates.

Both runtime routes to the lattice coordinates are integer.  With x_i
the K-theoretic Chern roots of the subbundle, the substitution
x_i = 1 + z_i presents K(G) as Lambda_t[z]/(h_k(z), k > h-t), the
integral presentation of the Chow ring, in which the s_mu(z) over the
box form a basis, multiply by the box-truncated Littlewood-Richardson
rule, and O(1) = prod (1+z_i)^-1 = sum_{j<=c} (-1)^j s_(j)(z) is one
more class among them.  A binomial change of basis
(``binomial_change``) connects the s_mu(z) with the Schur powers.

* Expansion of an arbitrary tautological class (``expand_in_basis``)
  gives every atom integer z-coordinates (Schur powers of the
  subbundle, its dual and the quotient, line bundles, exterior powers
  of the tangent bundle), multiplies them out and maps back by D^-1.
  A dual Schur power is a Schur power twisted by O(alpha_1), so its
  atom applies U (below) alpha_1 times in the Schur-power basis; O(k)
  is the dual Schur power (k^t) and O(-k) the Schur power (k^t).
* The flop matrix (``flop_matrix``) is F = U^c . Pi, with Pi the box
  complement and U = D^-1 . T . D multiplication by O(1) in the
  Schur-power basis itself (``schur_twist``), which is very sparse:
  neither D, nor the Pieri twist T (the product with O(1) in the
  s_mu(z)), nor a Littlewood-Richardson coefficient enters.
  ``flop_certificate`` proves F . F = I by the same sparse route and
  reads off det and Smith form.

The twist U in closed form.  Write Sigma^lam sub = s_lam(x) =
a_{lam+delta}(x) / a_delta(x) as a bialternant, delta = (t-1, ..., 0),
and pad lam to t parts.  Twisting by O(1) = (x_1 ... x_t)^-1 lowers
every exponent by one.  If lam_t >= 1 the result is s_{lam-1^t}.  If
lam_t = 0 the last column of the alternant holds x_i^-1.  The
relations h_k(z) = 0 for k > c say that prod_j (u - z_j) divides u^h,
so each root has z^h = (x - 1)^h = 0 and
x^-1 = sum_{k<h} (-1)^k C(h, k+1) x^k (a hockey-stick sum); by
linearity in that column the class is sum_k (-1)^k C(h, k+1)
a_{(lam_1+t-2, ..., lam_{t-1}, k)} / a_delta.  Each quotient straightens:
zero if k repeats an entry, otherwise the sign of sorting k into place
times s_mu, mu the sorted exponents minus delta.  Exactly c + 1 values
of k survive, and every mu fits in the box.

The Chern character (``TautClass.ch``, module chow) is a third,
rational route; the tests solve against the character matrix of the
basis as an independent oracle for both, and keep T as a dense
horizontal-strip matrix only to form D^-1 . T^c . D . Pi, a second
oracle for the flop matrix.

A classical identity behind the involution property: for alpha in the
t x (h-t) box, the dual Schur power of the subbundle is isomorphic to
the Schur power of the rotated box complement of alpha twisted by
O(h-t), so dualizing permutes the basis up to a uniform twist (see
``dual_twist_pair``).  One consequence worth recording: the restriction
of a basis bundle to the central fiber of the one-parameter deformation
sits in a two-term exact sequence with the bundle itself on both ends,
so its K-class is the difference of equal classes, i.e. zero; classes
supported on the central fiber vanish in the deformed lattice.  That is
a modeling identity, not an operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd

from .partitions import BoxShape, Partition, enumerate_box, lr_coefficients, partitions_of


# ---------------------------------------------------------------------------
# K-vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KVector:
    """Integer coordinates in the Schur-power basis, canonical box order."""

    box: BoxShape
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.box.rank:
            raise ValueError(
                f"expected {self.box.rank} coordinates for {self.box}, "
                f"got {len(self.coords)}"
            )
        for x in self.coords:
            if type(x) is not int:
                raise TypeError(f"coordinates must be int, got {x!r}")

    @classmethod
    def basis_vector(cls, box: BoxShape, alpha) -> "KVector":
        alpha = Partition(alpha)
        idx = enumerate_box(box).index(alpha)
        return cls(box, tuple(int(i == idx) for i in range(box.rank)))

    def coefficient(self, alpha) -> int:
        return self.coords[enumerate_box(self.box).index(Partition(alpha))]

    def as_dict(self) -> dict[Partition, int]:
        basis = enumerate_box(self.box)
        return {p: c for p, c in zip(basis, self.coords) if c}

    def __add__(self, other: "KVector") -> "KVector":
        if self.box != other.box:
            raise ValueError("box mismatch")
        return KVector(self.box, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "KVector") -> "KVector":
        if self.box != other.box:
            raise ValueError("box mismatch")
        return KVector(self.box, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, n: int) -> "KVector":
        if not isinstance(n, int):
            return NotImplemented
        return KVector(self.box, tuple(n * c for c in self.coords))

    def __str__(self):
        parts = []
        for p, c in self.as_dict().items():
            parts.append(f"{c}[S^{p.text()}]")
        return " + ".join(parts) if parts else "0"


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

    def __neg__(self) -> "TautClass":
        return (-1) * self

    def __rmul__(self, n: int) -> "TautClass":
        if not isinstance(n, int):
            return NotImplemented
        return TautClass({k: n * v for k, v in self.terms.items()})

    def __mul__(self, other) -> "TautClass":
        """Tensor product, extended bilinearly."""
        if isinstance(other, int):
            return other * self
        if not isinstance(other, TautClass):
            return NotImplemented
        out: dict[tuple[_Atom, ...], int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0) + va * vb
        return TautClass(out)

    def ch(self, box: BoxShape) -> SchubertVector:
        """Chern character of the expression on the given Grassmannian."""
        from .chow import SchubertVector

        total = SchubertVector.zero(box)
        for atoms, coeff in self.terms.items():
            term = coeff * SchubertVector.unit(box)
            for atom in atoms:
                term = term * _atom_ch(atom, box)
            total = total + term
        return total

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
    return TautClass._atom(("tangent_wedge", i))


def line_bundle(k: int) -> TautClass:
    """O(k); O(-1) is the determinant of the subbundle."""
    return TautClass._atom(("line", k))


@cache
def _atom_ch(atom: _Atom, box: BoxShape) -> SchubertVector:
    from . import chow

    kind, arg = atom
    if kind == "sub":
        return chow.chern_character(arg, box)
    if kind == "sub*":
        return chow.dual_chern_character(arg, box)
    if kind == "quot":
        return chow.quot_chern_character(arg, box)
    if kind == "line":
        return chow.line_chern_character(arg, box)
    if kind == "tangent_wedge":
        # Cauchy: wedge^i(sub* (x) quot) splits into Schur powers over
        # partitions of i, the conjugate acting on the quotient factor.
        total = chow.SchubertVector.zero(box)
        for mu in partitions_of(arg, box.rows, box.cols):
            total = total + chow.dual_chern_character(mu, box) * chow.quot_chern_character(
                mu.conjugate(), box
            )
        return total
    raise ValueError(f"unknown atom {atom}")


# ---------------------------------------------------------------------------
# Expansion in the Schur-power basis
# ---------------------------------------------------------------------------
#
# Expansion runs in the basis s_mu(z) of K(G) = Lambda_t[z]/(h_k(z), k > h-t),
# z_i = x_i - 1 for the K-theoretic Chern roots x_i of the subbundle (see
# ``binomial_change``).  Each atom gets integer z-coordinates, atoms
# multiply by the Littlewood-Richardson rule truncated to the box, and D^-1
# maps the result back to the Schur-power basis.

def _schur_z(lam: Partition, box: BoxShape) -> tuple[int, ...]:
    """z-coordinates of s_lam(1 + z): the d_{lam,mu} over mu in the box.

    lam may stick out of the box; the s_mu(z) with mu outside it vanish.
    """
    return tuple(
        _shifted_schur_coefficient(lam, mu, box.rows) if lam.contains(mu) else 0
        for mu in enumerate_box(box)
    )


@cache
def _product_table(box: BoxShape) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Structure constants of the s_mu(z) basis keyed by basis index:
    entry [i][j] lists the (k, c) with s_i s_j = sum c s_k, nonzero c only."""
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    n = len(basis)
    table = [[()] * n for _ in range(n)]
    for i, lam in enumerate(basis):
        for j in range(i, n):
            entry = tuple(
                (index[nu], c) for nu, c in lr_coefficients(lam, basis[j], box).items()
            )
            table[i][j] = table[j][i] = entry
    return tuple(tuple(row) for row in table)


def _z_product(u, v, box: BoxShape) -> tuple[int, ...]:
    """Product of two classes given by their z-coordinates."""
    table = _product_table(box)
    out = [0] * len(u)
    nonzero = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if a:
            row = table[i]
            for j, b in nonzero:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
    return tuple(out)


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


@cache
def _atom_z(atom: _Atom, box: BoxShape) -> tuple[int, ...]:
    """z-coordinates of one atom; raises ValueError exactly where the
    character route (``_atom_ch``) does."""
    kind, arg = atom
    basis = enumerate_box(box)
    if kind == "sub":
        alpha = Partition(arg)
        if not alpha.fits(box):
            raise ValueError(f"{alpha} does not fit in {box}")
        return _schur_z(alpha, box)
    if kind == "sub*":
        # Sigma^alpha sub* = Sigma^(alpha^c) sub (x) O(alpha_1), with alpha^c
        # the complement of alpha in the t x alpha_1 rectangle: U^alpha_1
        # on the Schur-power coordinates of Sigma^(alpha^c) sub, a unit
        # vector whenever alpha^c fits the box
        alpha = Partition(arg)
        if alpha.rows > box.rows:
            raise ValueError(f"{alpha} has more than {box.rows} rows")
        padded = tuple(alpha) + (0,) * (box.rows - alpha.rows)
        rotated = Partition(alpha.cols - p for p in reversed(padded))
        d, d_inv = binomial_change(box)
        v = {i: x for i, x in enumerate(d_inv.apply(_schur_z(rotated, box))) if x}
        v = _twist_power(v, schur_twist(box), alpha.cols)
        return d.apply([v.get(i, 0) for i in range(box.rank)])
    if kind == "quot":
        # [quot] = h - [sub] in the lambda-ring, so [Sigma^alpha quot] is
        # sum_{nu in alpha} (-1)^|nu| s_{alpha/nu}(1^h) [Sigma^(nu') sub];
        # nu' fits in the box exactly when it has at most t rows
        alpha = Partition(arg)
        if alpha.rows > box.cols:
            raise ValueError(f"{alpha} has more than {box.cols} rows")
        coords = []
        for beta in basis:
            nu = beta.conjugate()
            coords.append(
                (-1) ** nu.size * _skew_count(alpha, nu, box.h) if alpha.contains(nu) else 0
            )
        return binomial_change(box)[0].apply(coords)
    if kind == "line":
        # O(k) = (det sub*)^k and O(-k) = (det sub)^k = s_(k^t)(1 + z)
        power = Partition((abs(arg),) * box.rows)
        return _atom_z(("sub*", power), box) if arg >= 0 else _schur_z(power, box)
    if kind == "tangent_wedge":
        # Cauchy, as in ``_atom_ch``
        total = [0] * len(basis)
        for mu in partitions_of(arg, box.rows, box.cols):
            term = _z_product(
                _atom_z(("sub*", mu), box), _atom_z(("quot", mu.conjugate()), box), box
            )
            total = [x + y for x, y in zip(total, term)]
        return tuple(total)
    raise ValueError(f"unknown atom {atom}")


def expand_in_basis(expr: TautClass, box: BoxShape) -> KVector:
    """Integer coordinates of a tautological class in the Schur-power basis.

    Computed in integers throughout: the z-coordinates of the atoms are
    multiplied out term by term and mapped back by D^-1.
    """
    total = [0] * box.rank
    for atoms, coeff in expr.terms.items():
        term = (1,) + (0,) * (box.rank - 1)
        for i, atom in enumerate(atoms):
            z = _atom_z(atom, box)
            term = z if i == 0 else _z_product(term, z, box)
        total = [x + coeff * y for x, y in zip(total, term)]
    return KVector(box, binomial_change(box)[1].apply(total))


def line_bundle_class(k: int, box: BoxShape) -> KVector:
    """[O(k)] in the Schur-power basis."""
    return expand_in_basis(line_bundle(k), box)


def dual_class(alpha, box: BoxShape) -> KVector:
    """[Sigma^alpha of the dual subbundle] in the basis of plain Schur powers."""
    return expand_in_basis(schur_sub_dual(alpha), box)


def dual_twist_pair(alpha, box: BoxShape) -> tuple[Partition, int]:
    """The (beta, c) with Sigma^alpha(sub dual) = Sigma^beta(sub) (x) O(c).

    beta is the rotated box complement of alpha and c the box width; the
    identity is verified by expansion and holds with this single uniform
    twist for every alpha in the box.
    """
    alpha = Partition(alpha)
    beta = box.complement(alpha)
    c = box.cols
    lhs = dual_class(alpha, box)
    rhs = expand_in_basis(schur_sub(beta) * line_bundle(c), box)
    if lhs != rhs:
        raise AssertionError(
            f"twist identity failed for {alpha} in {box}: {lhs} != {rhs}"
        )
    return beta, c


# ---------------------------------------------------------------------------
# Integer matrices: determinant, Smith form, flop certificates
# ---------------------------------------------------------------------------

class IntegerMatrix:
    """A rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("entries must be a non-empty rectangular array")
        for row in rows:
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"entries must be int, got {x!r}")
        self.entries = tuple(rows)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "IntegerMatrix":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

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

    def apply(self, vector) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(r * v for r, v in zip(row, vector)) for row in self.entries)

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

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"IntegerMatrix[{body}]"


def smith_normal_form(matrix: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the matrix, zeros last.

    The cokernel of the column lattice is the direct sum of Z/d_i over the
    nonzero invariants plus one copy of Z per zero.  Reduction pivots on
    the least absolute value to keep entries small.
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
    # enforce the divisibility chain d_i | d_{i+1}
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[i] == 0 and diag[j] != 0:
                diag[i], diag[j] = diag[j], diag[i]
            a, b = diag[i], diag[j]
            if a and b and b % a:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    nonzero = sorted(d for d in diag if d)
    return tuple(nonzero) + (0,) * (len(diag) - len(nonzero))


def _shifted_schur_coefficient(lam: Partition, mu: Partition, t: int) -> int:
    """d_{lam,mu} = det C(lam_i + t - i, mu_j + t - j), i, j = 1..t: the
    coefficient of s_mu(z) in s_lam(1 + z) over t variables."""
    lam = tuple(lam) + (0,) * (t - len(lam))
    mu = tuple(mu) + (0,) * (t - len(mu))
    return IntegerMatrix(
        [[comb(lam[i] + t - 1 - i, mu[j] + t - 1 - j) for j in range(t)] for i in range(t)]
    ).det()


@cache
def binomial_change(box: BoxShape) -> tuple[IntegerMatrix, IntegerMatrix]:
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


@cache
def schur_twist(box: BoxShape) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Multiplication by O(1) in the Schur-power basis, as sparse columns.

    Entry j lists the (i, u) with [Sigma^lam_j sub (x) O(1)] =
    sum u [Sigma^lam_i sub], nonzero u only.  With lam padded to t parts:

    * lam_t >= 1: O(1) = (det sub)^-1 strips a full column, so the entry
      is the single pair for lam - 1^t;
    * lam_t = 0: sum_{k<h} (-1)^k C(h, k+1) straighten(lam_1 - 1, ...,
      lam_{t-1} - 1, k), which has exactly c + 1 terms, all in the box.

    This is D^-1 . T . D in closed form, with D from ``binomial_change``
    and T the product with O(1) in the s_mu(z), and the package's only
    twist by O(1): the flop matrix and the dual Schur power and line
    bundle atoms of expansion apply it, and T survives as a dense matrix
    only among the tests' oracles.  The derivation is in the module
    docstring.
    """
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    t, h = box.rows, box.h
    columns = []
    for lam in basis:
        lam = tuple(lam) + (0,) * (t - len(lam))
        if lam[-1]:
            columns.append(((index[Partition(x - 1 for x in lam)], 1),))
            continue
        # rho-shifted parts of lam - 1^t but the last, strictly decreasing
        head = [lam[i] + t - 2 - i for i in range(t - 1)]
        column = []
        for k in range(h):
            if k in head:
                continue
            # sorting k into place passes the t - 1 - p smaller entries
            p = sum(x > k for x in head)
            shifted = head[:p] + [k] + head[p:]
            mu = Partition(x - t + 1 + i for i, x in enumerate(shifted))
            sign = -1 if (k + t - 1 - p) % 2 else 1
            column.append((index[mu], sign * comb(h, k + 1)))
        columns.append(tuple(column))
    return tuple(columns)


def _twist_power(v: dict[int, int], twist, times: int) -> dict[int, int]:
    """U^times applied to a sparse vector {index: coefficient}, with U given
    by its sparse columns (``schur_twist``)."""
    for _ in range(times):
        out: dict[int, int] = {}
        for j, x in v.items():
            for i, u in twist[j]:
                out[i] = out.get(i, 0) + u * x
        v = {i: x for i, x in out.items() if x}
    return v


def _complement_indices(box: BoxShape) -> list[int]:
    """Basis index of the rotated box complement of each basis partition."""
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    return [index[box.complement(alpha)] for alpha in basis]


@cache
def flop_matrix(box: BoxShape) -> IntegerMatrix:
    """Matrix of the flop correspondence on the Grothendieck lattice.

    Column alpha is the expansion of the dual Schur power; by the pullback
    identifications the same matrix represents the correspondence on the
    cotangent spaces and on their one-parameter deformations.  It is an
    involution and unimodular (``flop_certificate``).

    Computed in integers as F = U^c . Pi: Pi sends alpha to the rotated
    box complement beta (see ``dual_twist_pair``) and U is the twist by
    O(1) in the Schur-power basis (``schur_twist``), applied c = h - t
    times to each column as a sparse vector.  So column alpha is
    [Sigma^beta sub (x) O(c)] = [Sigma^alpha sub dual].  U is the
    conjugate D^-1 . T . D of the Pieri twist T in the integral Chow
    presentation of K(G) (Buch 2002, "A Littlewood-Richardson rule for
    the K-theory of Grassmannians"), in closed form from the relation
    (x - 1)^h = 0 on each Chern root, so F = D^-1 . T^c . D . Pi with
    neither D nor a dense product.
    """
    n = box.rank
    twist = schur_twist(box)
    rows = [[0] * n for _ in range(n)]
    for j, beta in enumerate(_complement_indices(box)):
        for i, x in _twist_power({beta: 1}, twist, box.cols).items():
            rows[i][j] = x
    return IntegerMatrix(rows)


def flop_certificate(box: BoxShape) -> tuple[int, tuple[int, ...]]:
    """Determinant and Smith form of the flop matrix, proven by F . F = I.

    U^c . Pi is applied to every column of F (``flop_matrix``), and each
    must come back as the unit vector; otherwise ArithmeticError.  An
    integer involution has determinant +-1, hence Smith form (1, ..., 1),
    and its eigenvalues are +-1, so det F = (-1)^((n - tr F) / 2).  No
    elimination is run; Bareiss ``IntegerMatrix.det`` and
    ``smith_normal_form`` remain independent routes to the same numbers.
    """
    f = flop_matrix(box)
    twist = schur_twist(box)
    complement = _complement_indices(box)
    for j, column in enumerate(zip(*f.entries)):
        v = {complement[i]: x for i, x in enumerate(column) if x}
        if _twist_power(v, twist, box.cols) != {j: 1}:
            raise ArithmeticError(
                f"flop matrix of {box} is not an involution at column "
                f"{enumerate_box(box)[j].text()}"
            )
    n = box.rank
    minus_ones = (n - sum(f.entries[i][i] for i in range(n))) // 2
    return (-1) ** minus_ones, (1,) * n
