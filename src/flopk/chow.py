"""The rational Chow ring of G(t,h) in the Schubert basis.

Schubert classes sigma_lam, lam inside the t x (h-t) box, multiply by the
Littlewood-Richardson rule with classes outside the box truncated to
zero.  On top of the ring sits the Chern character of the tautological
bundles: the total Chern class of the quotient bundle is the sum of the
one-row special classes, the subbundle's Chern classes come from series
inversion, power sums of Chern roots follow by Newton's identities, and
the character of a Schur power is assembled from the symmetric-group
character expansion of Schur functions in power sums, the characters by
the Murnaghan-Nakayama rule.  ``tautological_ch`` extends it to any
tautological class; no other module computes a Chern character.

All coefficients are exact rationals (fractions.Fraction); nothing in
this module ever touches floating point, because the tests compare the
characters it computes exactly with the integer routes of module kgroup.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial

from .partitions import BoxShape, Partition, enumerate_box, lr_coefficients, partitions_of


class SchubertVector:
    """An element of the rational Chow ring: a finitely supported map from
    box partitions to exact rationals.

    Instances are treated as immutable; all arithmetic returns new vectors.
    """

    __slots__ = ("box", "coeffs")

    def __init__(self, box: BoxShape, coeffs=None):
        self.box = box
        clean: dict[Partition, Fraction] = {}
        for p, c in (coeffs or {}).items():
            p = Partition(p)
            if not p.fits(box):
                raise ValueError(f"{p} does not fit in {box}")
            c = Fraction(c)
            if c:
                clean[p] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, box: BoxShape) -> "SchubertVector":
        return cls(box)

    @classmethod
    def unit(cls, box: BoxShape) -> "SchubertVector":
        return cls(box, {Partition(): 1})

    @classmethod
    def schubert(cls, box: BoxShape, alpha, coeff=1) -> "SchubertVector":
        return cls(box, {Partition(alpha): coeff})

    def coefficient(self, alpha) -> Fraction:
        return self.coeffs.get(Partition(alpha), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "SchubertVector"):
        if self.box != other.box:
            raise ValueError(f"box mismatch: {self.box} vs {other.box}")

    def __add__(self, other: "SchubertVector") -> "SchubertVector":
        self._check(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return SchubertVector(self.box, out)

    def __sub__(self, other: "SchubertVector") -> "SchubertVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "SchubertVector":
        scalar = Fraction(scalar)
        return SchubertVector(self.box, {p: scalar * c for p, c in self.coeffs.items()})

    def __mul__(self, other: "SchubertVector") -> "SchubertVector":
        """Product in the Chow ring (LR expansion, box truncation)."""
        if not isinstance(other, SchubertVector):
            return NotImplemented
        self._check(other)
        out: dict[Partition, Fraction] = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                ab = a * b
                for nu, c in lr_coefficients(lam, mu, self.box).items():
                    out[nu] = out.get(nu, Fraction(0)) + ab * c
        return SchubertVector(self.box, out)

    def __pow__(self, n: int) -> "SchubertVector":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = SchubertVector.unit(self.box)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchubertVector)
            and self.box == other.box
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for p in sorted(self.coeffs, key=lambda q: (q.size, tuple(-x for x in q))):
            c = self.coeffs[p]
            terms.append(f"{c}*s[{p.text()}]")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# Symmetric-group characters (Murnaghan-Nakayama)
# ---------------------------------------------------------------------------

def centralizer_order(rho: Partition) -> int:
    """z_rho = prod_k k^{m_k} m_k!, the centralizer order of cycle type rho."""
    z = 1
    for k, grp in itertools.groupby(rho):
        m = len(list(grp))
        z *= k**m * factorial(m)
    return z


@cache
def sn_character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of S_n: chi^lam at cycle type rho (|lam| = |rho|).

    Computed by the Murnaghan-Nakayama rule in beta-set form: removing a
    border strip of length r is moving one beta number down by r, with
    sign (-1)^(number of beta numbers jumped over).
    """
    lam, rho = Partition(lam), Partition(rho)
    if lam.size != rho.size:
        raise ValueError(f"|{lam}| != |{rho}|")
    if not rho:
        return 1
    r = rho[0]
    rest = Partition(rho[1:])
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = Partition(
            x - (m - 1 - i) for i, x in enumerate(new_beta) if x - (m - 1 - i) > 0
        )
        total += (-1) ** crossed * sn_character(new_lam, rest)
    return total


# ---------------------------------------------------------------------------
# Chern classes and power sums of the tautological bundles
# ---------------------------------------------------------------------------

@cache
def quot_chern_classes(box: BoxShape) -> tuple[SchubertVector, ...]:
    """c_i of the quotient bundle: the special Schubert classes sigma_(i)."""
    out = [SchubertVector.unit(box)]
    for i in range(1, box.cols + 1):
        out.append(SchubertVector.schubert(box, (i,)))
    return tuple(out)


@cache
def sub_chern_classes(box: BoxShape) -> tuple[SchubertVector, ...]:
    """c_0..c_t of the tautological subbundle.

    Determined by c(sub).c(quot) = 1: the inverse series is computed degree
    by degree; components above degree t vanish identically in the Chow
    ring, which is checked.
    """
    cq = quot_chern_classes(box)
    inv = [SchubertVector.unit(box)]
    for d in range(1, box.dim + 1):
        term = SchubertVector.zero(box)
        for j in range(1, min(d, box.cols) + 1):
            term = term - cq[j] * inv[d - j]
        inv.append(term)
    for d in range(box.rows + 1, box.dim + 1):
        if not inv[d].is_zero():
            raise AssertionError(f"c_{d}(sub) should vanish on {box}")
    return tuple(inv[: box.rows + 1])


def _power_sums_from_elementary(
    elem: tuple[SchubertVector, ...], box: BoxShape
) -> tuple[SchubertVector, ...]:
    """Newton's identities: power sums p_1..p_dim from e_0..e_rank."""
    rank = len(elem) - 1
    p: list[SchubertVector] = [SchubertVector.zero(box)]  # p[0] unused
    for m in range(1, box.dim + 1):
        acc = SchubertVector.zero(box)
        for i in range(1, min(m - 1, rank) + 1):
            acc = acc + (-1) ** (i - 1) * (elem[i] * p[m - i])
        if m <= rank:
            acc = acc + Fraction((-1) ** (m - 1) * m) * elem[m]
        p.append(acc)
    return tuple(p)


@cache
def _power_sums(box: BoxShape, bundle: str) -> tuple[SchubertVector, ...]:
    """Power sums p_1..p_dim of the Chern roots of "sub" or "quot"."""
    chern = sub_chern_classes if bundle == "sub" else quot_chern_classes
    return _power_sums_from_elementary(chern(box), box)


@cache
def _exp_power_sum(box: BoxShape, bundle: str, k: int) -> SchubertVector:
    """P_k = sum_i exp(k x_i) over the Chern roots x_i of the bundle.

    Expanded as rank + sum_m k^m p_m / m!, truncated at the dimension of
    the Grassmannian.  Negative k covers the dual bundle.
    """
    psums = _power_sums(box, bundle)
    rank = box.rows if bundle == "sub" else box.cols
    acc = Fraction(rank) * SchubertVector.unit(box)
    for m in range(1, box.dim + 1):
        acc = acc + Fraction(k**m, factorial(m)) * psums[m]
    return acc


@cache
def _exp_power_sum_product(
    box: BoxShape, bundle: str, parts: tuple[int, ...]
) -> SchubertVector:
    """The product of the P_k over the signed parts k."""
    if not parts:
        return SchubertVector.unit(box)
    head = _exp_power_sum(box, bundle, parts[0])
    return head * _exp_power_sum_product(box, bundle, parts[1:])


def _schur_of_exp(alpha: Partition, box: BoxShape, bundle: str, sign: int) -> SchubertVector:
    """s_alpha evaluated at exp of the (possibly negated) Chern roots.

    Uses the character expansion s_alpha = sum_rho chi^alpha(rho)/z_rho p_rho;
    the power sum p_k of the exponentials is P_{sign*k}, so sign=-1 gives
    the dual bundle.
    """
    n = alpha.size
    if n == 0:
        return SchubertVector.unit(box)
    acc = SchubertVector.zero(box)
    for rho in partitions_of(n):
        chi = sn_character(alpha, rho)
        if not chi:
            continue
        prod = _exp_power_sum_product(box, bundle, tuple(sign * r for r in rho))
        acc = acc + Fraction(chi, centralizer_order(rho)) * prod
    return acc


@cache
def chern_character(alpha, box: BoxShape) -> SchubertVector:
    """ch of the Schur power Sigma^alpha of the tautological subbundle."""
    alpha = Partition(alpha)
    if not alpha.fits(box):
        raise ValueError(f"{alpha} does not fit in {box}")
    return _schur_of_exp(alpha, box, "sub", +1)


@cache
def dual_chern_character(alpha, box: BoxShape) -> SchubertVector:
    """ch of Sigma^alpha applied to the dual of the subbundle."""
    alpha = Partition(alpha)
    if alpha.rows > box.rows:
        raise ValueError(f"{alpha} has more than {box.rows} rows")
    return _schur_of_exp(alpha, box, "sub", -1)


@cache
def quot_chern_character(alpha, box: BoxShape) -> SchubertVector:
    """ch of Sigma^alpha of the quotient bundle."""
    alpha = Partition(alpha)
    if alpha.rows > box.cols:
        raise ValueError(f"{alpha} has more than {box.cols} rows")
    return _schur_of_exp(alpha, box, "quot", +1)


@cache
def line_chern_character(k: int, box: BoxShape) -> SchubertVector:
    """ch of O(k): exp(k sigma_1), since O(1) is the dual determinant of sub."""
    sigma1 = SchubertVector.schubert(box, (1,))
    acc = SchubertVector.zero(box)
    power = SchubertVector.unit(box)
    for m in range(0, box.dim + 1):
        acc = acc + Fraction(k**m, factorial(m)) * power
        power = power * sigma1
    return acc


# ---------------------------------------------------------------------------
# Tautological classes
# ---------------------------------------------------------------------------

def tautological_ch(expr, box: BoxShape) -> SchubertVector:
    """Chern character of a tautological class (``kgroup.TautClass``) on
    the given Grassmannian: each tensor product of atoms is the product of
    their characters."""
    total = SchubertVector.zero(box)
    for atoms, coeff in expr.terms.items():
        term = coeff * SchubertVector.unit(box)
        for atom in atoms:
            term = term * _atom_ch(atom, box)
        total = total + term
    return total


@cache
def _atom_ch(atom: tuple, box: BoxShape) -> SchubertVector:
    kind, arg = atom
    if kind == "sub":
        return chern_character(arg, box)
    if kind == "sub*":
        return dual_chern_character(arg, box)
    if kind == "quot":
        return quot_chern_character(arg, box)
    if kind == "line":
        return line_chern_character(arg, box)
    if kind == "tangent_wedge":
        # Cauchy: wedge^i(sub* (x) quot) splits into Schur powers over
        # partitions of i, the conjugate acting on the quotient factor.
        total = SchubertVector.zero(box)
        for mu in partitions_of(arg, box.rows, box.cols):
            total = total + dual_chern_character(mu, box) * quot_chern_character(
                mu.conjugate(), box
            )
        return total
    raise ValueError(f"unknown atom {atom}")


# ---------------------------------------------------------------------------
# The Chern character matrix and exact rational linear algebra
# ---------------------------------------------------------------------------

def _as_column(v: SchubertVector) -> list[Fraction]:
    return [v.coefficient(p) for p in enumerate_box(v.box)]


@cache
def ch_matrix(box: BoxShape) -> tuple[tuple[Fraction, ...], ...]:
    """Columns are ch(Sigma^alpha sub) over the canonical box order; rows are
    Schubert classes in the same order.  Invertible over the rationals."""
    cols = [_as_column(chern_character(alpha, box)) for alpha in enumerate_box(box)]
    n = len(cols)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def rational_inverse(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square matrix over the rationals (Gauss-Jordan)."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@cache
def ch_matrix_inverse(box: BoxShape) -> tuple[tuple[Fraction, ...], ...]:
    return rational_inverse(ch_matrix(box))
