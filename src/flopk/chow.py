"""The rational Chow ring of G(t,h) in the Schubert basis.

Schubert classes sigma_lam, lam inside the t x (h-t) box, multiply by the
Littlewood-Richardson rule with classes outside the box truncated to
zero.  On top of the ring sits the Chern character of the tautological
bundles: the total Chern class of the quotient bundle is the sum of the
one-row special classes, the subbundle's Chern classes come from series
inversion, power sums of Chern roots follow by Newton's identities, and
the character of a Schur power is assembled from the symmetric-group
character expansion of Schur functions in power sums.

All coefficients are exact rationals (fractions.Fraction); nothing in
this module ever touches floating point, because the tests compare the
characters it computes exactly with the integer routes of module kgroup.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .partitions import (
    BoxShape,
    Partition,
    centralizer_order,
    enumerate_box,
    lr_coefficients,
    partitions_of,
    sn_character,
)


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

    def __neg__(self) -> "SchubertVector":
        return (-1) * self

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

    def __hash__(self):
        return hash((self.box, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for p in sorted(self.coeffs, key=lambda q: (q.size, tuple(-x for x in q))):
            c = self.coeffs[p]
            terms.append(f"{c}*s[{p.text()}]")
        return " + ".join(terms)


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
def _sub_power_sums(box: BoxShape) -> tuple[SchubertVector, ...]:
    return _power_sums_from_elementary(sub_chern_classes(box), box)


@cache
def _quot_power_sums(box: BoxShape) -> tuple[SchubertVector, ...]:
    return _power_sums_from_elementary(quot_chern_classes(box), box)


@cache
def _exp_power_sum(box: BoxShape, bundle: str, k: int) -> SchubertVector:
    """P_k = sum_i exp(k x_i) over the Chern roots x_i of the bundle.

    Expanded as rank + sum_m k^m p_m / m!, truncated at the dimension of
    the Grassmannian.  Negative k covers the dual bundle.
    """
    if bundle == "sub":
        psums, rank = _sub_power_sums(box), box.rows
    elif bundle == "quot":
        psums, rank = _quot_power_sums(box), box.cols
    else:
        raise ValueError(bundle)
    acc = Fraction(rank) * SchubertVector.unit(box)
    for m in range(1, box.dim + 1):
        acc = acc + Fraction(k**m, factorial(m)) * psums[m]
    return acc


@cache
def _exp_power_sum_product(box: BoxShape, bundle: str, rho: Partition) -> SchubertVector:
    if not rho:
        return SchubertVector.unit(box)
    head = _exp_power_sum(box, bundle, rho[0])
    return head * _exp_power_sum_product(box, bundle, Partition(rho[1:]))


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
        if sign > 0:
            prod = _exp_power_sum_product(box, bundle, rho)
        else:
            prod = SchubertVector.unit(box)
            for r in rho:
                prod = prod * _exp_power_sum(box, bundle, -r)
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
