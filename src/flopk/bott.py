"""Borel-Weil-Bott cohomology of homogeneous bundles on G(t,h).

A Weight (a | b) denotes the irreducible homogeneous bundle with highest
weight a on the dual of the tautological subbundle and b on the dual of
the quotient bundle: Sigma^a(sub*) (x) Sigma^b(quot*), where blocks with
negative entries are resolved through determinant twists.  Under this
convention O(k) is the weight (k,...,k | 0,...,0).

The convention (which block comes first, and the sign) is pinned by
anchor facts rather than chosen a priori: sections of O(1) on the
projective plane are 3-dimensional, O(-2) on the line has a single class
in degree one, O(-2) on G(2,4) has no cohomology at all, and the middle
Hodge numbers of G(2,4) are (2, 1) in degrees (2, 3).  All four hold for
the recipe below and fail for the block-swapped or sign-flipped
variants.

Algorithm: append the two blocks, add the staircase rho = (h-1,...,1,0);
a repeated entry kills all cohomology; otherwise exactly one degree
survives, the number of inversions removed by sorting, and the dimension
is the Weyl dimension of the sorted weight minus rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .partitions import BoxShape, partitions_of


@dataclass(frozen=True)
class Weight:
    """Highest weight of a homogeneous bundle, one block per factor.

    ``a`` has length t (subbundle-dual block), ``b`` length h-t
    (quotient-dual block); entries are integers, non-increasing within
    each block.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        for block in (self.a, self.b):
            if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
                raise ValueError(f"block {block} is not non-increasing")
        if not self.a or not self.b:
            raise ValueError("both blocks must be non-empty")

    @property
    def h(self) -> int:
        return len(self.a) + len(self.b)

    def text(self) -> str:
        return ",".join(map(str, self.a)) + "|" + ",".join(map(str, self.b))

    @classmethod
    def from_text(cls, s: str) -> "Weight":
        left, _, right = s.partition("|")
        return cls(
            tuple(int(x) for x in left.split(",")),
            tuple(int(x) for x in right.split(",")),
        )


class BottResult(NamedTuple):
    """The unique nonvanishing cohomology group of an irreducible bundle."""

    degree: int
    dim: int


def line_bundle_weight(k: int, box: BoxShape) -> Weight:
    """The weight of O(k) on the Grassmannian with the given box."""
    return Weight((k,) * box.rows, (0,) * box.cols)


def weyl_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the GL irreducible with (weakly dominant) weight lam."""
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    if num % den:
        raise AssertionError(f"non-integral Weyl dimension {num}/{den} for {lam}")
    return num // den


def bott_cohomology(w: Weight) -> Optional[BottResult]:
    """Cohomology of the irreducible bundle with weight w; None if it all
    vanishes (the dotted weight hits a wall)."""
    h = w.h
    rho = tuple(range(h - 1, -1, -1))
    v = tuple(x + r for x, r in zip(w.a + w.b, rho))
    if len(set(v)) < h:
        return None
    degree = sum(
        1 for i in range(h) for j in range(i + 1, h) if v[i] < v[j]
    )
    lam = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    return BottResult(degree, weyl_dimension(lam))


def serre_dual_weight(w: Weight) -> Weight:
    """Weight of the Serre-dual bundle: dualize and twist by O(-h).

    The canonical bundle of G(t,h) is O(-h), and twisting by O(k) adds k
    to every entry of the a-block.
    """
    h = w.h
    return Weight(
        tuple(-x - h for x in reversed(w.a)),
        tuple(-x for x in reversed(w.b)),
    )


def exterior_cotangent_decomposition(p: int, box: BoxShape) -> list[Weight]:
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


def hodge_numbers(box: BoxShape) -> list[list[int]]:
    """The table h^{p,q} = dim H^q of the p-th exterior cotangent power.

    Off-diagonal entries vanish and the diagonal lists the coefficients
    of the Gaussian binomial [h choose t]_q.
    """
    d = box.dim
    table = [[0] * (d + 1) for _ in range(d + 1)]
    for p in range(d + 1):
        for w in exterior_cotangent_decomposition(p, box):
            res = bott_cohomology(w)
            if res is not None:
                table[p][res.degree] += res.dim
    return table


def gaussian_binomial(h: int, t: int) -> list[int]:
    """Coefficients of the Gaussian binomial [h choose t]_q.

    Computed by the q-Pascal recurrence; the list has length t(h-t)+1.
    """
    if not 0 <= t <= h:
        raise ValueError(f"need 0 <= t <= h")
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
