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

Algorithm: append the two blocks and add the staircase rho = (h-1,...,1,0)
to get v, then sweep once over the pairs i < j.  A zero difference
v_i - v_j puts v on a wall and kills all cohomology; otherwise exactly
one degree survives, the number of negative differences (the inversions
that sorting v would remove), and its dimension is the Weyl dimension of
the sorted v minus rho, which is the product of the |v_i - v_j| divided
by the Weyl denominator prod_{k<h} k!.  The Weyl dimension formula and
the Gaussian binomial are oracles of the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod
from typing import NamedTuple, Optional

from .partitions import BoxShape, Record, partitions_of


class Weight(Record):
    """Highest weight of a homogeneous bundle, one block per factor.

    ``a`` has length t (subbundle-dual block), ``b`` length h-t
    (quotient-dual block); entries are integers, non-increasing within
    each block.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not a or not b:
            raise ValueError("both blocks must be non-empty")
        entries = a + b
        if set(map(type, entries)) != {int}:
            bad = next(x for x in entries if type(x) is not int)
            raise TypeError(f"weight entries must be int, got {bad!r}")
        for block in (a, b):
            if list(block) != sorted(block, reverse=True):
                raise ValueError(f"block {block} is not non-increasing")

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


@cache
def _weyl_denominator(n: int) -> int:
    """The product of j - i over 0 <= i < j < n, that is prod_{k<n} k!."""
    return prod(map(factorial, range(n)))


def bott_cohomology(w: Weight) -> Optional[BottResult]:
    """Cohomology of the irreducible bundle with weight w; None if it all
    vanishes (the dotted weight hits a wall)."""
    h = len(w.a) + len(w.b)
    v = [x + h - i for i, x in enumerate(w.a + w.b, 1)]
    degree = 0
    num = 1
    for i, x in enumerate(v, 1):
        for y in v[i:]:
            if x > y:
                num *= x - y
            elif x < y:
                degree += 1
                num *= y - x
            else:
                return None
    den = _weyl_denominator(h)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"non-integral Weyl dimension {num}/{den} for {w}")
    return BottResult(degree, dim)


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

