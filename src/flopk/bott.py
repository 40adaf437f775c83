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
Hodge numbers of G(2,4), summed over the Cauchy summands below, are
(2, 1) in degrees (2, 3).  All four hold for the recipe below and fail
for the block-swapped or sign-flipped variants.

Algorithm: append the two blocks and subtract (0, 1, ..., h-1) to get v,
the weight plus rho = (h-1, ..., 1, 0) less the constant h-1, which
leaves every difference unchanged; then sweep once over the pairs i < j
that ``itertools.combinations`` yields.  A zero difference v_i - v_j puts
v on a wall and kills all cohomology, and the sweep stops there;
otherwise exactly one degree survives, the number of negative differences
(the inversions that sorting v would remove), and its dimension is the
Weyl dimension of the sorted v minus rho, which is the product of the
|v_i - v_j| divided by the Weyl denominator prod_{k<h} k!.  The Serre
dual negates and reverses each block, which keeps it a non-increasing
int block, so it is built without ``Weight``'s checks.  The Hodge table
needs no sweep: each Cauchy summand has a single class, of dimension 1,
so ``hodge_numbers`` counts the partitions of the box (the Schubert
cells) by size.  The Weyl dimension formula, the Gaussian binomial and
the Cauchy decomposition by partitions are oracles of the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import factorial, prod
from typing import NamedTuple, Optional

from .partitions import BoxShape, Record, require_ints

# Largest dimension t(h-t) of a Grassmannian that hodge_numbers accepts,
# that of G(9,18), the largest box, and of G(1,82).  It bounds the
# printed table, (d+1)^2 entries for dimension d: 6724 at the cap.
MAX_HODGE_DIM = 81


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
        require_ints(a + b, "weight entries")
        for block in (a, b):
            if list(block) != sorted(block, reverse=True):
                raise ValueError(f"block {block} is not non-increasing")

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


@cache  # one integer per weight length h
def _weyl_denominator(n: int) -> int:
    """The product of j - i over 0 <= i < j < n, that is prod_{k<n} k!."""
    return prod(map(factorial, range(n)))


def bott_cohomology(w: Weight) -> Optional[BottResult]:
    """Cohomology of the irreducible bundle with weight w; None if it all
    vanishes (the dotted weight hits a wall)."""
    entries = w.a + w.b
    degree = 0
    num = 1
    for x, y in combinations([x - i for i, x in enumerate(entries)], 2):
        if x > y:
            num *= x - y
        elif x < y:
            degree += 1
            num *= y - x
        else:
            return None
    den = _weyl_denominator(len(entries))
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"non-integral Weyl dimension {num}/{den} for {w}")
    return BottResult(degree, dim)


def serre_dual_weight(w: Weight) -> Weight:
    """Weight of the Serre-dual bundle: dualize and twist by O(-h).

    The canonical bundle of G(t,h) is O(-h), and twisting by O(k) adds k
    to every entry of the a-block.  Negating and reversing a valid block
    keeps it valid, so the dual skips ``Weight``'s checks.
    """
    h = len(w.a) + len(w.b)
    dual = object.__new__(Weight)
    object.__setattr__(dual, "a", tuple([-x - h for x in reversed(w.a)]))
    object.__setattr__(dual, "b", tuple([-x for x in reversed(w.b)]))
    return dual


def hodge_numbers(box: BoxShape) -> list[list[int]]:
    """The table h^{p,q} = dim H^q of the p-th exterior cotangent power.

    Cauchy: the p-th power splits over the partitions mu of p in the box
    as Sigma^mu(sub) (x) Sigma^(mu')(quot*), the weight (-reversed mu |
    mu').  Its shifted entries are minus the exponents mu + (t-1, ..., 0)
    followed by minus their complement in {0, ..., h-1}, off every wall,
    so each summand has one class of dimension 1, in degree |mu|.  Hence
    h^{p,p} counts the partitions of p in the box, the coefficients of the
    Gaussian binomial [h choose t]_q, and the rest vanish.  Each mu is
    counted by its exponents, a t-subset of {0, ..., h-1} with sum
    |mu| + t(t-1)/2; the table needs no basis order, so no index is built.
    Boxes of dimension above MAX_HODGE_DIM raise ValueError.
    """
    d = box.dim
    if d > MAX_HODGE_DIM:
        raise ValueError(
            f"G({box.rows},{box.h}) has dimension {d}, above the limit {MAX_HODGE_DIM}"
        )
    shift = box.rows * (box.rows - 1) // 2
    table = [[0] * (d + 1) for _ in range(d + 1)]
    for exps in combinations(range(box.h), box.rows):
        p = sum(exps) - shift
        table[p][p] += 1
    return table
