"""Expansion by straightening in the Schur-power basis against the
integral presentation: the z-coordinates of the atoms, multiplied by the
box-truncated Littlewood-Richardson table and mapped back by D^-1
(``oracles.z_expand``)."""

import random
from itertools import combinations_with_replacement

import pytest

from flopk import kgroup
from flopk.kgroup import (
    expand_in_basis,
    line_bundle,
    schur_quot,
    schur_sub,
    schur_sub_dual,
    wedge_tangent,
)
from flopk.partitions import BoxShape, enumerate_box, partitions_of

from oracles import sorted_straighten, z_expand


def _atom_pool(box):
    """Every basis Schur power of the subbundle and of its dual, the
    quotient's Schur powers of size <= 3, the tangent wedges up to the
    fourth, and O(k) with |k| <= 2h."""
    basis = enumerate_box(box)
    pool = [schur_sub(a) for a in basis] + [schur_sub_dual(a) for a in basis]
    pool += [schur_quot(a) for n in range(1, 4) for a in partitions_of(n, box.cols)]
    pool += [wedge_tangent(i) for i in range(5)]
    pool += [line_bundle(k) for k in range(-2 * box.h, 2 * box.h + 1)]
    return pool


def _check(box, exprs):
    for expr in exprs:
        assert expand_in_basis(expr, box) == z_expand(expr, box), expr


def _pairs(box, count, seed):
    rng = random.Random(seed)
    pool = _atom_pool(box)
    return [rng.choice(pool) * rng.choice(pool) for _ in range(count)]


# every box G(t,h) with h <= 7
_BOXES = [BoxShape.for_grassmannian(t, h) for h in range(2, 8) for t in range(1, h)]


@pytest.mark.parametrize("box", _BOXES, ids=str)
def test_atoms_match_z_route(box):
    _check(box, _atom_pool(box))


@pytest.mark.parametrize("box", _BOXES, ids=str)
def test_atom_pairs_match_z_route(box):
    _check(box, _pairs(box, 200, seed=box.rows * 100 + box.cols))


def test_atom_pairs_match_z_route_on_g48():
    box = BoxShape.for_grassmannian(4, 8)
    _check(box, _pairs(box, 40, seed=48))


def test_largest_box_matches_z_route():
    # the z-route's truncated LR table on G(5,10) takes about 2 s to build
    box = BoxShape.for_grassmannian(5, 10)
    b = enumerate_box(box)
    dense = schur_sub_dual(b[-1]) * schur_sub_dual(b[-2]) + line_bundle(5) * line_bundle(4)
    _check(box, [schur_sub((1,)) * line_bundle(1), wedge_tangent(2), dense])
    # four factors, each product reduced into the box before the next
    box = BoxShape.for_grassmannian(3, 7)
    _check(box, [wedge_tangent(2) * wedge_tangent(2) * line_bundle(3) * schur_quot((1,))])


def test_straightening_matches_sorted_wedge():
    # the bitmask wedge on the left (flop._wedge) against exponent tuples
    # sorted on the right: every non-increasing weight with entries in
    # [-4, 4] on each box with h <= 6, then seeded weights, in any order,
    # with entries in [-3h, 3h] on boxes with h <= 10
    straighten = kgroup._straighten.__wrapped__
    for box in (BoxShape.for_grassmannian(t, h) for h in range(2, 7) for t in range(1, h)):
        for w in combinations_with_replacement(range(4, -5, -1), box.rows):
            assert straighten(w, box) == sorted_straighten(w, box), (w, box)
    rng = random.Random(10)
    boxes = [BoxShape.for_grassmannian(t, h) for h in range(2, 11) for t in range(1, h)]
    for _ in range(2000):
        box = rng.choice(boxes)
        w = tuple(rng.randint(-3 * box.h, 3 * box.h) for _ in range(box.rows))
        assert straighten(w, box) == sorted_straighten(w, box), (w, box)
