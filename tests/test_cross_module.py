"""Consistency checks that tie independent engines to each other.

The character engine (chow), the cohomology engine (bott) and the
lattice engine (kgroup) each compute representation-theoretic numbers by
different routes; where their outputs overlap they must agree exactly.
"""

import itertools

import pytest

from flopk.bott import BottResult, Weight, bott_cohomology
from flopk.chow import SchubertVector, chern_character, dual_chern_character
from flopk.kgroup import (
    IntegerMatrix,
    expand_in_basis,
    flop_matrix,
    line_bundle,
    schur_quot,
    schur_sub,
    schur_sub_dual,
    wedge_tangent,
)
from flopk.partitions import BoxShape, enumerate_box

from oracles import box_complement, ch_expand, weyl_dimension


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 3)])
def test_rank_of_schur_power_matches_weyl_dimension(shape):
    # degree-zero Chern character = rank of the bundle = dimension of the
    # Schur functor applied to a rank-t space
    box = BoxShape(*shape)
    for alpha in enumerate_box(box):
        rank = chern_character(alpha, box).coefficient(())
        padded = tuple(alpha) + (0,) * (box.rows - len(alpha))
        assert rank == weyl_dimension(padded)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_borel_weil_sections_of_dual_schur_powers(shape):
    # sections of Sigma^alpha(sub*) form the irreducible with highest
    # weight alpha padded to length h; cohomology sits in degree zero
    box = BoxShape(*shape)
    for alpha in enumerate_box(box):
        a = tuple(alpha) + (0,) * (box.rows - len(alpha))
        w = Weight(a, (0,) * box.cols)
        result = bott_cohomology(w)
        expected_dim = weyl_dimension(tuple(alpha) + (0,) * (box.h - len(alpha)))
        assert result == BottResult(0, expected_dim)


# every flop box G(t,h) with t <= h/2 and h <= 7
_FLOP_SHAPES = [(t, h - t) for h in range(2, 8) for t in range(1, h // 2 + 1)]


@pytest.mark.parametrize("shape", _FLOP_SHAPES)
def test_flop_matrix_from_twist_route(shape):
    # independent construction of the whole matrix on the character
    # route: dualizing a basis class is the same as complementing in the
    # box and twisting by the box width
    box = BoxShape(*shape)
    columns = []
    for alpha in enumerate_box(box):
        beta = box_complement(box, alpha)
        columns.append(
            ch_expand(schur_sub(beta) * line_bundle(box.cols), box).coords
        )
    assert IntegerMatrix.from_columns(columns) == flop_matrix(box)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2)])
def test_dual_class_chern_character_consistency(shape):
    # the expansion coordinates of a dual Schur power reproduce its Chern
    # character when summed against the basis characters
    box = BoxShape(*shape)
    basis = enumerate_box(box)
    for alpha in basis:
        v = expand_in_basis(schur_sub_dual(alpha), box)
        recomposed = SchubertVector.zero(box)
        for coeff, beta in zip(v.coords, basis):
            recomposed = recomposed + coeff * chern_character(beta, box)
        assert recomposed == dual_chern_character(alpha, box)


def _atom_pool(box):
    """Schur powers of size <= 2 of the subbundle, its dual and the
    quotient, dual Schur powers wider than the box, the first two tangent
    wedges, and O(k) with |k| <= 4."""
    small = [(), (1,), (2,), (1, 1)]
    wide = [(box.cols + 1,), (box.cols + 2, 1)]
    pool = [schur_sub(a) for a in small if len(a) <= box.rows]
    pool += [schur_sub_dual(a) for a in small[1:] + wide if len(a) <= box.rows]
    pool += [schur_quot(a) for a in small[1:] if len(a) <= box.cols]
    pool += [wedge_tangent(1), wedge_tangent(2)]
    pool += [line_bundle(k) for k in range(-4, 5)]
    return pool


# every box G(t,h) with h <= 7 and h - t >= 2, either side of t = h/2
_EXPANSION_SHAPES = [(t, h - t) for h in range(3, 8) for t in range(1, h - 1)]


@pytest.mark.parametrize("shape", _EXPANSION_SHAPES)
def test_expansion_matches_character_route_on_atoms(shape):
    box = BoxShape(*shape)
    for expr in _atom_pool(box):
        assert expand_in_basis(expr, box) == ch_expand(expr, box), expr


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_expansion_matches_character_route_on_pairs(shape):
    box = BoxShape(*shape)
    for a, b in itertools.combinations_with_replacement(_atom_pool(box), 2):
        assert expand_in_basis(a * b, box) == ch_expand(a * b, box), a * b
