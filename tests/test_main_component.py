import random
from math import prod

import pytest

from flopk.kgroup import (
    IntegerMatrix,
    KVector,
    expand_in_basis,
    flop_matrix,
    line_bundle,
    smith_normal_form,
)
from flopk.main_component import (
    image_index,
    koszul_ideal_class,
    line_basis_matrix,
    main_component_matrix,
    to_line_basis,
)
from flopk.partitions import BoxShape, enumerate_box

from oracles import apply

P2 = BoxShape.for_grassmannian(1, 3)


def test_koszul_class_on_plane():
    # -2[O(-1)] + 6[O] - 3[O(1)] in the line-bundle basis
    v = koszul_ideal_class(3)
    assert to_line_basis(v) == (-3, 6, -2)
    expected = (
        -2 * expand_in_basis(line_bundle(-1), P2)
        + 6 * expand_in_basis(line_bundle(0), P2)
        - 3 * expand_in_basis(line_bundle(1), P2)
    )
    assert v == expected


def test_koszul_class_on_line():
    # one-step Koszul on the line: the twisted ideal class is [O(1)]
    box = BoxShape.for_grassmannian(1, 2)
    assert koszul_ideal_class(2) == expand_in_basis(line_bundle(1), box)


def test_koszul_rejects_h_below_2():
    with pytest.raises(ValueError):
        koszul_ideal_class(1)


@pytest.mark.parametrize("h", [3, 4, 5])
def test_koszul_against_euler_sequence_oracle(h):
    # independent route: on projective space the Euler sequence gives
    # lambda_t(Tangent) = (1 + t[O(1)])^h / (1 + t), so
    # [wedge^i Tangent] = sum_j (-1)^(i-j) C(h,j) [O(j)]; assemble the
    # twisted Koszul sum from line bundle classes only
    from math import comb

    box = BoxShape.for_grassmannian(1, h)
    expected = 0 * koszul_ideal_class(h)
    for i in range(1, h):
        for j in range(0, i + 1):
            coeff = (-1) ** (i + 1) * (-1) ** (i - j) * comb(h, j)
            expected = expected + coeff * expand_in_basis(line_bundle(j - 1), box)
    assert koszul_ideal_class(h) == expected


def test_line_basis_matrix_unimodular():
    b = line_basis_matrix(P2)
    assert b.entries == ((3, 1, 0), (-3, 0, 1), (1, 0, 0))
    assert b.det() in (1, -1)
    with pytest.raises(ValueError):
        line_basis_matrix(BoxShape(2, 2))


@pytest.mark.parametrize("h", range(2, 10))
def test_line_basis_coordinates_invert_line_basis_matrix(h):
    box = BoxShape.for_grassmannian(1, h)
    b = line_basis_matrix(box)
    for alpha in enumerate_box(box):
        e = KVector.basis_vector(box, alpha)
        assert apply(b, to_line_basis(e)) == e.coords


def test_line_basis_coordinates_need_projective_space():
    with pytest.raises(ValueError, match="projective"):
        to_line_basis(KVector.basis_vector(BoxShape(2, 2), ()))


def test_main_component_matrix_line_columns():
    m = main_component_matrix("line")
    assert m.column(0) == (1, 0, 0)
    # the trivial bundle is fixed by the correspondence
    assert m.column(1) == (0, 1, 0)
    assert m.column(2) == (-3, 6, -2)


def test_main_component_not_unimodular_but_flop_is():
    m = main_component_matrix("line")
    assert smith_normal_form(m) == (1, 1, 2)
    assert image_index(m) == 2
    for shape in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]:
        assert image_index(flop_matrix(BoxShape(*shape))) == 1


def test_index_is_basis_independent():
    line = main_component_matrix("line")
    canonical = main_component_matrix("canonical")
    assert smith_normal_form(line) == smith_normal_form(canonical) == (1, 1, 2)
    assert image_index(line) == image_index(canonical) == 2


def test_canonical_matrix_linearity():
    # the canonical matrix must act correctly on the canonical basis:
    # [O+] -> [O], [O+(-1)] = [sub+] -> [O(1)]
    m = main_component_matrix("canonical")
    assert apply(m, (1, 0, 0)) == expand_in_basis(line_bundle(0), P2).coords
    assert apply(m, (0, 1, 0)) == expand_in_basis(line_bundle(1), P2).coords


def test_image_index_edge_cases():
    assert image_index(IntegerMatrix.identity(3)) == 1
    assert image_index(IntegerMatrix([[1, 0], [0, 0]])) == "infinite"
    with pytest.raises(ValueError):
        image_index(IntegerMatrix([[1, 0, 0], [0, 1, 0]]))


def test_image_index_is_product_of_invariant_factors():
    # the index comes from the determinant; the Smith form must agree
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = IntegerMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        snf = smith_normal_form(m)
        want = "infinite" if 0 in snf else prod(snf)
        assert image_index(m) == want, m


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        main_component_matrix("other")
