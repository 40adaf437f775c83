import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from flopk import chow, cli, flop, kgroup
from flopk.chow import SchubertVector
from flopk.flop import flop_certificate
from flopk.kgroup import (
    IntegerMatrix,
    KVector,
    TautClass,
    expand_in_basis,
    flop_matrix,
    line_bundle,
    schur_quot,
    schur_sub,
    schur_sub_dual,
    smith_normal_form,
    wedge_tangent,
)
from flopk.partitions import BoxShape, Partition, box_index, enumerate_box, partitions_of

import oracles
from oracles import (
    _complement_indices,
    apply,
    binomial_change,
    box_complement,
    ch_expand,
    column_by_double_sum,
    dense_flop_matrix,
    involution_certificate,
    pieri_twist,
    rational_det,
    schur_twist,
    sorted_straighten,
    straightened_twist,
    twist_flop_matrix,
)

P1 = BoxShape.for_grassmannian(1, 2)   # box(1,1)
P2 = BoxShape.for_grassmannian(1, 3)   # box(1,2)
G24 = BoxShape.for_grassmannian(2, 4)  # box(2,2)

# the full set of boxes the certificates are asserted on
CERTIFICATE_BOXES = [
    BoxShape(1, 1), BoxShape(1, 2), BoxShape(1, 3), BoxShape(1, 4),
    BoxShape(2, 2), BoxShape(2, 3), BoxShape(3, 3), BoxShape(4, 4),
]


# ---------------------------------------------------------------------------
# Expansion of tautological classes
# ---------------------------------------------------------------------------

def test_structure_sheaf_is_unit_vector():
    # every atom at the empty partition or zero, and the empty product
    for expr in (line_bundle(0), schur_sub(()), schur_sub_dual(()), schur_quot(()),
                 wedge_tangent(0), TautClass({(): 1})):
        assert expand_in_basis(expr, G24) == KVector.basis_vector(G24, ()), expr
        assert ch_expand(expr, G24) == KVector.basis_vector(G24, ()), expr


def test_twist_on_plane():
    # on the plane the cube of (1 - [O(-1)]) vanishes, forcing this expansion
    assert expand_in_basis(line_bundle(1), P2).coords == (3, -3, 1)


def test_twisted_tangent_class_on_plane():
    v = expand_in_basis(wedge_tangent(1) * line_bundle(-1), P2)
    assert v == 3 * expand_in_basis(line_bundle(0), P2) - expand_in_basis(line_bundle(-1), P2)


def test_line_bundle_small_cases():
    assert expand_in_basis(line_bundle(0), P1) == KVector.basis_vector(P1, ())
    # O(-1) is the subbundle itself on any projective space
    assert expand_in_basis(line_bundle(-1), P1) == KVector.basis_vector(P1, (1,))
    assert expand_in_basis(line_bundle(-1), P2) == KVector.basis_vector(P2, (1,))
    # (1 - [O(-1)])^2 = 0 on the line
    assert expand_in_basis(line_bundle(1), P1).coords == (2, -1)


def test_line_bundle_tensor_relation():
    # [O(1)] (x) [O(-1)] = [O]
    expr = line_bundle(1) * line_bundle(-1)
    assert expand_in_basis(expr, P2) == expand_in_basis(line_bundle(0), P2)


def test_dual_class_examples():
    assert expand_in_basis(schur_sub_dual(()), P2) == expand_in_basis(line_bundle(0), P2)
    assert expand_in_basis(schur_sub_dual((1,)), P1).coords == (2, -1)
    assert expand_in_basis(schur_sub_dual((1,)), P2).coords == (3, -3, 1)
    assert expand_in_basis(schur_sub_dual((2,)), P2).coords == (6, -8, 3)


def test_wedge_atoms_against_schur():
    # wedge^2 quot = Schur (1,1) of the quotient = det(quot) = O(1) on G(2,4)
    assert expand_in_basis(schur_quot((1, 1)), G24) == expand_in_basis(line_bundle(1), G24)


def test_negative_tangent_wedge_is_zero():
    # like a wedge power above the dimension, on both routes
    for box in (P2, G24):
        zero = KVector(box, (0,) * box.rank)
        for i in (-1, box.dim + 1):
            assert expand_in_basis(wedge_tangent(i), box) == zero
            assert ch_expand(wedge_tangent(i), box) == zero


def test_round_trip_box_2_3():
    box = BoxShape(2, 3)
    for alpha in enumerate_box(box):
        assert expand_in_basis(schur_sub(alpha), box) == KVector.basis_vector(box, alpha)


@pytest.mark.parametrize(
    "alpha, text", [((3,), "Partition((3,))"), ((1, 1, 1), "Partition((1, 1, 1))")], ids=str
)
def test_basis_lookups_refuse_partitions_outside_the_box(alpha, text):
    # the message of the sub atom, not tuple.index's
    for lookup in (lambda: KVector.basis_vector(G24, alpha),
                   lambda: KVector(G24, (0,) * 6).coefficient(alpha)):
        with pytest.raises(ValueError) as exc:
            lookup()
        assert str(exc.value) == f"{text} does not fit in BoxShape(rows=2, cols=2)"


def test_non_integral_expansion_guard():
    # the character-route oracle keeps its own integrality check
    class Broken(TautClass):
        def ch(self, box):
            return Fraction(1, 2) * SchubertVector.schubert(box, (1,))

    with pytest.raises(ArithmeticError, match="non-integer coordinate"):
        ch_expand(Broken(), P2)


# the same inputs the character route rejects, with the same message
@pytest.mark.parametrize(
    "expr, message",
    [
        (schur_sub((3,)), r"Partition\(\(3,\)\) does not fit in"),
        (schur_sub((1, 1, 1)), r"Partition\(\(1, 1, 1\)\) does not fit in"),
        (schur_sub_dual((1, 1, 1)), r"has more than 2 rows"),
        (schur_quot((1, 1, 1)), r"has more than 2 rows"),
        (TautClass({(("bogus", 1),): 1}), r"unknown atom \('bogus', 1\)"),
    ],
    ids=["sub-too-wide", "sub-too-long", "sub-dual-too-long", "quot-too-long", "unknown"],
)
def test_expansion_rejects_like_character_route(expr, message):
    with pytest.raises(ValueError, match=message):
        expand_in_basis(expr, G24)
    with pytest.raises(ValueError, match=message):
        ch_expand(expr, G24)


def _clear_expansion_caches():
    for fn in (kgroup._atom_vector, kgroup._basis_weights, kgroup._straighten, flop._column,
               flop._mask_index):
        fn.cache_clear()


def test_column_closed_form_matches_double_sum():
    # every exponent a straightening or a twist meets on boxes with h <= 13
    for h in range(1, 14):
        for e in range(-30, 40):
            assert flop._column(e, h) == column_by_double_sum(e, h), (e, h)
    # x^-1 = sum_{k<h} (-1)^k C(h, k+1) x^k, as oracles.schur_twist's docstring states
    for h in (924, 5000):
        assert flop._column(-1, h) == tuple((k, (-1) ** k * comb(h, k + 1)) for k in range(h))


def test_expansion_is_integer_only(monkeypatch):
    # no rational, no Schubert vector, no character of an atom and no
    # character-matrix inverse on the expansion route
    expr = (
        schur_sub_dual((2, 1)) * schur_quot((1, 1))
        - 3 * wedge_tangent(2) * line_bundle(-2)
        + line_bundle(3)
    )
    box = BoxShape(2, 3)
    want = ch_expand(expr, box)

    def forbidden(*args, **kwargs):
        raise AssertionError("character route used")

    for name in ("Fraction", "SchubertVector", "ch_matrix_inverse"):
        monkeypatch.setattr(chow, name, forbidden)
    monkeypatch.setattr(chow, "_atom_ch", forbidden)
    monkeypatch.setattr(TautClass, "ch", forbidden)
    _clear_expansion_caches()
    assert expand_in_basis(expr, box) == want


def test_kvector_validation_and_algebra():
    with pytest.raises(ValueError):
        KVector(P2, (1, 0))
    v = expand_in_basis(line_bundle(1), P2)
    assert (v - v).coords == (0, 0, 0)
    assert (2 * v).coords == (6, -6, 2)
    assert v.coefficient(()) == 3
    assert v.as_dict() == {Partition(()): 3, Partition((1,)): -3, Partition((2,)): 1}


# ---------------------------------------------------------------------------
# Duality twist identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (2, 3)])
def test_dual_twist_uniform(shape):
    # Sigma^alpha S* = Sigma^beta S (x) O(c), beta the rotated box
    # complement and c the box width, with one twist for every alpha
    box = BoxShape(*shape)
    for alpha in enumerate_box(box):
        twisted = schur_sub(box_complement(box, alpha)) * line_bundle(box.cols)
        assert expand_in_basis(schur_sub_dual(alpha), box) == expand_in_basis(twisted, box)


def test_dual_twist_is_bijection():
    # the twist relation permutes the basis: the dual classes, as a set,
    # are the twisted basis classes
    box = BoxShape(2, 2)
    duals = {expand_in_basis(schur_sub_dual(alpha), box) for alpha in enumerate_box(box)}
    twisted = {
        expand_in_basis(schur_sub(beta) * line_bundle(box.cols), box)
        for beta in enumerate_box(box)
    }
    assert duals == twisted and len(duals) == box.rank


# ---------------------------------------------------------------------------
# Flop matrices
# ---------------------------------------------------------------------------

def test_flop_matrix_box11():
    assert flop_matrix(BoxShape(1, 1)).entries == ((1, 2), (0, -1))


def test_flop_matrix_box12_columns():
    m = flop_matrix(BoxShape(1, 2))
    assert m.column(0) == (1, 0, 0)
    assert m.column(1) == (3, -3, 1)
    assert m.column(2) == (6, -8, 3)


@pytest.mark.parametrize("box", CERTIFICATE_BOXES, ids=str)
def test_binomial_change_inverse(box):
    d, d_inv = binomial_change(box)
    n = box.rank
    assert d @ d_inv == IntegerMatrix.identity(n)
    # unitriangular in the canonical order
    assert all(d.entries[i][i] == 1 for i in range(n))
    assert all(d.entries[i][j] == 0 for i in range(n) for j in range(i))


def test_binomial_change_small_cases():
    # on the plane s_2(1 + z) = (1 + z)^2, and s_2(x - 1) = (x - 1)^2
    d, d_inv = binomial_change(P2)
    assert d.column(2) == (1, 2, 1)
    assert d_inv.column(2) == (1, -2, 1)
    # on G(2,4), basis -, 1, 2, (1,1), (2,1), (2,2):
    # h_2(1 + z) = 3 + 3 s_1 + s_2 and e_2(1 + z) = 1 + s_1 + s_11
    d, _ = binomial_change(G24)
    assert d.column(2) == (3, 3, 1, 0, 0, 0)
    assert d.column(3) == (1, 1, 0, 1, 0, 0)


@pytest.mark.parametrize("bad", [1.5, True, "2", Fraction(2)], ids=repr)
def test_kvector_rejects_non_int_coordinates(bad):
    with pytest.raises(TypeError):
        KVector(P2, (1, bad, 0))


def test_scaling_rejects_non_int_factors():
    with pytest.raises(TypeError):
        2.5 * expand_in_basis(line_bundle(1), P2)
    with pytest.raises(TypeError):
        schur_sub((1,)) * 2.5
    with pytest.raises(TypeError):
        2.5 * schur_sub((1,))


@pytest.mark.parametrize("bad", [1.5, -2.0, True, "2"], ids=repr)
def test_line_bundle_rejects_non_int_degree(bad):
    # -2.0 would straighten to the class of O(-2) if it were let through
    with pytest.raises(TypeError):
        expand_in_basis(line_bundle(bad), G24)


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "1"], ids=repr)
def test_tangent_wedge_rejects_non_int_degree(bad):
    # True would count as 1 and expand to the class of the tangent bundle
    with pytest.raises(TypeError, match="tangent wedge degree must be int"):
        expand_in_basis(wedge_tangent(bad), G24)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_pieri_twist_is_line_bundle(shape):
    # D^-1 T D applied to [O] is [O(1)], expanded on the character route
    box = BoxShape(*shape)
    d, d_inv = binomial_change(box)
    o = KVector.basis_vector(box, ())
    assert apply(d_inv @ pieri_twist(box) @ d, o.coords) == ch_expand(line_bundle(1), box).coords


def test_flop_matrix_route_is_integer_only(monkeypatch, capsys):
    # the flop matrix and its certificate need no Chern character, no
    # rational, no Littlewood-Richardson coefficient and no elimination,
    # and the package has no change of basis to the s_mu(z)
    def forbidden(*args, **kwargs):
        raise AssertionError("forbidden route used")

    for name in ("Fraction", "SchubertVector", "chern_character", "dual_chern_character",
                 "line_chern_character", "quot_chern_character", "ch_matrix_inverse",
                 "lr_coefficients", "_atom_ch"):
        monkeypatch.setattr(chow, name, forbidden)
    assert not hasattr(kgroup, "binomial_change")
    for name in ("lr_coefficients", "smith_normal_form"):
        monkeypatch.setattr(kgroup, name, forbidden)
    monkeypatch.setattr(IntegerMatrix, "det", forbidden)
    flop._column.cache_clear()
    assert cli.main(["flop-matrix", "--t", "2", "--h", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det"] == "1"
    assert payload["snf"] == ["1"] * 6
    m = IntegerMatrix([[int(x) for x in row] for row in payload["matrix"]])
    assert m @ m == IntegerMatrix.identity(m.rows)


# every flop box G(t,h), t <= h/2, with h <= 11: G(5,11) has K-rank 462
FLOP_BOXES = [BoxShape.for_grassmannian(t, h) for h in range(2, 12) for t in range(1, h // 2 + 1)]


def _dense(columns, n):
    rows = [[0] * n for _ in range(n)]
    for j, column in enumerate(columns):
        for i, u in column:
            rows[i][j] = u
    return IntegerMatrix(rows)


@pytest.mark.parametrize(
    "box", [BoxShape.for_grassmannian(t, h) for h in range(2, 10) for t in range(1, h)], ids=str
)
def test_schur_twist_is_conjugated_pieri_twist(box):
    # the straightened twist is D^-1 . T . D, with c + 1 terms in every column
    # whose last part is 0 and a single unit elsewhere
    twist = schur_twist(box)
    d, d_inv = binomial_change(box)
    assert _dense(twist, box.rank) == d_inv @ pieri_twist(box) @ d
    for lam, column in zip(enumerate_box(box), twist):
        assert len(column) == (1 if lam.rows == box.rows else box.cols + 1)


@pytest.mark.parametrize(
    "box", [BoxShape.for_grassmannian(t, h) for h in range(2, 9) for t in range(1, h)], ids=str
)
def test_pieri_oracle_is_product_with_line_bundle(box):
    # the horizontal-strip T, conjugated by D, against the products with
    # [O(1)] that expansion forms, column by column; the products with
    # [O(-1)] undo them
    plus, minus = (
        IntegerMatrix.from_columns(
            [expand_in_basis(schur_sub(lam) * line_bundle(k), box).coords
             for lam in enumerate_box(box)]
        )
        for k in (1, -1)
    )
    d, d_inv = binomial_change(box)
    assert plus == d_inv @ pieri_twist(box) @ d
    assert minus @ plus == IntegerMatrix.identity(box.rank)


G48 = BoxShape.for_grassmannian(4, 8)


def _forbid_lr(monkeypatch):
    # a single atom is straightened: it needs no Littlewood-Richardson
    # coefficient at all
    def forbidden(*args, **kwargs):
        raise AssertionError("Littlewood-Richardson coefficient used")

    monkeypatch.setattr(kgroup, "lr_coefficients", forbidden)
    _clear_expansion_caches()


def test_line_bundle_twists_build_no_product_table(monkeypatch):
    # O(3) and O(-3) are straightened weights, checked against the dense
    # Pieri twist T: D^-1 T^3 e_0 is [O(3)], and T^3 D sends [O(-3)] back
    # to e_0
    _forbid_lr(monkeypatch)
    plus, minus = expand_in_basis(line_bundle(3), G48), expand_in_basis(line_bundle(-3), G48)
    d, d_inv = binomial_change(G48)
    t = pieri_twist(G48)
    cube = t @ t @ t
    unit = KVector.basis_vector(G48, ()).coords
    assert plus.coords == apply(d_inv @ cube, unit)
    assert apply(cube @ d, minus.coords) == unit


def test_dual_class_builds_no_product_table(monkeypatch):
    _forbid_lr(monkeypatch)
    alpha = Partition((2, 1))
    column = enumerate_box(G48).index(alpha)
    dual = expand_in_basis(schur_sub_dual(alpha), G48)
    assert dual.coords == dense_flop_matrix(G48).column(column)


@pytest.mark.parametrize("box", [BoxShape.for_grassmannian(t, h)
                                 for t, h in ((1, 4), (2, 5), (3, 6), (4, 8))], ids=str)
def test_products_are_reduced_into_the_box(box):
    # every product is straightened at once: each weight _multiply returns
    # is a basis partition padded to t parts, also for factors far outside
    # the box and for a product of two products
    t, c = box.rows, box.cols
    basis = {tuple(p) + (0,) * (t - p.rows) for p in enumerate_box(box)}
    atoms = [("sub", (c,) * t), ("sub*", (c,) * t), ("sub*", (2 * c + 1,)), ("quot", (1,)),
             ("quot", (2,)), ("line", box.h + 2), ("line", -2 * box.h), ("tangent_wedge", 2)]
    factors = [kgroup._atom_vector(atom, box) for atom in atoms]
    assert any(not {w for w, _ in u} <= basis for u in factors)
    products = [kgroup._multiply(u, v, box) for u in factors for v in factors]
    products += [kgroup._multiply(u, v, box) for u, v in zip(products, reversed(products))]
    assert any(len(product) > 1 for product in products)
    for product in products:
        weights = [w for w, _ in product]
        assert set(weights) <= basis and len(set(weights)) == len(weights)
        assert all(x for _, x in product)


@pytest.mark.parametrize("box", [b for b in FLOP_BOXES if b.h <= 8], ids=str)
def test_flop_matrix_matches_dense_route(box):
    assert flop_matrix(box) == dense_flop_matrix(box)


# every flop box with h <= 12, and projective spaces up to G(1,200), where
# the twist route takes about 1.6 s (h^3 big-integer steps)
TWIST_ROUTE_BOXES = FLOP_BOXES + [BoxShape.for_grassmannian(t, 12) for t in range(1, 7)] + [
    BoxShape.for_grassmannian(1, h) for h in (20, 50, 100, 200)
]


@pytest.mark.parametrize("box", TWIST_ROUTE_BOXES, ids=str)
def test_flop_matrix_matches_twist_route(box):
    # the compound of M against U^c . Pi, U applied c times to each column
    # of Pi on its own
    assert flop_matrix(box) == twist_flop_matrix(box)


@pytest.mark.parametrize("box", [b for b in FLOP_BOXES if b.h <= 8], ids=str)
def test_flop_matrix_entries_are_minors(box):
    # F[I, J] = eps det M[I, J] over the exponent sets I and J, rows and
    # columns increasing, by Bareiss; column k of M is x^(t-1-k) by the
    # double-sum oracle, and eps = (-1)^(t(t-1)/2)
    t, h = box.rows, box.h
    m = [[0] * h for _ in range(h)]
    for k in range(h):
        for i, a in column_by_double_sum(t - 1 - k, h):
            m[i][k] = a
    eps = (-1) ** (t * (t - 1) // 2)
    sets = [sorted(exps) for exps in box_index(box)]
    f = flop_matrix(box)
    for row, rows in zip(f.entries, sets):
        for x, cols in zip(row, sets):
            assert x == eps * IntegerMatrix([[m[i][k] for k in cols] for i in rows]).det()


@pytest.mark.parametrize("h", [*range(2, 41), 120])
def test_flop_matrix_on_projective_space(h):
    # on G(1,h), c = h - 1 and column b of F is [Sigma^b sub*] = x^-b
    # reduced modulo (x - 1)^h, here by the double-sum oracle
    m = flop_matrix(BoxShape.for_grassmannian(1, h))
    for b in range(h):
        assert tuple((i, x) for i, x in enumerate(m.column(b)) if x) == column_by_double_sum(-b, h)


# every flop box with h <= 9
SMALL_FLOP_BOXES = [b for b in FLOP_BOXES if b.h <= 9]


@pytest.mark.parametrize("box", SMALL_FLOP_BOXES, ids=str)
def test_schur_twist_never_straightens(box, monkeypatch):
    # every column is in closed form: a shift to lam - 1^t when lam_t >= 1,
    # else the c + 1 terms of x^-1 wedged into the other exponents
    def forbidden(*args):
        raise AssertionError("column straightened")

    for fn in (schur_twist, box_index, flop._column):
        fn.cache_clear()
    monkeypatch.setattr(kgroup, "_straighten", forbidden)
    monkeypatch.setattr(oracles, "_straighten", forbidden)
    assert len(schur_twist(box)) == box.rank


@pytest.mark.parametrize(
    "box",
    SMALL_FLOP_BOXES
    + [BoxShape.for_grassmannian(t, h) for t, h in ((6, 12), (8, 16), (3, 60), (1, 2000))],
    ids=str,
)
def test_schur_twist_matches_straightened_columns(box):
    assert schur_twist(box) == straightened_twist(box)


@pytest.mark.parametrize(
    "box",
    [BoxShape.for_grassmannian(t, h) for h in range(2, 13) for t in range(1, h)]
    + [BoxShape.for_grassmannian(9, 18)],
    ids=str,
)
def test_exponent_index_is_canonical_order(box):
    # the order by size, then lex descending, as partitions_of grades it
    t = box.rows
    graded = [lam for n in range(box.dim + 1) for lam in partitions_of(n, t, box.cols)]
    assert list(enumerate_box(box)) == graded
    assert list(box_index(box)) == [
        tuple(p + t - 1 - i for i, p in enumerate(kgroup._padded(lam, t))) for lam in graded
    ]
    assert list(box_index(box).values()) == list(range(box.rank))


@pytest.mark.parametrize("box", SMALL_FLOP_BOXES, ids=str)
def test_flop_rows_form_each_column_of_m_once(box, monkeypatch):
    # M's wide columns x^-1, x^-2, ... are drawn once each from one chain of
    # shifts, and x^-1 is the only power reduced modulo (x - 1)^h: reducing
    # every column x^(t-1-k) afresh made G(1,924) about 1.5 times slower
    drawn, reduced = [], []
    powers, column = flop._inverse_powers, flop._column.__wrapped__

    def counted_powers(h):
        for power in powers(h):
            drawn.append(power)
            yield power

    def counted_column(e, h):
        reduced.append(e)
        return column(e, h)

    monkeypatch.setattr(flop, "_inverse_powers", counted_powers)
    monkeypatch.setattr(flop, "_column", counted_column)
    flop._flop_rows(box)
    assert reduced == [-1]
    assert len(drawn) == (box.h - 1 if box.rows == 1 else box.cols)


@pytest.mark.parametrize("t, h", [(2, 4), (3, 6), (2, 7), (4, 8)])
def test_straightening_and_flop_rows_share_one_wedge(t, h, monkeypatch):
    # one wedge step and one sign rule for wedge^t R: _straighten wedges
    # each column of a weight, and _flop_rows each column of M but a wide
    # last column, which it spreads over the rows of F instead
    box = BoxShape.for_grassmannian(t, h)
    weight = tuple(range(t - 1, -t - 1, -2))  # a unit column, then a wide one at the last
    want = (sorted_straighten(weight, box), flop._flop_rows(box))
    calls, wedge = [], flop._wedge

    def counted(terms, column):
        calls.append(len(column))
        return wedge(terms, column)

    monkeypatch.setattr(flop, "_wedge", counted)
    assert kgroup._straighten.__wrapped__(weight, box) == want[0]
    assert len(calls) == t
    calls.clear()
    assert flop._flop_rows(box) == want[1]
    # a call per prefix of columns that can still be completed, and per
    # full set of columns whose last is a unit vector, x^(t-1-j) for j < t
    prefixes = sum(1 for d in range(1, t) for s in combinations(range(h), d) if s[0] >= t - d)
    assert len(calls) == prefixes + sum(1 for s in combinations(range(h), t) if s[0] < t)
    assert set(calls) == {1, h}


def _complement_sign(box: BoxShape) -> int:
    # the box complement is an involution: one transposition per 2-cycle
    basis = enumerate_box(box)
    moved = sum(1 for alpha in basis if box_complement(box, alpha) != alpha)
    return (-1) ** (moved // 2)


@pytest.mark.parametrize("box", FLOP_BOXES, ids=str)
def test_flop_determinant_routes_agree(box):
    # D and the Pieri twist are unitriangular, so det F = sign(Pi); the
    # certificate reads det off the trace of the involution, and Bareiss
    # elimination is the third route wherever it runs in about a second
    det, snf = flop_certificate(box)
    assert det == _complement_sign(box)
    assert snf == (1,) * box.rank
    if box.rank <= 252:
        assert flop_matrix(box).det() == det


def _rejected_at(box, perturb) -> str:
    # the certificate's refusal once x^-1, the one wide column of U_1 . P_1,
    # is replaced by perturb(x^-1) as a list of coefficients
    inverse = [a for _, a in flop._column(-1, box.h)]
    perturbed = tuple(enumerate(perturb(inverse)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flop, "_column", lambda e, h: perturbed)
        with pytest.raises(flop.CertificateError) as exc:
            flop_certificate(box)
    return str(exc.value)


def _bumped(k, delta):
    def perturb(column):
        column[k] += delta
        return column
    return perturb


def test_certificate_rejects_perturbed_twist():
    # on G(2,5), h = 5: x^-1 = 5 - 10x + 10x^2 - 5x^3 + x^4, and G = U_1 . P_1
    # sends x^4 to it; G applied to x^-1 takes its x^4 term back through
    # x^-1 itself, so a wrong top coefficient, or x^-1 negated, is refused
    box = BoxShape(2, 3)
    assert flop._column(-1, box.h) == ((0, 5), (1, -10), (2, 10), (3, -5), (4, 1))
    refused = "flop matrix of BoxShape(rows=2, cols=3) is not an involution at column x^4"
    for perturb in (_bumped(4, 1), _bumped(4, -2), lambda column: [-a for a in column]):
        assert _rejected_at(box, perturb) == refused


def test_certificate_rejects_perturbed_single_term_columns():
    # G's other columns are single terms, x^k -> x^(h-2-k); applying G to
    # x^-1 reads every one of them, so a unit added to any coefficient of
    # x^-1 below the top shows at x^(h-2-k) of G . G x^4, and is refused
    box = BoxShape(2, 3)
    refused = "flop matrix of BoxShape(rows=2, cols=3) is not an involution at column x^4"
    for k in range(box.h - 1):
        for delta in (1, -1):
            assert _rejected_at(box, _bumped(k, delta)) == refused


@pytest.mark.parametrize("box", [b for b in FLOP_BOXES if b.h <= 8], ids=str)
def test_certificate_refuses_negated_twist(monkeypatch, box):
    # with x^-1 negated, G . G x^(h-1) = x^(h-1) - 2 sum_{k<h-1} c_k x^(h-2-k)
    # over the coefficients c_k of x^-1, none of them 0; the F built from
    # the negated column is no involution either: on G(1,3) it has det -1
    inverse = tuple((i, -a) for i, a in flop._column(-1, box.h))
    monkeypatch.setattr(flop, "_column", lambda e, h: inverse)
    refused = f"not an involution at column x\\^{box.h - 1}$"
    with pytest.raises(flop.CertificateError, match=refused):
        flop_certificate(box)
    if box == BoxShape(1, 2):
        built = IntegerMatrix(flop._flop_rows(box))
        assert built.det() == -1
        assert built @ built != IntegerMatrix.identity(box.rank)


def test_complement_indices_match_box_complement():
    # the runtime complements exponent tuples; the oracle rotates parts
    for box in FLOP_BOXES:
        basis = enumerate_box(box)
        index = {p: i for i, p in enumerate(basis)}
        assert _complement_indices(box) == tuple(
            index[box_complement(box, alpha)] for alpha in basis
        )


def test_certificate_rejects_perturbed_matrix():
    # flop_certificate never reads F, so the F . F = I oracle is the check
    # that catches a wrong entry of F
    box = BoxShape(2, 3)
    rows = [list(row) for row in flop_matrix(box).entries]
    rows[3][4] += 1
    with pytest.raises(ArithmeticError, match="not an involution"):
        involution_certificate(IntegerMatrix(rows), box)


@pytest.mark.parametrize("box", FLOP_BOXES + [BoxShape.for_grassmannian(6, 12)], ids=str)
def test_certificate_matches_involution_oracle(box):
    # U . Pi as an involution, against U^c . Pi applied to every column of F
    assert flop_certificate(box) == involution_certificate(flop_matrix(box), box)


@pytest.mark.parametrize(
    "box",
    [BoxShape.for_grassmannian(t, h) for h in range(2, 12) for t in range(1, h) if comb(h, t) <= 130],
    ids=str,
)
def test_twist_determinant_is_one(box):
    # det U = 1 by Bareiss, odd c included, and as the certificate reads
    # it: det G . det Pi, with det G = (-1)^((n - tr G) / 2) for the
    # involution G = U . Pi, whose Bareiss det agrees
    n = box.rank
    twist = schur_twist(box)
    complement = _complement_indices(box)
    trace = sum(u for j, beta in enumerate(complement) for i, u in twist[beta] if i == j)
    det_g = (-1) ** ((n - trace) // 2)
    assert _dense(twist, n).det() == 1
    assert _dense([twist[beta] for beta in complement], n).det() == det_g
    assert det_g * _complement_sign(box) == 1


@pytest.mark.parametrize("box", CERTIFICATE_BOXES, ids=str)
def test_flop_matrix_certificates(box):
    m = flop_matrix(box)
    assert m.rows == m.cols == box.rank
    assert m.det() in (1, -1)
    assert m @ m == IntegerMatrix.identity(box.rank)


# ---------------------------------------------------------------------------
# Integer matrices: determinant and Smith form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [1.5, True, "2", Fraction(2)], ids=repr)
def test_integer_matrix_rejects_non_int_entries(bad):
    with pytest.raises(TypeError):
        IntegerMatrix([[1, bad], [0, 1]])
    with pytest.raises(TypeError):
        IntegerMatrix.from_columns([[1, bad], [0, 1]])


@pytest.mark.parametrize("columns", [[], [[]], [[1, 2], [3]], [[1], [2, 3]]], ids=str)
def test_from_columns_rejects_non_rectangular_input(columns):
    # the constructor's message, not an IndexError, and no truncation
    with pytest.raises(ValueError, match="^entries must be a non-empty rectangular array$"):
        IntegerMatrix.from_columns(columns)


def test_from_columns_transposes():
    assert IntegerMatrix.from_columns([[1, 2, 3], [4, 5, 6]]) == IntegerMatrix(
        [[1, 4], [2, 5], [3, 6]]
    )


def test_is_unimodular_examples():
    assert IntegerMatrix.identity(4).det() in (1, -1)
    assert IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]).det() not in (1, -1)
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2, 3], [4, 5, 6]]).det()


def test_determinant_against_rational_elimination():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert m.det() == rational_det(m.entries)


def test_snf_examples():
    assert smith_normal_form(IntegerMatrix.identity(3)) == (1, 1, 1)
    assert smith_normal_form(IntegerMatrix([[2]])) == (2,)
    assert smith_normal_form(IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == (1, 1, 2)


def test_snf_rectangular_and_rank_deficient():
    assert smith_normal_form(IntegerMatrix([[0, 0], [0, 0]])) == (0, 0)
    assert smith_normal_form(IntegerMatrix([[2, 4], [4, 8]])) == (2, 0)
    assert smith_normal_form(IntegerMatrix([[1, 2, 3]])) == (1,)
    assert smith_normal_form(IntegerMatrix([[2, 0], [0, 3], [0, 0]])) == (1, 6)
    # pivoting on each Euclid remainder grew these 10-bit entries past a
    # million bits before the form was reached
    wide = [
        [-265, -828, -171, -895, -859], [-702, 978, -141, 698, -403],
        [558, -616, -417, -397, 630], [-302, 158, 558, -330, 648],
        [-151, 627, 535, 156, -71], [-912, 968, 693, -737, 609],
    ]
    assert smith_normal_form(IntegerMatrix(wide)) == (1, 1, 1, 1, 1)


def test_snf_properties_random():
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = IntegerMatrix(
            [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(m)
        assert len(snf) == min(rows, cols)
        nonzero = [d for d in snf if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # zeros, if any, come last
        assert list(snf) == nonzero + [0] * (len(snf) - len(nonzero))
        if rows == cols:
            prod = 1
            for d in snf:
                prod *= d
            assert prod == abs(m.det())


def test_snf_invariance_under_unimodular_change():
    rng = random.Random(5)
    m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
    u = flop_matrix(BoxShape(1, 3))  # a handy 4x4 unimodular matrix
    assert smith_normal_form(m) == smith_normal_form(u @ m)
    assert smith_normal_form(m) == smith_normal_form(m @ u)
