import copy
import itertools
import pickle
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flopk.bott import Weight
from flopk.chow import centralizer_order, sn_character
from flopk.flopgeom import prime_modulus, springer_fiber
from flopk.kgroup import IntegerMatrix, KVector, expand_in_basis, line_bundle, wedge_tangent
from flopk.main_component import koszul_ideal_class
from flopk.partitions import (
    BoxShape,
    Partition,
    Record,
    enumerate_box,
    lr_coefficients,
    partitions_of,
)
from flopk.weyl import Permutation, duality_permutation, duality_word

from oracles import box_complement


def P(*parts):
    return Partition(parts)


# ---------------------------------------------------------------------------
# Partition basics
# ---------------------------------------------------------------------------

def test_partition_validation():
    assert Partition((3, 1, 0, 0)) == P(3, 1)
    assert Partition(()) == P()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition((2, 0, 1))


@pytest.mark.parametrize(
    "parts", [(2.7, True), (True,), (2, 1.0), (2, 0.0), ("1",), (3, Fraction(1))], ids=repr
)
def test_partition_rejects_non_int_parts(parts):
    # a non-int part is an error, never truncated to an int
    with pytest.raises(TypeError):
        Partition(parts)


def test_partition_stats():
    assert P().size == 0 and P().rows == 0 and P().cols == 0
    p = P(4, 2, 1)
    assert (p.size, p.rows, p.cols) == (7, 3, 4)


def test_text_round_trip():
    assert P(2, 1).text() == "2,1"
    assert P().text() == "-"
    assert P(5, 5, 2, 0).text() == "5,5,2"


def _transpose_by_cells(p):
    cells = {(r, c) for r, part in enumerate(p) for c in range(part)}
    flipped = {(c, r) for (r, c) in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return Partition(rows[r] for r in sorted(rows))


@pytest.mark.parametrize(
    "p,expected",
    [(P(), P()), (P(2, 1), P(2, 1)), (P(3, 1), P(2, 1, 1))],
)
def test_conjugate_examples(p, expected):
    assert p.conjugate() == expected


def test_conjugate_matches_cell_transpose():
    for n in range(0, 9):
        for p in partitions_of(n):
            assert p.conjugate() == _transpose_by_cells(p)


def test_no_partitions_of_negative_numbers():
    for n in (-1, -3):
        assert list(partitions_of(n)) == []
        assert list(partitions_of(n, 1, 2)) == []
        assert list(partitions_of(n, 3, 3)) == []


def test_conjugate_involution_up_to_12():
    for n in range(0, 13):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=8))
def test_conjugate_involution_hypothesis(parts):
    p = Partition(sorted(parts, reverse=True))
    assert p.conjugate().conjugate() == p


# ---------------------------------------------------------------------------
# Box enumeration
# ---------------------------------------------------------------------------

def test_enumerate_box_examples():
    assert [p.text() for p in enumerate_box(BoxShape(1, 1))] == ["-", "1"]
    assert [tuple(p) for p in enumerate_box(BoxShape(2, 2))] == [
        (), (1,), (2,), (1, 1), (2, 1), (2, 2),
    ]
    assert len(enumerate_box(BoxShape(2, 3))) == 10


def test_enumerate_box_counts():
    for t in range(1, 7):
        for w in range(1, 7):
            assert len(enumerate_box(BoxShape(t, w))) == comb(t + w, t)


def test_enumerate_box_order_graded_then_lex_descending():
    for box in [BoxShape(2, 3), BoxShape(3, 3)]:
        basis = enumerate_box(box)
        keys = [(p.size, tuple(-x for x in p)) for p in basis]
        assert keys == sorted(keys)
        assert all(p.fits(box) for p in basis)


def test_box_complement():
    box = BoxShape(2, 3)
    assert box_complement(box, P()) == P(3, 3)
    assert box_complement(box, P(3, 3)) == P()
    assert box_complement(box, P(2)) == P(3, 1)
    for p in enumerate_box(box):
        assert box_complement(box, box_complement(box, p)) == p


def test_box_validation():
    with pytest.raises(ValueError):
        BoxShape(0, 3)
    with pytest.raises(ValueError):
        BoxShape.for_grassmannian(3, 3)


@pytest.mark.parametrize("sides", [(2.5, 2), (2, 2.0), (True, 2), (2, "3")], ids=repr)
def test_box_rejects_non_int_sides(sides):
    with pytest.raises(TypeError):
        BoxShape(*sides)


def test_grassmannian_rejects_non_int_rank():
    with pytest.raises(TypeError):
        BoxShape.for_grassmannian(2.5, 5)


# ---------------------------------------------------------------------------
# Immutable values on partitions.Record
# ---------------------------------------------------------------------------

# each value, its fields, and the repr the frozen dataclasses these replace printed
VALUES = [
    (BoxShape(2, 3), (2, 3), "BoxShape(rows=2, cols=3)"),
    (
        KVector(BoxShape(1, 2), (1, -2, 0)),
        (BoxShape(1, 2), (1, -2, 0)),
        "KVector(box=BoxShape(rows=1, cols=2), coords=(1, -2, 0))",
    ),
    (Weight((0, -1), (3,)), ((0, -1), (3,)), "Weight(a=(0, -1), b=(3,))"),
]
VALUE_IDS = [type(value).__name__ for value, _, _ in VALUES]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
def test_record_repr_equality_and_hash(value, fields, text):
    assert repr(value) == text
    assert value == type(value)(*fields)
    # hashed as its fields, yet a separate key from them in a cache
    assert value != fields and fields != value
    assert hash(value) == hash(fields) and len({value: 0, fields: 1}) == 2


@pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
def test_record_fields_are_read_only(value, fields, text):
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[1])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
def test_record_copies_and_pickles(value, fields, text):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_record_refuses_fewer_than_two_fields():
    # its fields' tuple is read by one attrgetter, which returns a bare
    # value for a single name
    for slots in [(), ("x",)]:
        with pytest.raises(TypeError, match="a Record needs two or more fields"):
            type("One", (Record,), {"__slots__": slots})


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients
# ---------------------------------------------------------------------------

def test_lr_examples():
    assert lr_coefficients(P(1), P(1)) == {P(2): 1, P(1, 1): 1}
    lam = P(3, 1)
    assert lr_coefficients(lam, P()) == {lam: 1}
    assert lr_coefficients(P(2), P(1, 1), BoxShape(2, 2)) == {}


def test_lr_grading():
    for lam, mu in itertools.product(list(partitions_of(3)), list(partitions_of(2))):
        for nu in lr_coefficients(lam, mu):
            assert nu.size == lam.size + mu.size


def test_lr_symmetry_small():
    shapes = [p for n in range(0, 5) for p in partitions_of(n)]
    for lam, mu in itertools.product(shapes, repeat=2):
        assert lr_coefficients(lam, mu) == lr_coefficients(mu, lam)


def test_lr_known_multiplicity_two():
    # the classic first multiplicity: c^{(3,2,1)}_{(2,1),(2,1)} = 2
    assert lr_coefficients(P(2, 1), P(2, 1))[P(3, 2, 1)] == 2


# Independent oracle: multiply Schur polynomials in the monomial basis and
# decompose by leading terms.  This shares no code or combinatorial rule
# with the tableau counter in the package.

def _ssyt_monomials(shape, nvars):
    out = {}

    def fill(r, c, prev_row, row, counts):
        if r == len(shape):
            key = tuple(counts)
            out[key] = out.get(key, 0) + 1
            return
        if c == shape[r]:
            fill(r + 1, 0, row, [], counts)
            return
        lo = row[-1] if row else 1
        if prev_row and c < len(prev_row):
            lo = max(lo, prev_row[c] + 1)
        for v in range(lo, nvars + 1):
            counts[v - 1] += 1
            row.append(v)
            fill(r, c + 1, prev_row, row, counts)
            row.pop()
            counts[v - 1] -= 1

    fill(0, 0, [], [], [0] * nvars)
    return out


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _schur_decompose(poly, nvars):
    poly = dict(poly)
    result = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        nu = Partition(lead)
        result[nu] = coeff
        snu = _ssyt_monomials(tuple(nu), nvars)
        for e, c in snu.items():
            poly[e] = poly.get(e, 0) - coeff * c
            if poly[e] == 0:
                del poly[e]
    return result


@pytest.mark.parametrize("n1,n2", [(a, b) for a in range(0, 4) for b in range(0, 7 - a)])
def test_lr_against_polynomial_oracle(n1, n2):
    nvars = max(n1 + n2, 1)
    for lam in partitions_of(n1):
        for mu in partitions_of(n2):
            product = _poly_mul(
                _ssyt_monomials(tuple(lam), nvars), _ssyt_monomials(tuple(mu), nvars)
            )
            expected = _schur_decompose(product, nvars)
            assert lr_coefficients(lam, mu) == expected


# ---------------------------------------------------------------------------
# Symmetric-group characters
# ---------------------------------------------------------------------------

def _frobenius_character(lam, rho):
    """chi^lam(rho) as the coefficient of x^(lam+delta) in a_delta * p_rho,
    expanding the alternant as a signed sum over all permutations."""
    n = lam.size
    delta = tuple(range(n - 1, -1, -1))
    target = tuple(l + d for l, d in zip(tuple(lam) + (0,) * (n - len(lam)), delta))
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # parity via cycle count
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        exps = {tuple(delta[perm[i]] for i in range(n)): sign}
        for part in rho:
            new = {}
            for e, c in exps.items():
                for i in range(n):
                    e2 = list(e)
                    e2[i] += part
                    e2 = tuple(e2)
                    new[e2] = new.get(e2, 0) + c
            exps = new
        total += exps.get(target, 0)
    return total


def test_characters_against_frobenius_formula():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                assert sn_character(lam, rho) == _frobenius_character(lam, rho), (lam, rho)


def test_character_column_orthogonality():
    # sum_lam chi^lam(rho)^2 = z_rho at every cycle type
    for n in range(1, 8):
        for rho in partitions_of(n):
            total = sum(sn_character(lam, rho) ** 2 for lam in partitions_of(n))
            assert total == centralizer_order(rho)


def test_character_dimensions_hook_length():
    for n in range(1, 8):
        for lam in partitions_of(n):
            conj = lam.conjugate()
            hooks = 1
            for i, part in enumerate(lam):
                for j in range(part):
                    hooks *= part - j + conj[j] - i - 1
            assert sn_character(lam, Partition((1,) * n)) == factorial(n) // hooks


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=6))
def test_character_sign_representation(n):
    sign_rep = Partition((1,) * n)
    for rho in partitions_of(n):
        expected = (-1) ** (n - len(rho))
        assert sn_character(sign_rep, rho) == expected


# every strict-integer check of the package, each a call of require_ints:
# a call that puts one bad value in, and the subject its TypeError names
_INT_CHECKS = {
    "Partition": (lambda x: Partition((3, x)), "parts"),
    "BoxShape": (lambda x: BoxShape(2, x), "box sides"),
    "KVector": (lambda x: KVector(BoxShape(1, 1), (0, x)), "coordinates"),
    # the first bad entry in row order is named, not "later" in column order
    "IntegerMatrix": (lambda x: IntegerMatrix([[1, x], ["later", 1]]), "entries"),
    "KVector scalar": (lambda x: x * KVector(BoxShape(1, 1), (0, 1)), "scalar"),
    "TautClass scalar": (lambda x: x * line_bundle(1), "scalar"),
    "line_bundle": (line_bundle, "line bundle degree"),
    "wedge_tangent": (wedge_tangent, "tangent wedge degree"),
    "Weight": (lambda x: Weight((1, x), (0,)), "weight entries"),
    "Permutation": (lambda x: Permutation((1, x)), "permutation entries"),
    "springer_fiber": (lambda x: springer_fiber(2, 6, x), "t, h and i"),
    "prime_modulus": (prime_modulus, "the modulus"),
    "partitions_of": (lambda x: partitions_of(4, 2, x), "n, max_rows and max_part"),
    "koszul_ideal_class": (koszul_ideal_class, "h"),
    "duality_permutation": (duality_permutation, "h"),
    "duality_word": (duality_word, "h"),
}


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("site", sorted(_INT_CHECKS))
def test_every_int_check_names_the_bad_value(site, bad):
    call, what = _INT_CHECKS[site]
    with pytest.raises(TypeError) as info:
        call(bad)
    assert str(info.value) == f"{what} must be int, got {bad!r}"


def test_int_check_comes_before_sign_and_order():
    with pytest.raises(TypeError, match=r"^parts must be int, got 2\.5$"):
        Partition((-1, 2.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: springer_fiber(2.5, 6, 0),
        lambda: springer_fiber(True, 4, True),
        lambda: prime_modulus(7.0),
        lambda: partitions_of(True),
        lambda: partitions_of(3, True),
        lambda: partitions_of(3, None, 2.0),
        lambda: koszul_ideal_class(True),
        lambda: koszul_ideal_class(3.0),
        lambda: duality_permutation(3.0),
        lambda: duality_word(3.0),
    ],
)
def test_integer_entry_points_refuse_non_ints(call):
    # each once returned a value: a "G(2.5,6)" of dimension 8.75, the prime
    # 7.0, or the partitions of 1 for n = True; or it raised the wrong
    # error ("need h >= 2, got True", "box sides must be int, got 2.0")
    with pytest.raises(TypeError, match="must be int"):
        call()


@pytest.mark.parametrize(
    "good, bad",
    [
        (line_bundle(-2), lambda: line_bundle(-2.0)),
        (wedge_tangent(1), lambda: wedge_tangent(True)),
    ],
)
def test_equal_non_int_degree_is_refused_after_its_int_twin(good, bad):
    # -2.0 == -2 and True == 1 hash alike, so a check made inside the
    # cached expansion of an atom would be skipped once the int was expanded
    expand_in_basis(good, BoxShape(2, 2))
    with pytest.raises(TypeError, match="must be int"):
        bad()
