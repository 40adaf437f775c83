import random
from fractions import Fraction
from math import factorial

import pytest

from flopk.chow import (
    SchubertVector,
    ch_matrix,
    ch_matrix_inverse,
    chern_character,
    dual_chern_character,
    line_chern_character,
    quot_chern_character,
    quot_chern_classes,
    rational_inverse,
    sn_character,
    sub_chern_classes,
)
from flopk.partitions import BoxShape, Partition, enumerate_box

from oracles import rational_det

B22 = BoxShape(2, 2)
B12 = BoxShape(1, 2)


def sv(box, alpha, c=1):
    return SchubertVector.schubert(box, alpha, c)


# ---------------------------------------------------------------------------
# Ring structure
# ---------------------------------------------------------------------------

def test_unit_and_box_mismatch():
    x = sv(B22, (2, 1), 3) + sv(B22, (1,), Fraction(1, 2))
    assert SchubertVector.unit(B22) * x == x
    with pytest.raises(ValueError):
        x * SchubertVector.unit(B12)


def test_multiply_examples():
    s1 = sv(B22, (1,))
    assert s1 * s1 == sv(B22, (2,)) + sv(B22, (1, 1))
    assert (sv(B22, (2,)) * sv(B22, (1, 1))).is_zero()


def test_degree_of_grassmannian():
    # sigma_1^(dim) = deg(G) * point class; G(2,4) has degree 2
    s1 = sv(B22, (1,))
    assert s1 ** 4 == sv(B22, (2, 2), 2)


def _random_vector(box, rng):
    basis = enumerate_box(box)
    coeffs = {}
    for p in rng.sample(basis, k=rng.randint(1, min(4, len(basis)))):
        coeffs[p] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return SchubertVector(box, coeffs)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_ring_axioms_random(shape):
    box = BoxShape(*shape)
    rng = random.Random(hash(shape) & 0xFFFF)
    for _ in range(50):
        a, b, c = (_random_vector(box, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# Chern classes of the tautological bundles
# ---------------------------------------------------------------------------

def test_sub_chern_class_examples():
    assert sub_chern_classes(B12)[0] == SchubertVector.unit(B12)
    assert sub_chern_classes(B12)[1] == sv(B12, (1,), -1)
    assert sub_chern_classes(B22)[2] == sv(B22, (1, 1))


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_whitney_sum_is_one(shape):
    box = BoxShape(*shape)
    ct = sub_chern_classes(box)
    cq = quot_chern_classes(box)
    total_t = ct[0]
    for v in ct[1:]:
        total_t = total_t + v
    total_q = cq[0]
    for v in cq[1:]:
        total_q = total_q + v
    assert total_t * total_q == SchubertVector.unit(box)


# ---------------------------------------------------------------------------
# Chern characters
# ---------------------------------------------------------------------------

def test_ch_trivial():
    assert chern_character((), B22) == SchubertVector.unit(B22)


def test_ch_sub_on_plane():
    # the subbundle of the plane is O(-1): truncated exponential of -sigma_1
    s1 = sv(B12, (1,))
    expected = SchubertVector.unit(B12) - s1 + Fraction(1, 2) * (s1 * s1)
    assert chern_character((1,), B12) == expected
    assert line_chern_character(-1, B12) == expected


def test_ch_top_wedge_is_line_bundle():
    # wedge^t sub = O(-1): exponential of the first Chern class
    s1 = sv(B22, (1,))
    expected = SchubertVector.zero(B22)
    power = SchubertVector.unit(B22)
    for m in range(5):
        expected = expected + Fraction((-1) ** m, factorial(m)) * power
        power = power * s1
    assert chern_character((1, 1), B22) == expected


def test_ch_multiplicative_inverse_pair():
    for box in [B12, B22, BoxShape(2, 3)]:
        assert line_chern_character(-1, box) * line_chern_character(1, box) == (
            SchubertVector.unit(box)
        )


def test_ch_is_ring_homomorphism_on_tensor_square():
    # sub (x) sub = Sym^2 + wedge^2, so ch multiplies accordingly
    lhs = chern_character((1,), B22) * chern_character((1,), B22)
    rhs = chern_character((2,), B22) + chern_character((1, 1), B22)
    assert lhs == rhs


def test_ch_dual_of_line_bundle():
    assert dual_chern_character((1,), B12) == line_chern_character(1, B12)


def test_ch_additive_rank():
    # degree-zero term of ch is the rank; Schur (2,1) of a rank-2 bundle
    # has rank 2
    v = chern_character((2, 1), B22)
    assert v.coefficient(()) == 2


_FLOAT_TWINS = [
    (chern_character, ((1,), B22), ((1.0,), B22)),
    (dual_chern_character, ((1,), B22), ((1.0,), B22)),
    (quot_chern_character, ((1,), B22), ((1.0,), B22)),
    (line_chern_character, (1, B22), (1.0, B22)),
    (sn_character, ((1,), (1,)), ((1.0,), (1,))),
]


@pytest.mark.parametrize("fn, good, bad", _FLOAT_TWINS, ids=[t[0].__name__ for t in _FLOAT_TWINS])
def test_equal_float_is_refused_after_its_int_twin(fn, good, bad):
    # 1.0 == 1 and they hash alike, so a cache on the raw arguments would
    # answer the float with the int's result instead of raising
    fn(*good)
    with pytest.raises(TypeError):
        fn(*bad)


# ---------------------------------------------------------------------------
# The character matrix
# ---------------------------------------------------------------------------

def test_ch_matrix_box11():
    assert ch_matrix(BoxShape(1, 1)) == (
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    )


def test_ch_matrix_inverse_consistency():
    box = BoxShape(2, 2)
    m = ch_matrix(box)
    inv = ch_matrix_inverse(box)
    n = len(m)
    for i in range(n):
        for j in range(n):
            entry = sum(m[i][k] * inv[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)


def test_ch_matrix_invertible_all_small_grassmannians():
    for h in range(2, 8):
        for t in range(1, h // 2 + 1):
            box = BoxShape.for_grassmannian(t, h)
            assert rational_det(ch_matrix(box)) != 0


def test_rational_inverse_rejects_singular():
    with pytest.raises(ValueError):
        rational_inverse([[1, 2], [2, 4]])
