import random
from fractions import Fraction

import pytest

from flopk import flopgeom
from flopk.flopgeom import (
    _MILLER_RABIN_BOUND,
    _is_prime,
    pluecker_limit_map,
    prime_modulus,
    quadric_value,
    quadric_vanishes_identically,
    springer_fiber,
)
from oracles import determinantal_membership, is_indeterminate


# ---------------------------------------------------------------------------
# The limit map and the quadric
# ---------------------------------------------------------------------------

def test_limit_map_examples():
    assert pluecker_limit_map((1, 0, 0, 0, 0)) == (1, 0, 0, 0, 0, 0)
    assert pluecker_limit_map((0, 1, 0, 0, 1)) == (0, 0, 0, 0, 0, 1)
    assert pluecker_limit_map((1, 1, 2, 3, 4)) == (1, 3, 4, -1, -2, -2)


def test_quadric_examples():
    assert quadric_value((1, 0, 0, 0, 0, 0)) == 0
    assert quadric_value((1, 1, 1, 1, 1, 1)) == 1
    assert quadric_value(pluecker_limit_map((1, 1, 2, 3, 4))) == 0


def test_quadric_identity_symbolic():
    assert quadric_vanishes_identically()


def test_quadric_identity_against_sympy():
    # the outside oracle: each coordinate of the map has total degree 2, the
    # premise of the evaluation proof, and the composite expands to 0
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("alpha x y z w")
    image = pluecker_limit_map(symbols)
    assert [sympy.Poly(c, *symbols).total_degree() for c in image] == [2] * 6
    assert sympy.expand(quadric_value(image)) == 0


@pytest.mark.parametrize("i", range(6))
def test_quadric_identity_detects_a_perturbed_map(monkeypatch, i):
    # x*y added to one coordinate keeps every degree at most 2, so the
    # composite stays inside the proof's degree bound but is nonzero
    def perturbed(pt):
        image = list(pluecker_limit_map(pt))
        image[i] += pt[1] * pt[2]
        return tuple(image)

    monkeypatch.setattr(flopgeom, "pluecker_limit_map", perturbed)
    assert not quadric_vanishes_identically()


def test_quadric_identity_over_rationals():
    rng = random.Random(17)
    for _ in range(50):
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5))
        assert quadric_value(pluecker_limit_map(pt)) == 0


def test_indeterminacy_examples():
    assert is_indeterminate((0, 1, 0, 0, 0))
    assert not is_indeterminate((1, 0, 0, 0, 0))
    assert is_indeterminate((0, 1, 2, 3, 6))
    with pytest.raises(ValueError):
        is_indeterminate((0, 0, 0, 0, 0))


def test_indeterminacy_iff_zero_image_fuzz():
    # small coordinates, so that alpha = 0 and xw = yz both happen
    rng = random.Random(99)
    indeterminate = 0
    for _ in range(1000):
        pt = tuple(rng.randint(-2, 2) for _ in range(5))
        if all(c == 0 for c in pt):
            continue
        image = pluecker_limit_map(pt)
        assert is_indeterminate(pt) == all(c == 0 for c in image)
        assert quadric_value(image) == 0
        indeterminate += is_indeterminate(pt)
    assert indeterminate > 0


# ---------------------------------------------------------------------------
# Prime moduli
# ---------------------------------------------------------------------------

def test_prime_modulus():
    assert prime_modulus(32003) == 32003
    for p in (32004, 1, 0, -7):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            prime_modulus(p)


def test_is_prime_matches_trial_division():
    for n in range(-3, 5000):
        assert _is_prime(n) == (n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1)))


@pytest.mark.parametrize(
    "n, prime",
    [
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (10**18 + 1, False),
        (10**12 + 39, True),
        (10**18 + 3, True),
        (2**61 - 1, True),
        (_MILLER_RABIN_BOUND - 2, False),
    ],
)
def test_is_prime_large(n, prime):
    assert _is_prime(n) is prime


def test_is_prime_refuses_beyond_its_exact_range():
    # the bound is itself a strong pseudoprime to all twelve bases
    with pytest.raises(ValueError):
        _is_prime(_MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match="the exact primality range"):
        prime_modulus(_MILLER_RABIN_BOUND + 2)


# ---------------------------------------------------------------------------
# Determinantal model
# ---------------------------------------------------------------------------

def test_determinantal_examples():
    assert determinantal_membership((0,) * 8)
    # x=1, t=1, rest 0: the minor x*t - y*(-v) = 1
    assert not determinantal_membership((1, 0, 0, 0, 0, 1, 0, 0))


def test_determinantal_proportional_rows():
    rng = random.Random(5)
    for _ in range(200):
        lam = rng.randrange(32003)
        x, y, z, w = (rng.randrange(32003) for _ in range(4))
        # choose (s,t,u,v) so the second row is lam * first row:
        # (-v, t, u, -s) = lam*(x, y, z, w)
        s = -(lam * w)
        t = lam * y
        u = lam * z
        v = -(lam * x)
        assert determinantal_membership((x, y, z, w, s, t, u, v))


def test_determinantal_scaling_invariance():
    rng = random.Random(6)
    for _ in range(200):
        p8 = tuple(rng.randrange(32003) for _ in range(8))
        member = determinantal_membership(p8)
        c = rng.randrange(1, 32003)
        top_scaled = tuple(c * v for v in p8[:4]) + p8[4:]
        bottom_scaled = p8[:4] + tuple(c * v for v in p8[4:])
        assert determinantal_membership(top_scaled) == member
        assert determinantal_membership(bottom_scaled) == member


# ---------------------------------------------------------------------------
# Springer fibers
# ---------------------------------------------------------------------------

def test_springer_fiber_examples():
    assert springer_fiber(2, 4, 2) == ((0, 0), 0)
    assert springer_fiber(2, 4, 0) == ((2, 4), 4)
    assert springer_fiber(2, 4, 1) == ((1, 2), 1)


def test_springer_fiber_general_dimension():
    for h in range(2, 9):
        for t in range(1, h // 2 + 1):
            for i in range(t + 1):
                (sub, amb), dim = springer_fiber(t, h, i)
                assert (sub, amb) == (t - i, h - 2 * i)
                assert dim == sub * (amb - sub)


def test_springer_fiber_validation():
    with pytest.raises(ValueError):
        springer_fiber(2, 4, 3)
    with pytest.raises(ValueError):
        springer_fiber(3, 4, 0)
    with pytest.raises(ValueError):
        springer_fiber(2, 4, -1)
