import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flopk.weyl import (
    Permutation,
    RegularityViolation,
    adjacent_word,
    apply_word,
    chamber_sort,
    duality_permutation,
    duality_word,
    word_permutation,
)

from oracles import compose, permute, transposition_product


# ---------------------------------------------------------------------------
# Permutation basics
# ---------------------------------------------------------------------------

def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", Fraction(2)], ids=repr)
def test_permutation_rejects_non_int_entries(bad):
    with pytest.raises(TypeError, match="permutation entries must be int"):
        Permutation([bad, 1])


def test_composition_and_inverse():
    s = Permutation((2, 3, 1))
    t = Permutation((1, 3, 2))
    assert compose(s, t)[0] == s[t[0] - 1]
    assert compose(s, s.inverse()) == Permutation(range(1, 4))
    assert compose(s.inverse(), s) == Permutation(range(1, 4))


def test_apply_is_left_action():
    rng = random.Random(4)
    for _ in range(50):
        h = rng.randint(2, 6)
        a = list(range(1, h + 1)); rng.shuffle(a)
        b = list(range(1, h + 1)); rng.shuffle(b)
        s, t = Permutation(a), Permutation(b)
        v = tuple(rng.randint(-9, 9) for _ in range(h))
        assert permute(s, permute(t, v)) == permute(compose(s, t), v)


def test_word_application_matches_word_permutation():
    rng = random.Random(8)
    for _ in range(50):
        h = rng.randint(2, 6)
        word = [rng.randint(1, h - 1) for _ in range(rng.randint(0, 8))]
        v = tuple(rng.randint(-9, 9) for _ in range(h))
        assert apply_word(word, v) == permute(word_permutation(word, h), v)
        assert word_permutation(word, h) == transposition_product(word, h)


# ---------------------------------------------------------------------------
# Reduced words
# ---------------------------------------------------------------------------

def test_adjacent_word_examples():
    assert adjacent_word(Permutation(range(1, 4))) == []
    assert adjacent_word(Permutation((2, 1))) == [1]
    rev = Permutation((4, 3, 2, 1))
    word = adjacent_word(rev)
    assert len(word) == 6 == rev.inversions()
    assert word_permutation(word, 4) == rev


def test_adjacent_word_random():
    rng = random.Random(2)
    for _ in range(200):
        h = rng.randint(2, 7)
        images = list(range(1, h + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        word = adjacent_word(sigma)
        assert word_permutation(word, h) == sigma
        assert len(word) == sigma.inversions()


@given(st.permutations(list(range(1, 7))))
def test_adjacent_word_hypothesis(images):
    sigma = Permutation(images)
    word = adjacent_word(sigma)
    assert word_permutation(word, 6) == sigma
    assert len(word) == sigma.inversions()


# ---------------------------------------------------------------------------
# The duality element and its palindromic word
# ---------------------------------------------------------------------------

def test_duality_small_cases():
    assert duality_permutation(2) == Permutation((2, 1))
    assert duality_permutation(3) == Permutation((3, 2, 1))
    assert duality_word(2) == [1]
    assert duality_word(3) == [1, 2, 1]
    assert duality_word(5) == [1, 2, 3, 4, 3, 2, 1]


def test_duality_exchanges_extremes():
    for h in (*range(2, 9), 10**5):
        sigma = duality_permutation(h)
        assert sigma[0] == h and sigma[h - 1] == 1
        assert all(sigma[i - 1] == i for i in range(2, h))


def test_duality_word_properties():
    for h in range(2, 9):
        word = duality_word(h)
        assert len(word) == 2 * h - 3
        sigma = duality_permutation(h)
        assert word_permutation(word, h) == sigma.inverse()
        # the word is reduced: its length is the inversion count
        assert len(word) == sigma.inversions()


def test_duality_rejects_h_below_2():
    with pytest.raises(ValueError):
        duality_word(1)
    with pytest.raises(ValueError):
        duality_permutation(1)


# ---------------------------------------------------------------------------
# Chamber sorting
# ---------------------------------------------------------------------------

def test_chamber_sort_examples():
    sigma, word = chamber_sort((5, 2))
    assert sigma == Permutation(range(1, 3)) and word == []
    sigma, word = chamber_sort((2, 5))
    assert sigma == Permutation((2, 1)) and word == [1]


def test_chamber_sort_documented_case():
    vec = (1, 3, 2, 4)
    sigma, word = chamber_sort(vec)
    assert apply_word(word, vec) == (4, 3, 2, 1)
    assert word == adjacent_word(sigma)
    assert len(word) == sigma.inversions() == 5


def test_chamber_sort_wall_point():
    with pytest.raises(RegularityViolation):
        chamber_sort((1, 1, 2))


def test_chamber_sort_random():
    rng = random.Random(12)
    for _ in range(500):
        h = rng.randint(2, 8)
        vec = tuple(
            Fraction(x, rng.randint(1, 4)) for x in rng.sample(range(-60, 61), h)
        )
        if len(set(vec)) < h:
            continue
        sigma, word = chamber_sort(vec)
        sorted_vec = apply_word(word, vec)
        assert all(a > b for a, b in zip(sorted_vec, sorted_vec[1:]))
        assert word == adjacent_word(sigma)
        assert len(word) == sigma.inversions()
