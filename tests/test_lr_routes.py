"""The package's LR tableau generation against the candidate enumeration it
replaced, criterion 9's ballot-word oracle against the filling oracle it
replaced, and criterion 9's word-bitmask count and arithmetic constraints
against the word-by-word count and the cell-list constraints they
replaced: two routes each, compared exhaustively on small cases and on
seeded larger ones."""

import itertools
import random

import pytest

from flopk.acceptance import _count_masked, _lattice_words, _skew_constraints, _word_masks
from flopk.partitions import BoxShape, enumerate_box, lr_coefficients, partitions_of
from oracles import brute_force_lr, enumerate_lr, filling_lr, skew_constraints


def _same(got, want):
    # equal coefficients, listed in the same order
    return list(got.items()) == list(want.items())


def test_generation_matches_enumeration_up_to_size_12():
    pairs = 0
    for n1 in range(13):
        for n2 in range(13 - n1):
            for lam in partitions_of(n1):
                for mu in partitions_of(n2):
                    assert _same(lr_coefficients(lam, mu), enumerate_lr(lam, mu)), (lam, mu)
                    pairs += 1
    assert pairs == 3132


@pytest.mark.parametrize(
    "t, h", [(t, h) for h in range(2, 8) for t in range(1, h)], ids=lambda v: str(v)
)
def test_generation_matches_enumeration_in_every_small_box(t, h):
    box = BoxShape.for_grassmannian(t, h)
    for lam, mu in itertools.product(enumerate_box(box), repeat=2):
        assert _same(lr_coefficients(lam, mu, box), enumerate_lr(lam, mu, box)), (lam, mu)


def test_generation_matches_enumeration_on_seeded_g48_pairs():
    box = BoxShape.for_grassmannian(4, 8)
    basis = enumerate_box(box)
    rng = random.Random(48)
    nonzero = 0
    for _ in range(300):
        lam, mu = rng.choice(basis), rng.choice(basis)
        got = lr_coefficients(lam, mu, box)
        assert _same(got, enumerate_lr(lam, mu, box)), (lam, mu)
        nonzero += bool(got)
    assert nonzero > 50


def _criterion_9_triples():
    # the triples criterion 9 checks, in its order
    for n1 in range(9):
        for n2 in range(9 - n1):
            for lam in partitions_of(n1):
                for mu in partitions_of(n2):
                    for nu in partitions_of(n1 + n2, lam.rows + mu.rows):
                        if nu.contains(lam):
                            yield nu, lam, mu


def test_ballot_and_filling_oracles_agree_on_criterion_9():
    triples = list(_criterion_9_triples())
    assert len(triples) == 3112
    for nu, lam, mu in triples:
        assert brute_force_lr(nu, lam, mu) == filling_lr(nu, lam, mu), (nu, lam, mu)


def _seeded_triples():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 11)
        nu = rng.choice(list(partitions_of(n)))
        lam = rng.choice([p for k in range(n + 1) for p in partitions_of(k) if nu.contains(p)])
        mu = rng.choice(list(partitions_of(n - lam.size)))
        yield nu, lam, mu


def test_ballot_and_filling_oracles_agree_on_seeded_triples():
    nonzero = 0
    for nu, lam, mu in _seeded_triples():
        want = filling_lr(nu, lam, mu)
        assert brute_force_lr(nu, lam, mu) == want, (nu, lam, mu)
        assert lr_coefficients(lam, mu).get(nu, 0) == want, (nu, lam, mu)
        nonzero += bool(want)
    assert nonzero > 20


def _mask_count(nu, lam, mu):
    # criterion 9's count: the words as bits, masked by each position pair
    return _count_masked(_skew_constraints(nu, lam), _word_masks(_lattice_words(mu)))


@pytest.mark.parametrize(
    "triples, checked, nonzero",
    [(_criterion_9_triples, 3112, 1330), (_seeded_triples, 200, 117)],
    ids=["criterion_9", "seeded"],
)
def test_mask_and_word_counts_agree(triples, checked, nonzero):
    counts = []
    for nu, lam, mu in triples():
        want = brute_force_lr(nu, lam, mu)
        assert _mask_count(nu, lam, mu) == want, (nu, lam, mu)
        counts.append(want)
    assert (len(counts), len(counts) - counts.count(0)) == (checked, nonzero)


def test_arithmetic_and_cell_list_constraints_agree_up_to_size_10():
    shapes = 0
    for n in range(11):
        for nu in partitions_of(n):
            for lam in (p for k in range(n + 1) for p in partitions_of(k) if nu.contains(p)):
                col_a, col_b, row_a, row_b = skew_constraints(nu, lam)
                want = [[a << 4 | b for a, b in zip(col_a, col_b)],
                        [a << 4 | b for a, b in zip(row_a, row_b)]]
                assert _skew_constraints(nu, lam) == want, (nu, lam)
                shapes += 1
    assert shapes == 2888
