"""Criterion 9's brute-force Littlewood-Richardson oracle, and a check that
the criterion fails when the package's LR rule is wrong."""

import pytest

from flopk import acceptance, partitions
from flopk.acceptance import _count_masked, _lattice_words, _skew_constraints, _word_masks
from flopk.partitions import Partition as P
from oracles import brute_force_lr


def test_hand_known_values():
    assert brute_force_lr(P((3, 2, 1)), P((2, 1)), P((2, 1))) == 2
    assert brute_force_lr(P((2, 1)), P((1,)), P((1, 1))) == 1


@pytest.mark.parametrize(
    "nu, lam, mu",
    [
        ((3,), (2, 1), ()),  # nu does not contain lam, sizes agree
        ((2, 2), (1, 1, 1), (1,)),  # lam longer than nu
        ((3, 2, 1), (2, 1), (2,)),  # |nu| != |lam| + |mu|
    ],
)
def test_zero_outside_the_skew_shape(nu, lam, mu):
    assert brute_force_lr(P(nu), P(lam), P(mu)) == 0


def test_oracle_uses_no_package_lr_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the oracle must not call the package's LR rule")

    # every LR function of partitions, wherever acceptance can reach it
    lr_names = [name for name in vars(partitions) if name.startswith(("lr_", "_lr_"))]
    assert {"lr_coefficients", "_lr_expand"} <= set(lr_names)
    lr_functions = [getattr(partitions, name) for name in lr_names]
    for name in lr_names:
        monkeypatch.setattr(partitions, name, refuse)
    for name, value in list(vars(acceptance).items()):
        if any(value is f for f in lr_functions):
            monkeypatch.setattr(acceptance, name, refuse)
    assert acceptance.lr_coefficients is refuse
    assert brute_force_lr(P((4, 3, 2, 1)), P((3, 2, 1)), P((2, 1, 1))) == 3
    assert brute_force_lr(P((5, 4, 2, 1)), P((3, 2, 1)), P((3, 2, 1))) == 4
    # the helpers criterion 9 calls directly
    for nu, lam, mu, want in [
        ((4, 3, 2, 1), (3, 2, 1), (2, 1, 1), 3),
        ((5, 4, 2, 1), (3, 2, 1), (3, 2, 1), 4),
        ((3, 2, 1), (2, 1), (2, 1), 2),
        ((2, 1), (), (2, 1), 1),
    ]:
        constraints = _skew_constraints(P(nu), P(lam))
        assert _count_masked(constraints, _word_masks(_lattice_words(P(mu)))) == want


def test_skew_constraints_of_a_small_shape():
    # nu/lam = (2,2)/(1): reading order (0,1), (1,1), (1,0); (1,1) sits
    # under (0,1), and (1,0) is left of (1,1) in its row
    assert _skew_constraints(P((2, 2)), P((1,))) == [[0 << 4 | 1], [1 << 4 | 2]]


def test_skew_constraints_refuse_more_than_16_cells():
    # positions are packed four bits each
    assert len(_skew_constraints(P((16,)), P(()))[1]) == 15
    assert len(_skew_constraints(P((9, 9)), P((2,)))[0]) == 7
    for nu, lam in [((17,), ()), ((9, 9), (1,)), ((6, 6, 6), ())]:
        with pytest.raises(ValueError, match="more than 16 cells"):
            _skew_constraints(P(nu), P(lam))


def test_criterion_9_fails_on_a_wrong_coefficient(monkeypatch):
    real = acceptance.lr_coefficients

    def skewed(lam, mu):
        coefficients = dict(real(lam, mu))
        if (lam, mu) == (P((2, 1)), P((2, 1))):
            coefficients[P((3, 2, 1))] += 1
        return coefficients

    monkeypatch.setattr(acceptance, "lr_coefficients", skewed)
    result = acceptance.criterion_9_oracles()
    assert not result.passed
    assert result.detail == "c^Partition((3, 2, 1))_Partition((2, 1)),Partition((2, 1))"


def test_criterion_9_fails_when_the_oracle_loses_a_word(monkeypatch):
    real = acceptance._lattice_words

    def short(mu):
        # drop the word 1,1,2: the only filling of the straight shape (2,1)
        words = real(mu)
        return tuple(w for w in words if w != (1, 1, 2)) if mu == P((2, 1)) else words

    monkeypatch.setattr(acceptance, "_lattice_words", short)
    result = acceptance.criterion_9_oracles()
    assert not result.passed
    named = result.detail.split("; ")
    assert len(named) == 5
    assert all(entry.endswith(",Partition((2, 1))") for entry in named)
    assert named[:3] == [
        "c^Partition((2, 1))_Partition(()),Partition((2, 1))",
        "c^Partition((3, 1))_Partition((1,)),Partition((2, 1))",
        "c^Partition((2, 1, 1))_Partition((1,)),Partition((2, 1))",
    ]


@pytest.mark.parametrize(
    "dropped, first",
    [
        # the word 1,2 would read 2,1 along the row (2)
        (1, "c^Partition((2,))_Partition(()),Partition((1, 1))"),
        # the word 1,1,2,1 fills (2,2) with 1 under 1 in its first column
        (0, "c^Partition((2, 2))_Partition(()),Partition((3, 1))"),
    ],
    ids=["without_row_pairs", "without_column_pairs"],
)
def test_criterion_9_fails_when_the_constraints_lose_a_kind_of_pair(monkeypatch, dropped, first):
    real = acceptance._skew_constraints

    def partial(nu, lam):
        pairs = real(nu, lam)
        pairs[dropped] = []
        return pairs

    monkeypatch.setattr(acceptance, "_skew_constraints", partial)
    result = acceptance.criterion_9_oracles()
    assert not result.passed
    named = result.detail.split("; ")
    assert len(named) == 5
    assert named[0] == first
