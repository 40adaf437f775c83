"""Criterion 9's brute-force Littlewood-Richardson oracle, and a check that
the criterion fails when the package's LR rule is wrong."""

import pytest

from flopk import acceptance, partitions
from flopk.acceptance import _brute_force_lr
from flopk.partitions import Partition as P


def test_hand_known_values():
    assert _brute_force_lr(P((3, 2, 1)), P((2, 1)), P((2, 1))) == 2
    assert _brute_force_lr(P((2, 1)), P((1,)), P((1, 1))) == 1


@pytest.mark.parametrize(
    "nu, lam, mu",
    [
        ((3,), (2, 1), ()),  # nu does not contain lam, sizes agree
        ((2, 2), (1, 1, 1), (1,)),  # lam longer than nu
        ((3, 2, 1), (2, 1), (2,)),  # |nu| != |lam| + |mu|
    ],
)
def test_zero_outside_the_skew_shape(nu, lam, mu):
    assert _brute_force_lr(P(nu), P(lam), P(mu)) == 0


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
    assert _brute_force_lr(P((4, 3, 2, 1)), P((3, 2, 1)), P((2, 1, 1))) == 3
    assert _brute_force_lr(P((5, 4, 2, 1)), P((3, 2, 1)), P((3, 2, 1))) == 4


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
