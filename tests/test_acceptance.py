"""The acceptance gate: every criterion must pass at its exact tolerance.

Each test prints its own PASS/FAIL line so a plain ``pytest -s`` run of
this module reads as the acceptance report; the same checks back the
command line's ``verify-all``.
"""

import itertools
import re

import pytest

from flopk import acceptance
from flopk.acceptance import run_all

_BUDGETS = {1: 1.0, 2: 30.0, 4: 1.0, 6: 5.0, 7: 1.0, 8: 1.0, 9: 1.0}


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(seed=0)}


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    r = results[number]
    mark = "PASS" if r.passed else "FAIL"
    print(f"{mark}  criterion {r.number}: {r.name} [{r.elapsed:.2f}s] - {r.detail}")
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"
    if number in _BUDGETS:
        assert r.elapsed < _BUDGETS[number], (
            f"criterion {r.number} took {r.elapsed:.2f}s, budget {_BUDGETS[number]}s"
        )


def test_all_criteria_present(results):
    # the dict keeps run_all's order, which is the number order unsorted
    assert list(results) == list(range(1, 11))


def test_each_criterion_reports_its_own_number():
    numbered = {int(m[1]): getattr(acceptance, name) for name in dir(acceptance)
                if (m := re.fullmatch(r"criterion_(\d+)_\w+", name))}
    assert sorted(numbered) == list(range(1, 11))
    for number, fn in numbered.items():
        assert fn().number == number


def test_runner_fails_a_criterion_at_its_budget(monkeypatch):
    # every reading of the fake clock is 2.5 s after the one before
    ticks = itertools.count(0.0, 2.5)
    monkeypatch.setattr(acceptance.time, "monotonic", lambda: next(ticks))
    budgeted = acceptance.criterion_1_basis_ranks()
    assert (budgeted.passed, budgeted.elapsed) == (False, 2.5)
    assert budgeted.detail == ("C(h,t) matched for all (t,h), h<=8"
                               "; exceeded 1.0s budget (2.50s)")
    unbudgeted = acceptance.criterion_3_involution()
    assert (unbudgeted.passed, unbudgeted.elapsed) == (True, 2.5)
    assert unbudgeted.detail == "matrix squared is the identity on all cases"


def test_criterion_9_range(results):
    assert results[9].detail.startswith("3112 LR values over 434 products match brute force")


def test_criterion_2_fails_when_the_certificate_disagrees(monkeypatch):
    # the certificate that check-iso, snf and flop-matrix print must give
    # Bareiss's det on every case; a flipped sign on G(1,2) fails it
    certificate = acceptance.flop.flop_certificate

    def flipped(box):
        det, snf = certificate(box)
        return (-det if box.rank == 2 else det), snf

    assert acceptance.criterion_2_flop_unimodular().passed
    monkeypatch.setattr(acceptance.flop, "flop_certificate", flipped)
    r = acceptance.criterion_2_flop_unimodular()
    assert not r.passed
    assert r.detail.startswith("certificate dets {(1, 2): 1, ")
    assert "against Bareiss {(1, 2): -1, " in r.detail


def test_criteria_2_and_3_share_one_flop_matrix_per_case(monkeypatch):
    # criterion 3 squares the matrices criterion 2 took determinants of,
    # so a verify-all builds each case's F once: 7 matrices, not 14
    built, flop_matrix = [], acceptance.kgroup.flop_matrix

    def counted(box):
        built.append(box)
        return flop_matrix(box)

    monkeypatch.setattr(acceptance.kgroup, "flop_matrix", counted)
    acceptance._flop_matrices.cache_clear()
    try:
        assert all(r.passed for r in run_all(seed=0))
    finally:
        acceptance._flop_matrices.cache_clear()
    assert len(built) == len(acceptance._FLOP_CASES) == 7
    assert sorted((box.rows, box.h) for box in built) == sorted(acceptance._FLOP_CASES)


def test_criterion_6_fails_when_bott_shifts_a_degree(monkeypatch):
    # the middle Hodge numbers come from Bott on G(2,4)'s Cauchy summands,
    # so one degree too many on every weight with a nonzero quotient block
    # fails them, while line-bundle weights come back unchanged
    cohomology = acceptance.bott.bott_cohomology

    def shifted(w):
        res = cohomology(w)
        if res is None or not any(w.b):
            return res
        return res._replace(degree=res.degree + 1)

    r = acceptance.criterion_6_bott_anchors()
    assert (r.passed, r.detail) == (True, "all anchors hold")
    monkeypatch.setattr(acceptance.bott, "bott_cohomology", shifted)
    r = acceptance.criterion_6_bott_anchors()
    assert not r.passed
    assert r.detail == "middle Hodge numbers wrong"
