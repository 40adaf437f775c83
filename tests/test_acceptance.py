"""The acceptance gate: every criterion must pass at its exact tolerance.

Each test prints its own PASS/FAIL line so a plain ``pytest -s`` run of
this module reads as the acceptance report; the same checks back the
command line's ``verify-all``.
"""

import pytest

from flopk.acceptance import run_all

_BUDGETS = {1: 1.0, 2: 30.0, 4: 1.0, 6: 5.0, 7: 1.0, 8: 1.0}


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
    assert sorted(results) == list(range(1, 11))


def test_criterion_9_range(results):
    assert results[9].detail.startswith("3112 LR values over 434 products match brute force")
