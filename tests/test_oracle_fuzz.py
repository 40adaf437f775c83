"""Determinant and Smith form against sympy as an outside oracle."""

import random

import pytest

from flopk.kgroup import IntegerMatrix, smith_normal_form

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

MATRICES = 300


def _random_matrices(seed, square):
    rng = random.Random(seed)
    for _ in range(MATRICES):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 6)
        bound = rng.choice([1, 3, 12, 1000])
        yield [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_det_against_sympy():
    for entries in _random_matrices(31, square=True):
        assert IntegerMatrix(entries).det() == sympy.Matrix(entries).det()


def test_smith_normal_form_against_sympy():
    for entries in _random_matrices(37, square=False):
        m = sympy.Matrix(entries)
        snf = sympy_snf(m, domain=sympy.ZZ)
        diag = [abs(snf[i, i]) for i in range(min(m.shape))]
        want = tuple(sorted(d for d in diag if d)) + (0,) * diag.count(0)
        assert smith_normal_form(IntegerMatrix(entries)) == want, entries
