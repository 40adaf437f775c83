import itertools
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

import flopk
from flopk import bott
from flopk.bott import (
    BottResult,
    Weight,
    bott_cohomology,
    hodge_numbers,
    line_bundle_weight,
    serre_dual_weight,
)
from flopk.cli import MAX_BOX
from flopk.partitions import BoxShape
from oracles import (
    exterior_cotangent_decomposition,
    gaussian_binomial,
    sort_bott_cohomology,
    weyl_dimension,
)

P1 = BoxShape.for_grassmannian(1, 2)
P2 = BoxShape.for_grassmannian(1, 3)
G24 = BoxShape.for_grassmannian(2, 4)


# ---------------------------------------------------------------------------
# Anchor facts pinning the weight convention
# ---------------------------------------------------------------------------

def test_sections_of_twists_on_plane():
    assert bott_cohomology(line_bundle_weight(1, P2)) == BottResult(0, 3)
    for d in range(6):
        res = bott_cohomology(line_bundle_weight(d, P2))
        assert res == BottResult(0, (d + 1) * (d + 2) // 2)


def test_negative_twist_on_line():
    assert bott_cohomology(line_bundle_weight(-2, P1)) == BottResult(1, 1)
    assert bott_cohomology(line_bundle_weight(-1, P1)) is None


def test_o_minus_2_acyclic_on_g24():
    assert bott_cohomology(line_bundle_weight(-2, G24)) is None


def test_middle_hodge_numbers_g24():
    table = hodge_numbers(G24)
    assert table[2][2] == 2
    assert table[3][3] == 1


# ---------------------------------------------------------------------------
# Weight plumbing
# ---------------------------------------------------------------------------

def test_weight_validation_and_text():
    with pytest.raises(ValueError):
        Weight((0, 1), (0, 0))
    w = Weight((-2, -2), (0, 0))
    assert len(w.a) + len(w.b) == 4
    assert Weight.from_text(w.text()) == w
    assert Weight.from_text("-2,-2|0,0") == w


@pytest.mark.parametrize("bad", [2.0, True, "2", Fraction(2)], ids=repr)
def test_weight_rejects_non_int_entries(bad):
    with pytest.raises(TypeError, match="weight entries must be int"):
        Weight((bad, 0), (0, 0))
    with pytest.raises(TypeError, match="weight entries must be int"):
        Weight((2, 0), (0, bad))


def test_weight_rejects_empty_block():
    with pytest.raises(ValueError, match="non-empty"):
        Weight((), (0,))
    with pytest.raises(ValueError, match="non-empty"):
        Weight((0,), ())


def test_weyl_dimension_examples():
    assert weyl_dimension((0, 0, 0)) == 1
    assert weyl_dimension((1, 0, 0)) == 3       # the standard representation
    assert weyl_dimension((1, 1, 0)) == 3       # its wedge square
    assert weyl_dimension((2, 1, 0)) == 8       # the adjoint of the 3x3 group
    assert weyl_dimension((0, -1)) == 2
    # translation invariance: only differences matter
    assert weyl_dimension((3, 2, 1)) == weyl_dimension((0, -1, -2))


def test_dimension_positive_when_nonzero():
    rng = random.Random(3)
    for _ in range(300):
        a = tuple(sorted((rng.randint(-7, 7) for _ in range(2)), reverse=True))
        b = tuple(sorted((rng.randint(-7, 7) for _ in range(2)), reverse=True))
        res = bott_cohomology(Weight(a, b))
        if res is not None:
            assert res.dim >= 1
            assert 0 <= res.degree <= G24.dim


# ---------------------------------------------------------------------------
# Exterior powers of the cotangent bundle and Hodge numbers
# ---------------------------------------------------------------------------

def test_decomposition_examples():
    assert [w.text() for w in exterior_cotangent_decomposition(0, G24)] == ["0,0|0,0"]
    assert [w.text() for w in exterior_cotangent_decomposition(1, G24)] == ["0,-1|1,0"]
    two = {w.text() for w in exterior_cotangent_decomposition(2, G24)}
    assert two == {"0,-2|1,1", "-1,-1|2,0"}
    with pytest.raises(ValueError):
        exterior_cotangent_decomposition(5, G24)


def test_decomposition_total_rank():
    # the summand dimensions add to C(dim, p): ranks of wedge powers
    for p in range(G24.dim + 1):
        total = 0
        for w in exterior_cotangent_decomposition(p, G24):
            # rank = Weyl dimension blockwise
            total += weyl_dimension(w.a) * weyl_dimension(w.b)
        assert total == comb(G24.dim, p)


# every box the command line's hodge accepts: K-rank C(h,t) at most
# MAX_BOX.rank = 48620 and dimension t(h-t) at most MAX_HODGE_DIM = 81
ACCEPTED = [
    BoxShape.for_grassmannian(t, h)
    for h in range(2, bott.MAX_HODGE_DIM + 2) for t in range(1, h)
    if comb(h, t) <= MAX_BOX.rank and t * (h - t) <= bott.MAX_HODGE_DIM
]


@pytest.mark.parametrize(
    "box,diagonal",
    [(P1, [1, 1]), (P2, [1, 1, 1]), (G24, [1, 1, 2, 1, 1])]
    + [(box, None) for box in ACCEPTED if box.h <= 30 and box not in (P1, P2, G24)]
    + [(BoxShape.for_grassmannian(2, 42), None), (BoxShape.for_grassmannian(1, 82), None)],
    ids=str,
)
def test_hodge_diagonal_is_gaussian_binomial(box, diagonal):
    table = hodge_numbers(box)
    diag = [table[p][p] for p in range(box.dim + 1)]
    if diagonal is not None:
        assert diag == diagonal
    assert diag == gaussian_binomial(box.h, box.rows)
    o_sum = sum(table[p][q] for p in range(box.dim + 1) for q in range(box.dim + 1) if p != q)
    assert o_sum == 0
    assert sum(diag) == box.rank


def test_hodge_table_of_a_box_equals_that_of_its_transpose():
    # G(t,h) and G(h-t,h) are isomorphic
    assert len(ACCEPTED) == 373
    for box in ACCEPTED:
        assert hodge_numbers(box) == hodge_numbers(BoxShape(box.cols, box.rows)), box


def _cauchy_hodge(box):
    """The Hodge table summed over the oracle's Cauchy summands, p by p."""
    table = [[0] * (box.dim + 1) for _ in range(box.dim + 1)]
    for p in range(box.dim + 1):
        for w in exterior_cotangent_decomposition(p, box):
            res = bott_cohomology(w)
            if res is not None:
                table[p][res.degree] += res.dim
    return table


BOXES_TO_12 = [BoxShape.for_grassmannian(t, h) for h in range(2, 13) for t in range(1, h)]


@pytest.mark.parametrize("box", BOXES_TO_12 + [BoxShape.for_grassmannian(1, 82)], ids=str)
def test_hodge_matches_cauchy_summands(box):
    table = hodge_numbers(box)
    assert table == _cauchy_hodge(box)
    assert [table[p][p] for p in range(box.dim + 1)] == gaussian_binomial(box.h, box.rows)


@pytest.mark.parametrize("t, h", [(1, 83), (1, 150), (10, 20), (1000, 2000)])
def test_hodge_refuses_dimension_above_cap(t, h):
    box = BoxShape.for_grassmannian(t, h)
    started = time.perf_counter()
    message = f"G({t},{h}) has dimension {box.dim}, above the limit {bott.MAX_HODGE_DIM}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hodge_numbers(box)
    assert time.perf_counter() - started < 0.1


def test_hodge_cap_is_the_dimension_of_the_largest_box():
    # the command line's hodge refuses by this constant, and kbasis by MAX_BOX
    assert bott.MAX_HODGE_DIM == MAX_BOX.dim == 81


def test_gaussian_binomial_small():
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert gaussian_binomial(2, 1) == [1, 1]
    assert sum(gaussian_binomial(6, 3)) == comb(6, 3)


def test_gaussian_binomial_error_names_arguments():
    with pytest.raises(ValueError, match=r"^need 0 <= t <= h, got t=5, h=3$"):
        gaussian_binomial(3, 5)
    with pytest.raises(ValueError, match=r"got t=-1, h=4$"):
        gaussian_binomial(4, -1)


# ---------------------------------------------------------------------------
# Dualities and Euler characteristics
# ---------------------------------------------------------------------------

def test_serre_duality_seeded_weights():
    rng = random.Random(0)
    for _ in range(100):
        a = tuple(sorted((rng.randint(-6, 6) for _ in range(2)), reverse=True))
        b = tuple(sorted((rng.randint(-6, 6) for _ in range(2)), reverse=True))
        w = Weight(a, b)
        first = bott_cohomology(w)
        second = bott_cohomology(serre_dual_weight(w))
        if first is None:
            assert second is None
        else:
            assert second == BottResult(G24.dim - first.degree, first.dim)


def _check_unchecked_duals():
    """The dual built without Weight's checks passes them: 5000 seeded
    weights for each h <= 9 with entries in [-20, 20], and extreme ones."""
    rng = random.Random(27)
    weights = []
    for h in range(2, 10):
        for _ in range(5000):
            t = rng.randint(1, h - 1)
            a = tuple(sorted((rng.randint(-20, 20) for _ in range(t)), reverse=True))
            b = tuple(sorted((rng.randint(-20, 20) for _ in range(h - t)), reverse=True))
            weights.append(Weight(a, b))
    big = 10**60
    weights += [
        Weight((big, -big), (big,)),
        Weight((0,), (-big, -big - 1)),
        Weight((2**63, 2**63), (-(2**63), -(2**64))),
        Weight((7,), (7,)),
    ]
    for w in weights:
        dual = serre_dual_weight(w)
        assert type(dual) is Weight and type(dual.a) is tuple and type(dual.b) is tuple
        assert dual == Weight(dual.a, dual.b), w
        assert (len(dual.a), len(dual.b)) == (len(w.a), len(w.b))
    return len(weights)


def test_unchecked_dual_is_a_valid_weight():
    assert _check_unchecked_duals() == 8 * 5000 + 4


def test_unchecked_dual_is_a_valid_weight_under_optimize():
    tests = Path(__file__).parent
    code = "import test_bott\ntest_bott._check_unchecked_duals()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests), str(Path(flopk.__file__).parent.parent)]))
    subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True, timeout=120)


def test_serre_dual_weight_involution():
    w = Weight((2, -1), (3, 0, -2))
    assert serre_dual_weight(serre_dual_weight(w)) == w


def test_euler_characteristic_on_projective_spaces():
    # chi(O(k)) extends C(k+m, m) to all integers k as a polynomial
    for m in range(1, 4):
        box = BoxShape(1, m)
        for k in range(-6, 7):
            res = bott_cohomology(line_bundle_weight(k, box))
            chi = 0 if res is None else (-1) ** res.degree * res.dim
            num = 1
            for j in range(1, m + 1):
                num *= k + j
            assert chi * factorial(m) == num


def test_canonical_bundle_is_unique_top_class():
    # O(-h) carries the one-dimensional top cohomology
    for box in [P1, P2, G24]:
        res = bott_cohomology(line_bundle_weight(-box.h, box))
        assert res == BottResult(box.dim, 1)


# ---------------------------------------------------------------------------
# The one-pass route against the sort-based reference
# ---------------------------------------------------------------------------

def _blocks(n, lo, hi):
    """Every non-increasing tuple of length n with entries in [lo, hi]."""
    return [tuple(reversed(c)) for c in itertools.combinations_with_replacement(range(lo, hi + 1), n)]


def test_matches_sort_route_on_every_small_weight():
    checked = 0
    for h in range(2, 6):
        for t in range(1, h):
            for a in _blocks(t, -4, 4):
                for b in _blocks(h - t, -4, 4):
                    w = Weight(a, b)
                    for x in (w, serre_dual_weight(w)):
                        assert bott_cohomology(x) == sort_bott_cohomology(x), x
                        checked += 1
    # nine values per entry: C(8 + n, n) non-increasing blocks of length n
    assert checked == 2 * sum(
        comb(8 + t, t) * comb(8 + h - t, h - t) for h in range(2, 6) for t in range(1, h)
    )


@pytest.mark.parametrize("h", range(2, 10))
def test_matches_sort_route_on_seeded_weights(h):
    # 5000 weights on each G(t,h), entries in [-20, 20]
    rng = random.Random(h)
    nonzero = 0
    for t in range(1, h):
        for _ in range(5000):
            a = tuple(sorted((rng.randint(-20, 20) for _ in range(t)), reverse=True))
            b = tuple(sorted((rng.randint(-20, 20) for _ in range(h - t)), reverse=True))
            w = Weight(a, b)
            res = bott_cohomology(w)
            assert res == sort_bott_cohomology(w), w
            nonzero += res is not None
    assert nonzero > 500 * (h - 1)


def test_weyl_denominator_is_product_of_factorials():
    for n in range(13):
        direct = 1
        for i in range(n):
            for j in range(i + 1, n):
                direct *= j - i
        assert bott._weyl_denominator(n) == direct
        assert direct == prod(factorial(k) for k in range(n))


def test_wrong_denominator_raises(monkeypatch):
    monkeypatch.setattr(bott, "_weyl_denominator", lambda n: 10**9 + 7)
    with pytest.raises(AssertionError, match="non-integral Weyl dimension"):
        bott_cohomology(line_bundle_weight(1, P2))


def test_wrong_denominator_raises_under_optimize():
    code = (
        "from flopk import bott\n"
        "bott._weyl_denominator = lambda n: 10**9 + 7\n"
        "try:\n"
        "    bott.bott_cohomology(bott.line_bundle_weight(1, bott.BoxShape(1, 2)))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flopk.__file__).parent.parent))
    subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True, timeout=60)
