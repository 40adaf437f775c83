"""The package's acceptance suite: ten numbered criteria, each exact.

Each criterion body returns a pass flag and a short human-readable
detail; ``@_criterion`` registers it under its number, times it and
returns a CriterionResult.  Where a criterion carries a time budget, the
runner, not the criterion, fails it once its elapsed time reaches that
budget.  ``run_all`` evaluates every criterion in number order
(deterministic for a fixed seed) and is what both the test suite and the
command-line ``verify-all`` execute.
"""

from __future__ import annotations

import random
import time
from functools import cache, wraps
from math import comb
from operator import lt
from typing import Callable, NamedTuple

from . import bott, flop, flopgeom, kgroup, main_component, weyl
from .partitions import BoxShape, Partition, enumerate_box, lr_coefficients, partitions_of


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


# every criterion with whether it takes the seed, in definition (= number) order
_CRITERIA: list[tuple[Callable[..., CriterionResult], bool]] = []


def _criterion(number: int, name: str, budget: float | None = None, seeded: bool = False):
    """Register a check returning (passed, detail) as criterion ``number``.

    The registered function times the check and returns its
    CriterionResult; a check that reaches ``budget`` seconds fails.
    """
    def register(check: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @wraps(check)
        def timed(*args, **kwargs) -> CriterionResult:
            started = time.monotonic()
            passed, detail = check(*args, **kwargs)
            elapsed = time.monotonic() - started
            if budget is not None and elapsed >= budget:
                passed = False
                detail += f"; exceeded {budget}s budget ({elapsed:.2f}s)"
            return CriterionResult(number, name, passed, detail, elapsed)

        _CRITERIA.append((timed, seeded))
        return timed

    return register


@_criterion(1, "basis ranks", budget=1.0)
def criterion_1_basis_ranks() -> tuple[bool, str]:
    """Basis count equals C(h,t) for every h <= 8, t <= h/2."""
    bad = []
    for h in range(2, 9):
        for t in range(1, h // 2 + 1):
            box = BoxShape.for_grassmannian(t, h)
            n = len(enumerate_box(box))
            if n != comb(h, t):
                bad.append((t, h, n))
    return not bad, "C(h,t) matched for all (t,h), h<=8" if not bad else f"mismatches: {bad}"


_FLOP_CASES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 6)]


@cache  # one flop matrix for each of the seven boxes of _FLOP_CASES
def _flop_matrices() -> tuple[kgroup.IntegerMatrix, ...]:
    """The flop matrix F of each case, in case order, built once for
    criteria 2 and 3."""
    return tuple(kgroup.flop_matrix(BoxShape.for_grassmannian(t, h)) for t, h in _FLOP_CASES)


@_criterion(2, "flop isomorphism certificates", budget=30.0)
def criterion_2_flop_unimodular() -> tuple[bool, str]:
    """det = +-1 for the flop matrix on the listed Grassmannians, by
    Bareiss, and the certificate the command line prints agrees."""
    dets = {case: m.det() for case, m in zip(_FLOP_CASES, _flop_matrices())}
    certified = {case: flop.flop_certificate(BoxShape.for_grassmannian(*case))[0]
                 for case in _FLOP_CASES}
    bad = {k: d for k, d in dets.items() if d not in (1, -1)}
    if bad:
        return False, f"non-unit dets: {bad}"
    if certified != dets:
        return False, f"certificate dets {certified} against Bareiss {dets}"
    return True, f"dets {dets}"


@_criterion(3, "flop involution")
def criterion_3_involution() -> tuple[bool, str]:
    """The flop matrix squares to the identity on the same set."""
    bad = [case for case, m in zip(_FLOP_CASES, _flop_matrices())
           if (m @ m) != kgroup.IntegerMatrix.identity(m.rows)]
    return not bad, (
        "matrix squared is the identity on all cases" if not bad else f"failures: {bad}"
    )


@_criterion(4, "main-component index 2", budget=1.0)
def criterion_4_main_component() -> tuple[bool, str]:
    """Image vectors, Smith form (1,1,2) and index 2 of the main component;
    the index comes from the determinant, not from the Smith form."""
    m = main_component.main_component_matrix("line")
    cols = [m.column(j) for j in range(3)]
    ok_cols = cols == [(1, 0, 0), (0, 1, 0), (-3, 6, -2)]
    snf = kgroup.smith_normal_form(m)
    idx = main_component.image_index(m)
    ok = ok_cols and snf == (1, 1, 2) and idx == 2
    return ok, f"columns {cols}, snf {snf}, index {idx}"


@_criterion(5, "Koszul intermediate classes")
def criterion_5_koszul_intermediates() -> tuple[bool, str]:
    """The two intermediate Koszul classes in the line-bundle basis."""
    box = BoxShape.for_grassmannian(1, 3)
    v1 = kgroup.expand_in_basis(
        kgroup.wedge_tangent(1) * kgroup.line_bundle(-1), box
    )
    v2 = kgroup.expand_in_basis(
        kgroup.wedge_tangent(2) * kgroup.line_bundle(-1), box
    )
    got1 = main_component.to_line_basis(v1)
    got2 = main_component.to_line_basis(v2)
    ok = got1 == (0, 3, -1) and got2 == (3, -3, 1)
    return ok, (
        f"[Tangent(-1)] -> {got1} (want (0,3,-1)); "
        f"[wedge2 Tangent(-1)] -> {got2} (want (3,-3,1))"
    )


@_criterion(6, "cohomology anchors", budget=5.0)
def criterion_6_bott_anchors() -> tuple[bool, str]:
    """Cohomology anchors: O(-2) on G(2,4) vanishes, its middle Hodge
    numbers by Bott, the Hodge diagonal, twists."""
    g24 = BoxShape.for_grassmannian(2, 4)
    p2 = BoxShape.for_grassmannian(1, 3)
    problems = []
    if bott.bott_cohomology(bott.line_bundle_weight(-2, g24)) is not None:
        problems.append("O(-2) on G(2,4) has cohomology")
    table = bott.hodge_numbers(g24)
    diag = [table[p][p] for p in range(5)]
    if diag != [1, 1, 2, 1, 1]:
        problems.append(f"Hodge diagonal {diag}")
    # the Cauchy summands (-reversed mu | mu') of the second and third
    # exterior cotangent powers, for mu = (2), (1,1) and (2,1)
    middle = {}
    for p, a, b in ((2, (0, -2), (1, 1)), (2, (-1, -1), (2, 0)), (3, (-1, -2), (2, 1))):
        res = bott.bott_cohomology(bott.Weight(a, b))
        if res is not None:
            middle[p, res.degree] = middle.get((p, res.degree), 0) + res.dim
    if middle != {(2, 2): 2, (3, 3): 1}:
        problems.append("middle Hodge numbers wrong")
    for d in range(6):
        res = bott.bott_cohomology(bott.line_bundle_weight(d, p2))
        want = (d + 1) * (d + 2) // 2
        if res != bott.BottResult(0, want):
            problems.append(f"sections of O({d}) on the plane: {res}")
    return not problems, "all anchors hold" if not problems else "; ".join(problems)


@_criterion(7, "Pluecker quadric identity", budget=1.0, seeded=True)
def criterion_7_quadric_identity(seed: int = 0) -> tuple[bool, str]:
    """The limit map lands on the Pluecker quadric, symbolically and at
    1000 random points over the 32003-element field: integer points with
    coordinates in [0, 32003), the quadric value reduced mod 32003."""
    problems = []
    if not flopgeom.quadric_vanishes_identically():
        problems.append("symbolic expansion is nonzero")
    rng = random.Random(seed)
    for _ in range(1000):
        pt = tuple(rng.randrange(32003) for _ in range(5))
        if flopgeom.quadric_value(flopgeom.pluecker_limit_map(pt)) % 32003 != 0:
            problems.append(f"quadric nonzero at {pt}")
            break
    return not problems, (
        "zero polynomial and zero at 1000 random points"
        if not problems else "; ".join(problems)
    )


@_criterion(8, "duality words and chamber sorting", budget=1.0, seeded=True)
def criterion_8_weyl_words(seed: int = 0) -> tuple[bool, str]:
    """Palindromic duality words for h = 2..8 and chamber sorting on 500
    seeded random regular vectors."""
    problems = []
    for h in range(2, 9):
        word = weyl.duality_word(h)
        if len(word) != 2 * h - 3:
            problems.append(f"word length at h={h}")
        if weyl.word_permutation(word, h) != weyl.duality_permutation(h).inverse():
            problems.append(f"word product at h={h}")
    rng = random.Random(seed)
    for _ in range(500):
        h = rng.randint(2, 8)
        vec = rng.sample(range(-50, 51), h)
        sigma, word = weyl.chamber_sort(vec)
        sorted_vec = weyl.apply_word(word, vec)
        if any(a <= b for a, b in zip(sorted_vec, sorted_vec[1:])):
            problems.append(f"not decreasing for {vec}")
            break
        if len(word) != sigma.inversions():
            problems.append(f"word not reduced for {vec}")
            break
    return not problems, (
        "words and 500 chamber sorts verified" if not problems else "; ".join(problems)
    )


def _lattice_words(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """Every lattice (ballot) word of content mu: mu_i letters i, and no
    prefix with more i's than (i-1)'s."""
    words = []
    used = [0] * (len(mu) + 1)
    word: list[int] = []

    def extend() -> None:
        if len(word) == mu.size:
            words.append(tuple(word))
            return
        for v in range(1, len(mu) + 1):
            if used[v] < mu[v - 1] and (v == 1 or used[v] < used[v - 1]):
                used[v] += 1
                word.append(v)
                extend()
                word.pop()
                used[v] -= 1

    extend()
    return tuple(words)


def _skew_constraints(nu: Partition, lam: Partition) -> list[list[int]]:
    """Position pairs [column, row] into a word written into nu/lam in
    reverse reading order (rows top to bottom, each right to left), each
    pair packed as a << 4 | b with a < b: the filling is semistandard iff
    word[a] < word[b] for every column pair (down a column) and
    word[a] >= word[b] for every row pair (along a row).  The packing
    holds positions below 16, so a shape of more than 16 cells is refused."""
    column: list[int] = []
    row: list[int] = []
    start = 0  # position of the first cell of row r
    inner_above = nu[0] if nu else 0  # row 0 has no cell above it
    for r, outer in enumerate(nu):
        inner = lam[r] if r < len(lam) else 0
        # cell (r, c) sits at k = start + outer - 1 - c, and (r - 1, c) at
        # start - inner_above - 1 - c = k - (outer - inner_above); as
        # inner <= inner_above, the first outer - inner_above cells of the
        # row have a cell above
        for k in range(start, start + outer - inner_above):
            column.append((k - outer + inner_above) << 4 | k)
        end = start + outer - inner
        for k in range(start + 1, end):
            row.append((k - 1) << 4 | k)
        start, inner_above = end, inner
    if start > 16:
        raise ValueError(f"{nu}/{lam} has more than 16 cells")
    return [column, row]


# the bytes 0 and 1 as the binary digits "0" and "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _word_masks(words: tuple[tuple[int, ...], ...]) -> tuple[int, dict[int, int]]:
    """The words as the bits of an int, the first word highest: the mask of
    all the words, and for each position pair a < b, keyed a << 4 | b, the
    mask of the words with word[a] < word[b], read off one test per word."""
    letters = list(zip(*words))
    return (1 << len(words)) - 1, {
        a << 4 | b: int(bytes(map(lt, letters[a], letters[b])).translate(_DIGITS), 2)
        for b in range(len(letters)) for a in range(b)
    }


def _count_masked(constraints: list[list[int]], masks: tuple[int, dict[int, int]]) -> int:
    """How many of the words behind ``_word_masks`` meet all the constraints."""
    column, row = constraints
    fits, below = masks
    for pair in column:
        fits &= below[pair]
    for pair in row:
        fits &= ~below[pair]
    return fits.bit_count()


@_criterion(9, "oracle equivalences", budget=1.0)
def criterion_9_oracles() -> tuple[bool, str]:
    """LR agreement with a brute-force count that shares no code with the
    package's LR rule, basis round trips, and absence of non-integral
    expansions.  Each skew shape's constraints are derived once
    (``_skew_constraints``), for all mu of its size.  Every lattice word of
    content mu (``_lattice_words``) becomes one bit, and is tested against
    every position pair once (``_word_masks``); a shape's count is the
    number of words whose bits survive all its constraints
    (``_count_masked``)."""
    problems = []
    pairs = checked = 0
    by_size = [list(partitions_of(n)) for n in range(9)]
    word_bits = {mu: _word_masks(_lattice_words(mu)) for size in by_size for mu in size}
    for n1 in range(0, 9):
        for n2 in range(0, 9 - n1):
            for lam in by_size[n1]:
                shapes = [(nu, _skew_constraints(nu, lam)) for nu in by_size[n1 + n2]
                          if nu.contains(lam)]
                for mu in by_size[n2]:
                    got = lr_coefficients(lam, mu)
                    pairs += 1
                    bits, max_rows = word_bits[mu], lam.rows + mu.rows
                    for nu, constraints in shapes:
                        if len(nu) <= max_rows:
                            checked += 1
                            if got.get(nu, 0) != _count_masked(constraints, bits):
                                problems.append(f"c^{nu}_{lam},{mu}")
    box = BoxShape.for_grassmannian(2, 5)
    expansions = 0
    for alpha in enumerate_box(box):
        v = kgroup.expand_in_basis(kgroup.schur_sub(alpha), box)
        expansions += 1
        if v != kgroup.KVector.basis_vector(box, alpha):
            problems.append(f"round trip failed at {alpha}")
    for k in range(-4, 5):
        kgroup.expand_in_basis(kgroup.line_bundle(k), box)
        kgroup.expand_in_basis(kgroup.line_bundle(k), BoxShape(1, 2))
        expansions += 2
    for alpha in enumerate_box(box):
        kgroup.expand_in_basis(kgroup.schur_sub_dual(alpha), box)
        expansions += 1
    return not problems, (
        f"{checked} LR values over {pairs} products match brute force; "
        f"basis round trips hold and {expansions} expansions were integral"
        if not problems else "; ".join(problems[:5])
    )


@_criterion(10, "Serre duality", seeded=True)
def criterion_10_serre_duality(seed: int = 0) -> tuple[bool, str]:
    """Matching dimensions in complementary degrees for 100 random weights
    on G(2,4)."""
    rng = random.Random(seed)
    box = BoxShape.for_grassmannian(2, 4)
    problems = []
    for _ in range(100):
        a = tuple(sorted((rng.randint(-6, 6) for _ in range(2)), reverse=True))
        b = tuple(sorted((rng.randint(-6, 6) for _ in range(2)), reverse=True))
        w = bott.Weight(a, b)
        first = bott.bott_cohomology(w)
        second = bott.bott_cohomology(bott.serre_dual_weight(w))
        if first is None:
            if second is not None:
                problems.append(f"{w}")
        elif second != bott.BottResult(box.dim - first.degree, first.dim):
            problems.append(f"{w}")
    return not problems, (
        "100 weights dualize correctly" if not problems else f"failures: {problems[:5]}"
    )


def run_all(seed: int = 0) -> list[CriterionResult]:
    """Run every acceptance criterion; deterministic for a fixed seed."""
    return [fn(seed) if seeded else fn() for fn, seeded in _CRITERIA]
