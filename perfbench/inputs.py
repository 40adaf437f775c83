"""Seeded input generation for the three benchmark workloads.

Everything here is a pure function of the seed and imports nothing from
flopk, so the program under test only ever sees the generated inputs.
Atoms and weights are plain JSON-friendly lists so that they can be sent
to a worker process on its stdin.
"""

from __future__ import annotations

import random

# Every flop box G(t,h) with 1 <= t <= h/2 and 2 <= h <= 7.  G(4,8) and
# G(5,10) are left out: at the seed commit G(4,8) alone takes minutes
# cold, far beyond one run.
LADDER = tuple((t, h) for h in range(2, 8) for t in range(1, h // 2 + 1))

# Boxes of the library-use session, and of its Hodge and Bott parts.
TAUT_BOXES = ((2, 6), (3, 6), (2, 7))
EXPANSIONS_PER_PASS = 600
KOSZUL_HS = (3, 4, 5, 6, 7)
COUNTEREXAMPLE_BASES = ("line", "canonical")
HODGE_BOXES = ((3, 6), (4, 8), (5, 10), (6, 12))
WEIGHT_BOXES = ((2, 4), (2, 5), (3, 6), (2, 6), (3, 7))
WEIGHTS_PER_PASS = 20000
WEIGHT_RANGE = 8

# Atom pool: Schur powers of size <= 2 of the subbundle, its dual and the
# quotient, the first two tangent wedges, and O(k) with |k| <= 4.
_SMALL = ((), (1,), (2,), (1, 1))
LINE_TWISTS = range(-4, 5)


def pass_rng(seed: int, workload: str, index: int) -> random.Random:
    """Independent generator for pass ``index`` of a run with this seed."""
    return random.Random(f"{workload}/{seed}/{index}")


def ladder_pass(rng: random.Random) -> list[tuple[int, int]]:
    """The twelve ladder boxes in a seeded order."""
    boxes = list(LADDER)
    rng.shuffle(boxes)
    return boxes


def verify_pass(rng: random.Random) -> int:
    """The ``--seed`` handed to ``flopk verify-all``."""
    return rng.randrange(10**6)


def atom_pool(t: int, h: int) -> list[list]:
    """Every atom the session may draw on G(t,h)."""
    c = h - t
    pool: list[list] = []
    for alpha in _SMALL:
        if len(alpha) <= t:
            pool.append(["sub", list(alpha)])
    for alpha in _SMALL[1:]:
        if len(alpha) <= t:
            pool.append(["sub*", list(alpha)])
    for alpha in _SMALL[1:]:
        if len(alpha) <= c:
            pool.append(["quot", list(alpha)])
    pool.append(["tangent_wedge", 1])
    pool.append(["tangent_wedge", 2])
    pool.extend(["line", k] for k in LINE_TWISTS)
    return pool


def random_weight(rng: random.Random, t: int, h: int) -> list[list[int]]:
    """A weight (a | b) with non-increasing blocks of lengths t and h-t."""
    def block(n):
        return sorted((rng.randint(-WEIGHT_RANGE, WEIGHT_RANGE) for _ in range(n)), reverse=True)
    return [block(t), block(h - t)]


def taut_pass(rng: random.Random) -> dict:
    """One library-use session: expansions, Koszul classes, the index-2
    counterexample, Hodge tables and Bott weights with their Serre duals."""
    pools = {box: atom_pool(*box) for box in TAUT_BOXES}
    expansions = []
    for _ in range(EXPANSIONS_PER_PASS):
        box = rng.choice(TAUT_BOXES)
        pool = pools[box]
        expansions.append([list(box), rng.choice(pool), rng.choice(pool)])
    weights = []
    for _ in range(WEIGHTS_PER_PASS):
        t, h = rng.choice(WEIGHT_BOXES)
        weights.append(random_weight(rng, t, h))
    return {
        "expansions": expansions,
        "koszul": list(KOSZUL_HS),
        "counterexample": list(COUNTEREXAMPLE_BASES),
        "hodge": [list(b) for b in HODGE_BOXES],
        "weights": weights,
    }


def pass_inputs(workload: str, seed: int, index: int):
    """The generated inputs of one pass of a workload."""
    rng = pass_rng(seed, workload, index)
    if workload == "flop-ladder":
        return ladder_pass(rng)
    if workload == "verify-all":
        return verify_pass(rng)
    if workload == "taut-session":
        return taut_pass(rng)
    raise ValueError(f"unknown workload {workload!r}")
