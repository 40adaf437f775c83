"""Output checks written independently of flopk.

Nothing here imports flopk: determinants, ranks, Gaussian binomials and
Smith forms are recomputed with the benchmark's own integer code, so a
wrong answer from the program cannot also corrupt its own check.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb, gcd


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Integer linear algebra
# ---------------------------------------------------------------------------

def det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def is_identity(m: list[list[int]]) -> bool:
    return all(m[i][j] == (i == j) for i in range(len(m)) for j in range(len(m)))


def snf_3x3(m: list[list[int]]) -> tuple[int, int, int]:
    """Smith form of a nonsingular 3x3 matrix from its determinantal
    divisors: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors, d1*d2*d3 = |det|."""
    g1 = 0
    for row in m:
        for x in row:
            g1 = gcd(g1, x)
    g2 = 0
    for r in ((0, 1), (0, 2), (1, 2)):
        for c in ((0, 1), (0, 2), (1, 2)):
            g2 = gcd(g2, m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]])
    g3 = abs(det(m))
    return (g1, g2 // g1, g3 // g2)


# ---------------------------------------------------------------------------
# Box combinatorics
# ---------------------------------------------------------------------------

def _partitions(n: int, rows: int, cap: int):
    """Partitions of n with at most ``rows`` parts, each at most ``cap``,
    lexicographically descending."""
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, rows - 1, first):
            yield (first,) + rest


def box_basis(t: int, c: int) -> list[tuple[int, ...]]:
    """Partitions in the t x c box, graded by size then lex descending."""
    return [p for n in range(t * c + 1) for p in _partitions(n, t, c)]


def schur_rank(alpha, n: int) -> int:
    """Dimension of the Schur power Sigma^alpha of a rank-n bundle, by the
    hook-content formula."""
    alpha = tuple(alpha)
    conj = [sum(1 for p in alpha if p > j) for j in range(alpha[0] if alpha else 0)]
    value = Fraction(1)
    for i, row in enumerate(alpha):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            value *= Fraction(n + j - i, hook)
    return int(value)


def atom_rank(atom, t: int, h: int) -> int:
    kind, arg = atom
    if kind in ("sub", "sub*"):
        return schur_rank(arg, t)
    if kind == "quot":
        return schur_rank(arg, h - t)
    if kind == "line":
        return 1
    if kind == "tangent_wedge":
        return comb(t * (h - t), arg)
    raise ValueError(f"unknown atom {atom}")


def expansion_rank(coords, t: int, h: int) -> int:
    """sum_i coord_i * rank Sigma^{alpha_i} S over the box basis."""
    basis = box_basis(t, h - t)
    if len(coords) != len(basis):
        raise ValueError(f"{len(coords)} coordinates for a basis of {len(basis)}")
    return sum(c * schur_rank(alpha, t) for c, alpha in zip(coords, basis))


def gaussian_coefficients(t: int, h: int) -> list[int]:
    """Coefficients of [h choose t]_q: the number of partitions of k in the
    t x (h-t) box, for k = 0..t(h-t)."""
    c = h - t
    return [sum(1 for _ in _partitions(k, t, c)) for k in range(t * c + 1)]


def serre_dual(a, b, h: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dualize and twist by the canonical bundle O(-h)."""
    return tuple(-x - h for x in reversed(a)), tuple(-x for x in reversed(b))


# ---------------------------------------------------------------------------
# Workload output checks
# ---------------------------------------------------------------------------

def check_flop_output(stdout: str, rc: int, t: int, h: int, expected: str) -> list[str]:
    """Exact digest, det = +-1, all-ones Smith form and M.M = I."""
    problems = []
    if rc != 0:
        problems.append(f"G({t},{h}): exit status {rc}")
    if digest(stdout) != expected:
        problems.append(f"G({t},{h}): stdout digest differs from the recorded one")
    try:
        payload = json.loads(stdout)
        m = [[int(x) for x in row] for row in payload["matrix"]]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"G({t},{h}): unreadable payload: {exc}"]
    n = comb(h, t)
    if len(m) != n or any(len(row) != n for row in m):
        return problems + [f"G({t},{h}): matrix is not {n} x {n}"]
    d = det(m)
    if d not in (1, -1):
        problems.append(f"G({t},{h}): det {d}")
    if payload.get("det") != str(d):
        problems.append(f"G({t},{h}): reported det {payload.get('det')} != {d}")
    # The invariant factors multiply to |det| = 1, so each must be 1.
    if payload.get("snf") != ["1"] * n:
        problems.append(f"G({t},{h}): Smith form {payload.get('snf')} is not all ones")
    if not is_identity(matmul(m, m)):
        problems.append(f"G({t},{h}): M.M is not the identity")
    return problems


LR_VALUES = 3112


def lr_values_checked(detail: str) -> int:
    """The count criterion 9 reports in its detail, or -1 if absent."""
    found = re.search(r"(\d+) LR values", detail)
    return int(found.group(1)) if found else -1


def check_criteria(criteria: list[dict]) -> list[str]:
    """All ten acceptance criteria present and passing, and criterion 9
    compared the full LR range."""
    problems = []
    numbers = sorted(c["number"] for c in criteria)
    if numbers != list(range(1, 11)):
        problems.append(f"criteria {numbers} instead of 1..10")
    for c in criteria:
        if not c["pass"]:
            problems.append(f"criterion {c['number']} failed: {c['detail']}")
        if c["number"] == 9 and lr_values_checked(c["detail"]) != LR_VALUES:
            problems.append(f"criterion 9 checked {c['detail']!r}, want {LR_VALUES} LR values")
    return problems


def check_verify_output(stdout: str, rc: int, expected: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"verify-all: exit status {rc}")
    if digest(stdout) != expected:
        problems.append("verify-all: stdout digest differs from the recorded one")
    try:
        payload = json.loads(stdout)
        criteria = payload["criteria"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"verify-all: unreadable payload: {exc}"]
    if payload.get("all_pass") is not True:
        problems.append("verify-all: all_pass is not true")
    return problems + check_criteria(criteria)


def check_expansion(entry: dict, atoms, t: int, h: int) -> list[str]:
    """The rank of the expansion equals the rank of the tensor product."""
    if "error" in entry:
        return [f"expansion of {atoms} on G({t},{h}): {entry['error']}"]
    want = 1
    for atom in atoms:
        want *= atom_rank(atom, t, h)
    got = expansion_rank(entry["coords"], t, h)
    if got != want:
        return [f"expansion of {atoms} on G({t},{h}) has rank {got}, want {want}"]
    return []


def check_koszul(entry: dict, h: int) -> list[str]:
    """The twisted ideal sheaf of the zero section has rank one."""
    if "error" in entry:
        return [f"koszul h={h}: {entry['error']}"]
    got = expansion_rank(entry["coords"], 1, h)
    return [] if got == 1 else [f"koszul h={h} has rank {got}, want 1"]


def check_counterexample(entry: dict) -> list[str]:
    if "error" in entry:
        return [f"counterexample {entry.get('basis')}: {entry['error']}"]
    snf = snf_3x3(entry["matrix"])
    problems = []
    if snf != (1, 1, 2):
        problems.append(f"counterexample {entry['basis']}: Smith form {snf}, want (1, 1, 2)")
    if entry["index"] != 2:
        problems.append(f"counterexample {entry['basis']}: index {entry['index']}, want 2")
    return problems


def check_hodge(entry: dict, t: int, h: int) -> list[str]:
    if "error" in entry:
        return [f"hodge G({t},{h}): {entry['error']}"]
    table = entry["table"]
    n = t * (h - t) + 1
    diag = [table[p][p] for p in range(n)]
    problems = []
    if diag != gaussian_coefficients(t, h):
        problems.append(f"hodge G({t},{h}): diagonal is not the Gaussian binomial")
    if any(table[p][q] for p in range(n) for q in range(n) if p != q):
        problems.append(f"hodge G({t},{h}): nonzero off-diagonal entry")
    return problems


def check_weight(weight, entry) -> list[str]:
    """Serre duality: H^q(w) and H^(dim-q) of the dual weight agree."""
    a, b = weight
    h = len(a) + len(b)
    dim = len(a) * len(b)
    if "error" in entry:
        return [f"weight {weight}: {entry['error']}"]
    if tuple(map(tuple, entry["dual"])) != serre_dual(a, b, h):
        return [f"weight {weight}: dual weight {entry['dual']}"]
    first, second = entry["coh"], entry["dual_coh"]
    if first is None:
        ok = second is None
    else:
        ok = second is not None and second == [dim - first[0], first[1]]
    return [] if ok else [f"weight {weight}: H {first} vs dual {second}"]
