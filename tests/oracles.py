"""Reference implementations that only the tests use."""

from fractions import Fraction

from flopk.bott import BottResult
from flopk.chow import ch_matrix_inverse
from flopk.kgroup import IntegerMatrix, KVector, binomial_change
from flopk.partitions import Partition, enumerate_box, partitions_of


def rational_det(matrix) -> Fraction:
    """Determinant over the rationals by Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _horizontal_strips(lam, box):
    """The nu in the box with nu/lam a horizontal strip (nu interlaces lam)."""
    lam = tuple(lam) + (0,) * (box.rows - len(lam))
    out = [()]
    for i in range(box.rows):
        top = lam[i - 1] if i else box.cols
        out = [nu + (part,) for nu in out for part in range(lam[i], top + 1)]
    return [Partition(nu) for nu in out]


def pieri_twist(box) -> IntegerMatrix:
    """T, multiplication by O(1) in the basis s_mu(z) of K(G), by the Pieri rule.

    O(1) = prod (1 + z_i)^-1 = sum_k (-1)^k h_k(z), and h_k(z) vanishes for
    k above the box width, so column lam has the sign (-1)^(|nu|-|lam|) at
    every nu in the box with nu/lam a horizontal strip, and zeros elsewhere.
    """
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    n = len(basis)
    twist = [[0] * n for _ in range(n)]
    for j, lam in enumerate(basis):
        for nu in _horizontal_strips(lam, box):
            twist[index[nu]][j] = (-1) ** (nu.size - lam.size)
    return IntegerMatrix(twist)


def dense_flop_matrix(box) -> IntegerMatrix:
    """The flop matrix as the dense product D^-1 . T^c . D . Pi.

    Pi sends each basis partition to its rotated box complement, D and
    D^-1 are the binomial change of basis to the s_mu(z) and back, and T
    is the Pieri twist by O(1) in the s_mu(z) basis, applied c times.
    """
    basis = enumerate_box(box)
    index = {p: i for i, p in enumerate(basis)}
    d, d_inv = binomial_change(box)
    m = IntegerMatrix.from_columns(
        [d.column(index[box.complement(alpha)]) for alpha in basis]
    )
    twist = pieri_twist(box)
    for _ in range(box.cols):
        m = twist @ m
    return d_inv @ m


def ch_expand(expr, box) -> KVector:
    """Expansion of a tautological class on the Chern-character route.

    Takes the character of the expression, solves against the character
    matrix of the basis, and demands an integral solution: a non-integral
    one can only come from a malformed expression or a bug, never from
    rounding, and raises ArithmeticError.
    """
    chv = expr.ch(box)
    rhs = [chv.coefficient(p) for p in enumerate_box(box)]
    coords = []
    for row in ch_matrix_inverse(box):
        val = sum(a * b for a, b in zip(row, rhs))
        if val.denominator != 1:
            raise ArithmeticError(
                f"expansion of {expr!r} on {box} has non-integer coordinate {val}"
            )
        coords.append(val.numerator)
    return KVector(box, tuple(coords))


def sort_bott_cohomology(w):
    """Borel-Weil-Bott by rho-shift, sort and inversion count.

    The dimension is the Weyl dimension of the sorted shifted weight minus
    rho, with the numerator and the denominator prod (j - i) both formed
    on every call; None when the shifted weight has a repeated entry.
    """
    h = w.h
    rho = tuple(range(h - 1, -1, -1))
    v = tuple(x + r for x, r in zip(w.a + w.b, rho))
    if len(set(v)) < h:
        return None
    degree = sum(1 for i in range(h) for j in range(i + 1, h) if v[i] < v[j])
    lam = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    num = den = 1
    for i in range(h):
        for j in range(i + 1, h):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    if num % den:
        raise ArithmeticError(f"non-integral Weyl dimension {num}/{den} for {lam}")
    return BottResult(degree, num // den)


def _lr_count(nu, lam, mu) -> int:
    """Number of Littlewood-Richardson tableaux of shape nu/lam, content mu.

    Cells are filled row by row, right to left within each row, which is
    exactly the order of the reverse reading word; the lattice (ballot)
    condition is enforced incrementally along with semistandardness.
    """
    if not nu.contains(lam) or nu.size != lam.size + mu.size:
        return 0
    inner = tuple(lam) + (0,) * (len(nu) - len(lam))
    cells = []  # (row, col) in reverse-reading order, 0-based
    for r in range(len(nu)):
        for c in range(nu[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))
    if not cells:
        return 1
    nvals = len(mu)
    counts = [0] * (nvals + 1)
    filling = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = filling.get((r - 1, c), 0) if r > 0 and c >= inner[r - 1] else 0
        right = filling.get((r, c + 1), nvals)
        total = 0
        for v in range(above + 1, min(right, nvals) + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            total += fill(idx + 1)
            del filling[(r, c)]
            counts[v] -= 1
        return total

    return fill(0)


def enumerate_lr(lam, mu, box=None) -> dict:
    """LR coefficients by candidate enumeration: every partition nu of
    |lam| + |mu| with at most rows(lam) + rows(mu) rows and
    cols(lam) + cols(mu) columns that contains lam, counted by a tableau
    search, then truncated to the box.  Most candidates count zero."""
    lam, mu = Partition(lam), Partition(mu)
    out = {}
    for nu in partitions_of(lam.size + mu.size, lam.rows + mu.rows, lam.cols + mu.cols):
        if nu.contains(lam) and (box is None or nu.fits(box)):
            c = _lr_count(nu, lam, mu)
            if c:
                out[nu] = c
    return out


def filling_lr(nu, lam, mu) -> int:
    """LR coefficient by brute force over fillings: fill nu/lam row by row,
    left to right, with values weakly increasing along rows, strictly
    increasing down columns and within the content mu; check the lattice
    condition on each completed reverse reading word (rows top to bottom,
    right to left)."""
    if not nu.contains(lam) or nu.size != lam.size + mu.size:
        return 0
    inner = tuple(lam) + (0,) * (len(nu) - len(lam))
    rows = [range(inner[r], nu[r]) for r in range(len(nu))]
    cells = [(r, c) for r, row in enumerate(rows) for c in row]
    reading = [(r, c) for r, row in enumerate(rows) for c in reversed(row)]
    room = [0, *mu]
    value = {}

    def fill(k):
        if k == len(cells):
            word = [value[cell] for cell in reading]
            return int(all(word[:i].count(v) < word[:i].count(v - 1)
                           for i, v in enumerate(word) if v > 1))
        r, c = cells[k]
        low = max(value.get((r, c - 1), 1), value.get((r - 1, c), 0) + 1)
        found = 0
        for v in range(low, len(room)):
            if room[v]:
                room[v] -= 1
                value[r, c] = v
                found += fill(k + 1)
                room[v] += 1
        return found

    return fill(0)
