"""Reference implementations that only the tests use."""

from fractions import Fraction

from flopk.bott import BottResult
from flopk.chow import ch_matrix_inverse
from flopk.kgroup import IntegerMatrix, KVector, binomial_change
from flopk.partitions import Partition, enumerate_box


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
