"""The flop correspondence on K(G(t,h)) as the compound of one h x h matrix.

The basis class s_lam of K(G) (``kgroup``) is the alternant
a_(lam+delta)(x) / a_delta(x) in the K-theoretic Chern roots of the
subbundle, and each root has (x - 1)^h = 0.  So the alternants are wedges
in wedge^t R, R = Z[x]/(x - 1)^h with basis 1, x, ..., x^(h-1), and the
flop needs only R's arithmetic: the remainder of a power x^e
(``_column``), the powers of x^-1 (``_inverse_powers``), the rows of the
flop matrix F (``_flop_rows``) and its certificate
(``flop_certificate``).  ``kgroup`` straightens weights with ``_column``
and ``_wedge`` and wraps the rows as a checked matrix
(``kgroup.flop_matrix``); the command line prints the rows and the
certificate from here alone.

F is eps . C_t(M), the t-th compound of one h x h matrix.  The twist by
O(1) = (x_1 ... x_t)^-1 is wedge^t U_1, U_1 multiplication by x^-1, and
the rotated box complement is eps . wedge^t P_1, P_1 the reversal
x^k -> x^(h-1-k), eps = (-1)^(t(t-1)/2).  So with c = h - t, F = U^c . Pi
is eps times the compound of M = U_1^c . P_1, whose column k is
x^(t-1-k): no straightening and no Littlewood-Richardson sum.
``flop_certificate`` never forms F: it checks that U_1 . P_1 is an
involution and reads det F off its trace.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from math import comb

from .partitions import BoxShape, box_index


def _binomials(n: int, count: int) -> list[int]:
    """C(n, k) for k < count and any integer n, each from the one before by
    the exact step C(n, k + 1) = C(n, k) (n - k) / (k + 1)."""
    row = [1]
    for k in range(count - 1):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


@cache  # one column of at most h terms per exponent e and h a session reduces
def _column(e: int, h: int) -> tuple[tuple[int, int], ...]:
    """The (j, a) with x^e = sum a x^j, j < h, modulo (x - 1)^h.

    The remainder is sum_{k<h} C(e, k) (x - 1)^k; its x^j coefficient is
    C(e, j) sum_{m<h-j} (-1)^m C(e - j, m) = (-1)^(h-1-j) C(e, j)
    C(e - j - 1, h - 1 - j) = C(e, j) C(h - e - 1, h - 1 - j), with
    generalized binomials; for e outside [0, h) none of them is zero.
    """
    if 0 <= e < h:
        return ((e, 1),)
    low, high = _binomials(e, h), _binomials(h - e - 1, h)
    return tuple((j, low[j] * high[h - 1 - j]) for j in range(h))


def _inverse_powers(h: int):
    """x^-1, x^-2, ... modulo (x - 1)^h, each as the dense list of its h
    coefficients: the one before times x^-1, a shift down plus its constant
    term times x^-1 (``_column`` at e = -1), so no power is reduced afresh."""
    inverse = [a for _, a in _column(-1, h)]
    column = inverse
    while True:
        yield column
        a = column[0]
        column = [x + a * b for x, b in zip(column[1:] + [0], inverse)]


@cache  # one dict of C(h, t) keys per box a session meets
def _mask_index(box: BoxShape) -> dict[int, int]:
    """``box_index`` keyed by the bitmask of each exponent set."""
    return {sum(1 << e for e in exps): j for exps, j in box_index(box).items()}


def _wedge(wedge: dict[int, int], column) -> dict[int, int]:
    """column ^ wedge, each term keyed by the bitmask of its rows.

    A term keeps its rows falling, as ``box_index`` does, so a new row
    passes the rows above it: a unit column (bit, 1) takes the parity of
    the rows the term holds above it, and a wide column, all h rows as
    (bit, a) with bits falling, flips the sign at each row the term holds.
    """
    out: dict[int, int] = {}
    if len(column) == 1:
        ((bit, _),) = column
        above = -bit
        for mask, x in wedge.items():
            if not mask & bit:
                out[mask | bit] = -x if (mask & above).bit_count() & 1 else x
        return out
    for mask, x in wedge.items():
        for bit, a in column:
            if mask & bit:
                x = -x
            else:
                out[mask | bit] = out.get(mask | bit, 0) + a * x
    return out


def _flop_rows(box: BoxShape) -> list[list[int]]:
    """The rows of F = eps . C_t(M), the wedges of M's columns (see
    ``kgroup.flop_matrix``).

    The columns are wedged (``_wedge``) depth first over decreasing
    prefixes, each new column on the left, so a full wedge lists M's
    columns increasingly, as the alternant of the dual class does, and
    the order of its rows against those columns is the eps of F.  At the
    last column, a wedge with a wide column left to take is first sorted
    by the row of F each of its terms lands in, once for all of them.
    For t = 1 no wedge is needed: F is M.
    """
    t, h, n = box.rows, box.h, box.rank
    rows = [[0] * n for _ in range(n)]
    if t == 1:
        rows[0][0] = 1
        for k, column in zip(range(1, h), _inverse_powers(h)):
            for row, x in zip(rows, column):
                row[k] = x
        return rows
    bits = [1 << i for i in range(h - 1, -1, -1)]
    columns = [((1 << (t - 1 - k), 1),) for k in range(t)] + [
        tuple(zip(bits, reversed(column))) for column in islice(_inverse_powers(h), box.cols)]
    index = _mask_index(box)

    def descend(wedge: dict[int, int], chosen: int, top: int, left: int) -> None:
        # wedge: M's columns in the mask chosen; left more to take, each below top
        if left == 1 and top > t:
            spread = [[] for _ in range(h)]  # spread[h - 1 - i]: (row of F, term) for row i
            for mask, x in wedge.items():
                for bit, pairs in zip(bits, spread):
                    if mask & bit:
                        x = -x
                    else:
                        pairs.append((rows[index[mask | bit]], x))
            for j in range(t, top):
                col = index[chosen | 1 << j]
                for (_, a), pairs in zip(columns[j], spread):
                    for row, x in pairs:
                        row[col] += a * x
            top = t
        for j in range(left - 1, top):
            out = _wedge(wedge, columns[j])
            if left > 1:
                descend(out, chosen | 1 << j, j, left - 1)
                continue
            col = index[chosen | 1 << j]  # a last column here is x^(t-1-j)
            for mask, x in out.items():
                rows[index[mask]][col] = x

    descend({0: 1}, 0, h, t)
    return rows


class CertificateError(ArithmeticError):
    """``flop_certificate`` refused: U_1 . P_1 on Z[x]/(x - 1)^h is not
    the involution that F = eps . C_t(U_1^c . P_1) is built from."""


def flop_certificate(box: BoxShape) -> tuple[int, tuple[int, ...]]:
    """Determinant and Smith form of F = eps . C_t(M), M = U_1^c . P_1,
    from the h x h involution G = U_1 . P_1 alone (see ``kgroup.flop_matrix``).

    G sends x^k to x^(h-2-k) for k < h - 1, and x^(h-1) to x^-1, the
    column ``_flop_rows`` builds M from.  G . G must fix every x^k, else
    CertificateError; then P_1 . U_1 . P_1 = U_1^-1, so M . M =
    U_1^c . (P_1 . U_1 . P_1)^c = I and F . F = eps^2 C_t(M . M) = I.
    Column by column this costs O(h): only x^-1 has more than one term.
    An integer involution G has det G = (-1)^((h - tr G) / 2), and P_1
    has h // 2 transpositions, so det U_1 = det G . det P_1 is computed,
    not assumed; det M = (det U_1)^c . det P_1, and det F =
    eps^C(h,t) . (det M)^C(h-1,t-1) (Sylvester-Franke) = +-1: Smith form
    (1, ..., 1).  F is never formed; Bareiss ``IntegerMatrix.det`` and
    ``smith_normal_form`` are independent routes.
    """
    t, h = box.rows, box.h
    involution = [((h - 2 - k, 1),) for k in range(h - 1)] + [_column(-1, h)]
    trace = 0
    for k, column in enumerate(involution):
        image: dict[int, int] = {}
        for i, a in column:
            trace += a if i == k else 0
            for j, b in involution[i]:
                image[j] = image.get(j, 0) + a * b
        if {j: x for j, x in image.items() if x} != {k: 1}:
            raise CertificateError(f"flop matrix of {box} is not an involution at column x^{k}")
    det_p = (-1) ** (h // 2)
    det_m = ((-1) ** ((h - trace) // 2) * det_p) ** box.cols * det_p
    eps = (-1) ** (t * (t - 1) // 2)
    return eps ** box.rank * det_m ** comb(h - 1, t - 1), (1,) * box.rank
