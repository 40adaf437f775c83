"""Young-diagram combinatorics.

Partitions label every basis in this package: the Schubert basis of the
Chow ring of G(t,h) and the Schur-power basis of its Grothendieck group
are both indexed by the partitions fitting in a t x (h-t) box.  This
module provides the diagrams themselves, the canonical enumeration order
of a box, and Littlewood-Richardson coefficients.

Littlewood-Richardson coefficients are counted by generating the LR
tableaux themselves (Fulton, *Young Tableaux*, Section 5): the rows of mu
are added to lam as horizontal strips labelled 1, 2, ..., and in each
row r the i's in rows <= r may not outnumber the (i-1)'s in rows < r.
The row and column bounds of the product (a box's sides, or else
rows(lam) + rows(mu) and cols(lam) + cols(mu)) prune the generation as
the shape grows, so no tableau is built that is not counted.

Canonical box order: partitions are graded by size, and within a grade
sorted lexicographically descending.  Every matrix in the package is
written with respect to this order, so outputs are deterministic.
``box_index`` is the one generator of the order: it ranks the exponent
tuples lam + delta, delta = (t-1, ..., 0), with no Partition built, and
``enumerate_box`` and ``box_labels`` read their partitions and labels off
its keys.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Iterable, Iterator, Optional


def require_ints(values: Iterable, what: str) -> None:
    """Raise TypeError at the first value whose type is not exactly int.

    The package's one strict-integer rule: bool and float are refused,
    so a non-integer is never truncated.

    >>> require_ints((3, 2.5), "parts")
    Traceback (most recent call last):
    TypeError: parts must be int, got 2.5
    """
    for x in values:
        if type(x) is not int:
            raise TypeError(f"{what} must be int, got {x!r}")


class Partition(tuple):
    """A partition: non-increasing tuple of positive integers.

    Trailing zeros are stripped on construction; the empty partition is
    ``Partition()``.  Parts must be ``int`` (bool excluded): anything else
    raises TypeError rather than being truncated.
    """

    def __new__(cls, parts=()):
        parts = tuple(parts)
        require_ints(parts, "parts")
        prev = None
        for p in parts:
            if p < 0:
                raise ValueError(f"parts must be positive, got {parts}")
            if prev is not None and prev < p:
                raise ValueError(f"parts must be non-increasing, got {parts}")
            prev = p
        if prev == 0:
            parts = parts[: parts.index(0)]
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        """Number of cells of the diagram."""
        return sum(self)

    @property
    def rows(self) -> int:
        """Number of rows (the number of parts)."""
        return len(self)

    @property
    def cols(self) -> int:
        """Number of columns (the largest part; 0 for the empty diagram)."""
        return self[0] if self else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (an involution).

        >>> Partition((3, 1)).conjugate()
        Partition((2, 1, 1))
        """
        return Partition(sum(1 for p in self if p > i) for i in range(self.cols))

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other_i <= self_i for every row."""
        if len(other) > len(self):
            return False
        return all(o <= s for s, o in zip(self, other))

    def fits(self, box: "BoxShape") -> bool:
        return self.rows <= box.rows and self.cols <= box.cols

    def text(self) -> str:
        """Comma-separated parts; "-" for the empty partition."""
        return ",".join(str(p) for p in self) if self else "-"

    def __repr__(self):
        return f"Partition({tuple(self)})"


class Record:
    """An immutable value whose two or more fields a subclass names in
    ``__slots__`` and sets in ``__init__`` by ``object.__setattr__``: it
    equals only its own class, hashes as its fields' tuple and prints as
    ``Name(field=value)``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # attrgetter of two or more names returns the fields' tuple; of
        # one name it would return the bare value, so one field is refused
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:
            raise TypeError(f"a Record needs two or more fields, got {cls.__slots__}")
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)


class BoxShape(Record):
    """A t x (h-t) rectangle bounding the partitions under consideration.

    ``rows`` is the rank t of the tautological subbundle and ``cols`` the
    rank h-t of the quotient; the Grassmannian G(t,h) has dimension
    rows*cols and its K-group has rank C(rows+cols, rows).
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        require_ints((rows, cols), "box sides")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"box must have positive sides, got {self}")

    @classmethod
    def for_grassmannian(cls, t: int, h: int) -> "BoxShape":
        if not 1 <= t <= h - 1:
            raise ValueError(f"need 1 <= t <= h-1, got t={t}, h={h}")
        return cls(t, h - t)

    @property
    def dim(self) -> int:
        """Dimension of the Grassmannian: rows * cols."""
        return self.rows * self.cols

    @property
    def rank(self) -> int:
        """Rank of the free abelian group indexed by this box."""
        return comb(self.rows + self.cols, self.rows)

    @property
    def h(self) -> int:
        return self.rows + self.cols


def partitions_of(
    n: int, max_rows: Optional[int] = None, max_part: Optional[int] = None
) -> Iterator[Partition]:
    """All partitions of n with bounded length and part size, lex descending;
    none for n < 0."""
    if max_rows is None:
        max_rows = n
    if max_part is None:
        max_part = n
    require_ints((n, max_rows, max_part), "n, max_rows and max_part")
    if n < 0:
        return iter(())

    def rec(remaining, rows_left, cap):
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        top = min(cap, remaining)
        # smallest admissible first part: need remaining <= first * rows_left
        low = -(-remaining // rows_left)
        for first in range(top, low - 1, -1):
            for rest in rec(remaining - first, rows_left - 1, first):
                yield (first,) + rest

    return (Partition(parts) for parts in rec(n, max_rows, max_part))


@cache  # one dict of C(h, t) keys per box a session meets
def box_index(box: BoxShape) -> dict[tuple[int, ...], int]:
    """Basis index of each partition lam, keyed by its exponents lam + delta:
    the decreasing t-subsets of {0, ..., h-1}, lex descending, stably sorted
    by their sum |lam| + |delta|, is the canonical order, with no Partition."""
    subsets = combinations(range(box.h - 1, -1, -1), box.rows)
    return {e: j for j, e in enumerate(sorted(subsets, key=sum))}


@cache  # one tuple of C(h, t) partitions per box a session labels
def enumerate_box(box: BoxShape) -> tuple[Partition, ...]:
    """All partitions fitting in the box, graded by size then lex descending:
    part i of the partition with exponents e is e_i - (t - 1 - i).

    The length is always C(rows+cols, rows).

    >>> [p.text() for p in enumerate_box(BoxShape(2, 2))]
    ['-', '1', '2', '1,1', '2,1', '2,2']
    """
    t = box.rows
    return tuple(Partition([e - t + 1 + i for i, e in enumerate(exps)]) for exps in box_index(box))


def box_labels(box: BoxShape) -> list[str]:
    """``p.text()`` of each partition p of ``enumerate_box``, read off its
    exponents with no Partition built: zero parts are dropped."""
    t = box.rows
    return [",".join([str(e - t + 1 + i) for i, e in enumerate(exps) if e > t - 1 - i]) or "-"
            for exps in box_index(box)]


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients
# ---------------------------------------------------------------------------

@cache  # unbounded: one entry per pair and bound a session multiplies
def _lr_expand(
    lam: Partition, mu: Partition, max_rows: int, max_cols: int
) -> tuple[tuple[Partition, int], ...]:
    """Every LR tableau of shape nu/lam and content mu with nu inside
    max_rows x max_cols, counted by nu, nu lex descending.

    Label i's cells form a horizontal strip of mu_i cells on the current
    shape, so rows weakly increase and columns strictly increase by
    construction.  The strip is placed row by row, top to bottom, and the
    reverse reading word stays a lattice word: the i's in rows <= r may
    not outnumber the (i-1)'s in rows < r.  A row takes at least the
    cells that the rows below it have no room for, so a strip never
    stops short of mu_i cells.
    """
    if lam.rows > max_rows or lam.cols > max_cols:
        return ()
    shape = list(lam) + [0] * (max_rows - lam.rows)
    strips = [[0] * max_rows for _ in range(len(mu) + 1)]  # label i's row counts
    found: dict[tuple[int, ...], int] = {}

    def place(i: int, r: int, left: int, slack: int, last: int) -> None:
        # label i goes into row r: `left` of its cells remain, the lattice
        # condition lets at most `slack` of them into rows <= r, and rows
        # up to `last` may take cells
        strip = strips[i]
        old = shape[r]
        room = (shape[r - 1] - strip[r - 1] if r else max_cols) - old
        below = old - shape[last] if r < last else 0  # room in rows r+1..last
        for n in range(min(left, room, slack), max(0, left - below) - 1, -1):
            shape[r] = old + n
            strip[r] = n
            if n == left:
                begin(i + 1)
            else:
                place(i, r + 1, left - n, slack - n + strips[i - 1][r], last)
        shape[r] = old
        strip[r] = 0

    def begin(i: int) -> None:
        if i > len(mu):
            key = tuple(shape)
            found[key] = found.get(key, 0) + 1
            return
        length = next((r for r, p in enumerate(shape) if not p), max_rows)
        # label 1 has no lattice constraint: the empty strips[0] leaves its
        # slack at mu_1
        place(i, 0, mu[i - 1], 0 if i > 1 else mu[0], min(length, max_rows - 1))

    begin(1)
    return tuple((Partition(nu), c) for nu, c in sorted(found.items(), reverse=True))


def lr_coefficients(
    lam: Partition, mu: Partition, box: Optional[BoxShape] = None
) -> dict[Partition, int]:
    """Littlewood-Richardson coefficients c^nu_{lam,mu}, in the order of
    ``partitions_of``.

    Computed by generating the LR tableaux of content mu on lam directly
    (Fulton, *Young Tableaux*, Section 5): the rows of mu are added to lam
    as horizontal strips labelled 1, 2, ..., keeping the reverse reading
    word a lattice word, so each tableau is generated exactly once and no
    shape nu without one is ever listed.  When a box is supplied, terms
    with nu outside the box are dropped; this is the truncation under
    which Schubert classes multiply, and the box's sides bound the shapes
    during generation.  Without a box, nu has at most rows(lam) + rows(mu)
    rows and cols(lam) + cols(mu) columns.
    """
    lam, mu = Partition(lam), Partition(mu)
    if mu.size > lam.size:
        lam, mu = mu, lam  # c^nu_{lam,mu} = c^nu_{mu,lam}: fewer cells to label
    if box is None:
        return dict(_lr_expand(lam, mu, lam.rows + mu.rows, lam.cols + mu.cols))
    return dict(_lr_expand(lam, mu, box.rows, box.cols))
