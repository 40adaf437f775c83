"""Reduced words and chamber combinatorics of the symmetric group.

The birational automorphisms of the deformed cotangent space of a full
flag variety form a symmetric group S_h whose generators, the elementary
flops, correspond to adjacent transpositions.  This module supplies the
word calculus that layer needs: decomposing a permutation into adjacent
transpositions, the palindromic word realizing the duality element, and
sorting a regular polarization vector into the dominant chamber.

Conventions (fixed once, used everywhere):

* permutations are written in one-line notation on {1, ..., h};
* composition is functional, (sigma * tau)(x) = sigma(tau(x));
* a word [i1, i2, ...] acts on vectors left to right, the first letter
  first, each letter swapping two adjacent positions; the permutation of
  a word is therefore s_{i_k} * ... * s_{i_1};
* the dominant chamber is the strictly decreasing one.
"""

from __future__ import annotations

from typing import Sequence

from .partitions import require_ints


class RegularityViolation(Exception):
    """A chamber operation received a vector with repeated entries (a wall
    point, where no chamber sorting exists)."""


class Permutation(tuple):
    """A bijection of {1, ..., h} in one-line notation."""

    def __new__(cls, images):
        images = tuple(images)
        require_ints(images, "permutation entries")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        return super().__new__(cls, images)

    def inverse(self) -> "Permutation":
        images = [0] * len(self)
        for i, v in enumerate(self):
            images[v - 1] = i + 1
        return Permutation(images)

    def inversions(self) -> int:
        return sum(
            1
            for i in range(len(self))
            for j in range(i + 1, len(self))
            if self[i] > self[j]
        )

    def __repr__(self):
        return f"Permutation({tuple(self)})"


def apply_word(word: Sequence[int], seq: Sequence) -> tuple:
    """Apply a word of adjacent swaps to a sequence, first letter first.

    >>> apply_word([1, 2], ("a", "b", "c"))
    ('b', 'c', 'a')
    """
    out = list(seq)
    for i in word:
        if not 1 <= i <= len(out) - 1:
            raise ValueError(f"letter {i} out of range for length {len(out)}")
        out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def word_permutation(word: Sequence[int], h: int) -> Permutation:
    """The permutation realized by a word under left-to-right application.

    Read off the action: ``apply_word`` moves the entry at position j to
    position sigma(j), so it turns 1, ..., h into sigma^-1.

    >>> word_permutation([1, 2], 3)
    Permutation((3, 1, 2))
    """
    return Permutation(apply_word(word, range(1, h + 1))).inverse()


def adjacent_word(sigma: Permutation) -> list[int]:
    """A reduced word for sigma: word_permutation(word, h) == sigma and the
    length equals the inversion count.

    Bubble-sorting the one-line notation into ascending order records, in
    application order, exactly the swaps realizing sigma on positions.

    >>> adjacent_word(Permutation((3, 1, 2)))
    [1, 2]
    """
    values = list(sigma)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(values) - 1):
            if values[i] > values[i + 1]:
                values[i], values[i + 1] = values[i + 1], values[i]
                word.append(i + 1)
                changed = True
    return word


def duality_permutation(h: int) -> Permutation:
    """Ordered product of the adjacent transpositions (1 2)(2 3)...
    (h-1 h)...(2 3)(1 2): the transposition exchanging 1 and h."""
    require_ints((h,), "h")
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    return Permutation((h, *range(2, h), 1))


def duality_word(h: int) -> list[int]:
    """The palindromic word [1, 2, ..., h-2, h-1, h-2, ..., 1] of length
    2h-3 decomposing the (inverse of the) duality element into elementary
    flops.

    >>> duality_word(4)
    [1, 2, 3, 2, 1]
    """
    require_ints((h,), "h")
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    return list(range(1, h)) + list(range(h - 2, 0, -1))


def chamber_sort(vector: Sequence) -> tuple[Permutation, list[int]]:
    """Sort a regular vector into the dominant (strictly decreasing)
    chamber.

    Returns (sigma, word) with word = adjacent_word(sigma); applying the
    word to the vector, first letter first, yields a strictly decreasing
    vector.  Raises RegularityViolation on repeated entries.
    """
    vector = tuple(vector)
    if len(set(vector)) != len(vector):
        raise RegularityViolation(f"entries are not pairwise distinct: {vector}")
    rank = {v: r for r, v in enumerate(sorted(vector, reverse=True), 1)}
    sigma = Permutation(rank[v] for v in vector)
    word = adjacent_word(sigma)
    sorted_vec = apply_word(word, vector)
    if not all(a > b for a, b in zip(sorted_vec, sorted_vec[1:])):
        raise AssertionError(f"word {word} does not sort {vector}")
    return sigma, word
