"""Coordinate model of the flop correspondence for G(2,4).

Near a point of the zero section, the exceptional locus of the blown-up
deformation space is a projective 4-space with homogeneous coordinates
(alpha : x : y : z : w); the correspondence degenerates there to an
explicit rational map into the dual Grassmannian sitting inside P^5 as
the Pluecker quadric.  This module evaluates that limit map, whose zero
tuple marks the indeterminacy locus, and the quadric form, proves by
integer evaluation that the map lands on the quadric, and gives the
dimensions of Springer fibers.  The indeterminacy test and the rank-one
determinantal model of the fiber-product singularities are oracles of
the tests (``tests/oracles.py``).

Everything is generic over the scalars: only ring operations are used,
so any commutative ring works, such as the integers or exact rationals.
Over a prime field F_p, evaluate over the integers and reduce the result
mod p: reduction Z -> F_p is a ring homomorphism, so this gives the F_p
value.
"""

from __future__ import annotations

from typing import Sequence

from .partitions import require_ints


# ---------------------------------------------------------------------------
# Prime moduli
# ---------------------------------------------------------------------------

# Miller-Rabin with the twelve primes up to 37 as bases decides primality
# exactly below this bound (Sorenson and Webster, Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above the bound
    where its bases are proven exact."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is not below {_MILLER_RABIN_BOUND}, the exact primality range")
    if n <= _MILLER_RABIN_BASES[-1]:
        return n in _MILLER_RABIN_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_modulus(p: int) -> int:
    """p itself if it is prime; ValueError if it is not, or if it is too
    large for _is_prime to decide."""
    require_ints((p,), "the modulus")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


# ---------------------------------------------------------------------------
# The limit map and the Pluecker quadric
# ---------------------------------------------------------------------------

def pluecker_limit_map(pt: Sequence):
    """Image of (alpha : x : y : z : w) under the limit of the flop
    correspondence, in Pluecker coordinates (p12:p13:p14:p23:p24:p34).

    The limiting subspace is spanned by (alpha, 0, x, y) and
    (0, alpha, z, w); taking 2x2 minors gives the formula below.  The
    all-zero output is meaningful: it marks the indeterminacy locus.
    """
    alpha, x, y, z, w = pt
    return (
        alpha * alpha,
        alpha * z,
        alpha * w,
        -(alpha * x),
        -(alpha * y),
        x * w - y * z,
    )


def quadric_value(pt: Sequence):
    """The Pluecker quadric p12 p34 - p13 p24 + p14 p23 evaluated at pt."""
    p12, p13, p14, p23, p24, p34 = pt
    return p12 * p34 - p13 * p24 + p14 * p23


# ---------------------------------------------------------------------------
# The identity: the limit map lands on the quadric, proved by evaluation
# ---------------------------------------------------------------------------

def quadric_vanishes_identically() -> bool:
    """Prove that the quadric vanishes on the image of the limit map, as a
    polynomial in (alpha, x, y, z, w), by evaluating it over the integers
    at the 126 points p of N^5 with p1 + ... + p5 <= 4.

    Each coordinate of the map is quadratic, and so is the quadric, so the
    composite has total degree at most 4.  A polynomial of total degree
    <= d in n variables that is zero at every point of N^n with coordinate
    sum <= d is the zero polynomial.  Induction on n and d proves it: the
    polynomial vanishes where the last variable is 0, so it is that
    variable times a polynomial of degree <= d - 1, and that polynomial is
    zero at the same points shifted by one in that variable.
    """
    points = [()]
    for _ in range(5):
        points = [p + (k,) for p in points for k in range(5 - sum(p))]
    return not any(quadric_value(pluecker_limit_map(p)) for p in points)


# ---------------------------------------------------------------------------
# Springer fibers
# ---------------------------------------------------------------------------

def springer_fiber(t: int, h: int, i: int) -> tuple[tuple[int, int], int]:
    """Grassmannian type and dimension of a Springer fiber.

    Over a square-zero endomorphism of rank i, the fiber of the
    resolution of the rank-<=t locus is the Grassmannian of (t-i)-planes
    in an (h-2i)-space, of dimension (t-i)(h-t-i).  The extremes: i = t
    gives a point (the resolution is an isomorphism over the open
    stratum), i = 0 gives the whole zero-section Grassmannian.
    """
    require_ints((t, h, i), "t, h and i")
    if not (0 <= i <= t and 2 * t <= h):
        raise ValueError(f"need 0 <= i <= t and 2t <= h, got t={t}, h={h}, i={i}")
    return (t - i, h - 2 * i), (t - i) * (h - t - i)
