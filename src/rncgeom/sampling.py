"""Seeded random rationals used by all genericity-based checks.

Small heights keep exact arithmetic fast while staying generic with
overwhelming probability: numerators in [-9, 9], denominators in {1, 2, 3}.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import GenericityError, SpecError
from .linalg import integer_rank
from .poly import clear_denominators

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)

MAX_RETRIES = 8


def rand_rational(rng: random.Random) -> Fraction:
    return Fraction(
        rng.randint(*NUMERATOR_RANGE), rng.choice(DENOMINATORS)
    )


def rand_vector(rng: random.Random, length: int) -> tuple:
    return tuple(rand_rational(rng) for _ in range(length))


# how many distinct values rand_rational can draw
_NUMERATORS = range(NUMERATOR_RANGE[0], NUMERATOR_RANGE[1] + 1)
DISTINCT_RATIONALS = len({Fraction(a, b) for a in _NUMERATORS for b in DENOMINATORS})


def rand_distinct_rationals(rng: random.Random, count: int) -> tuple:
    if count > DISTINCT_RATIONALS:
        raise SpecError(
            f"cannot draw {count} distinct rationals: the sampler's heights give "
            f"{DISTINCT_RATIONALS}"
        )
    seen = []
    while len(seen) < count:
        x = rand_rational(rng)
        if x not in seen:
            seen.append(x)
    return tuple(seen)


def rand_points(rng: random.Random, count: int, length: int) -> list:
    """Independent points of Q^length."""
    return [rand_vector(rng, length) for _ in range(count)]


def rand_distinct_points(rng: random.Random, count: int, length: int) -> list:
    """Pairwise distinct points of Q^length, redrawn together until they are."""
    while True:
        points = rand_points(rng, count, length)
        if len(set(points)) == count:
            return points


def rand_points_distinct_first_coord(rng: random.Random, count: int, length: int):
    """Points in Q^length whose first coordinates are pairwise distinct."""
    firsts = rand_distinct_rationals(rng, count)
    return [
        (firsts[i],) + rand_vector(rng, length - 1) for i in range(count)
    ]


def rand_invertible_matrix(rng: random.Random, n: int) -> tuple:
    """An invertible n x n draw as ``(rows, den)``: integer rows over one
    common denominator, checked by ``integer_rank``."""
    for _ in range(MAX_RETRIES + 1):
        ints, den = clear_denominators([rand_rational(rng) for _ in range(n * n)])
        rows = [ints[i * n : (i + 1) * n] for i in range(n)]
        if integer_rank(rows, n) == n:
            return rows, den
    raise GenericityError("failed to sample an invertible matrix")
