"""Seeded random rationals used by all genericity-based checks.

Small heights keep exact arithmetic fast while staying generic with
overwhelming probability: numerators in [-9, 9], denominators in {1, 2, 3}.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import GenericityError
from .linalg import QMatrix

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)

MAX_RETRIES = 8


def rand_rational(rng: random.Random) -> Fraction:
    return Fraction(
        rng.randint(*NUMERATOR_RANGE), rng.choice(DENOMINATORS)
    )


def rand_vector(rng: random.Random, length: int) -> tuple:
    return tuple(rand_rational(rng) for _ in range(length))


def rand_distinct_rationals(rng: random.Random, count: int) -> tuple:
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


def rand_invertible_matrix(rng: random.Random, n: int):
    for _ in range(MAX_RETRIES + 1):
        m = QMatrix([rand_vector(rng, n) for _ in range(n)])
        if m.is_invertible():
            return m
    raise GenericityError("failed to sample an invertible matrix")
