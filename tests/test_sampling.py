"""The seeded samplers against the routes they replaced.

``rand_distinct_rationals`` refuses a count its heights cannot give and
otherwise draws exactly what the plain redraw loop drew.
``rand_invertible_matrix`` returns integer rows over one denominator,
ranked on integers, where it built and ranked a ``Fraction`` matrix.
"""

import random
from fractions import Fraction

import pytest

from rncgeom.errors import GenericityError, SpecError
from rncgeom.linalg import QMatrix
from rncgeom.sampling import (
    DENOMINATORS,
    DISTINCT_RATIONALS,
    MAX_RETRIES,
    NUMERATOR_RANGE,
    rand_distinct_rationals,
    rand_invertible_matrix,
    rand_rational,
    rand_vector,
)


def reference_distinct_rationals(rng, count):
    """The loop as first written: redraw until ``count`` values are distinct."""
    seen = []
    while len(seen) < count:
        x = rand_rational(rng)
        if x not in seen:
            seen.append(x)
    return tuple(seen)


def reference_invertible_matrix(rng, n):
    """The draw as first written: a ``QMatrix`` of rows, ranked over Fraction."""
    for _ in range(MAX_RETRIES + 1):
        m = QMatrix([rand_vector(rng, n) for _ in range(n)])
        if m.is_invertible():
            return m
    raise GenericityError("failed to sample an invertible matrix")


class TestDistinctRationals:
    def test_the_heights_give_41_values(self):
        low, high = NUMERATOR_RANGE
        values = {Fraction(a, b) for a in range(low, high + 1) for b in DENOMINATORS}
        assert DISTINCT_RATIONALS == len(values) == 41
        assert set(rand_distinct_rationals(random.Random(0), 41)) == values

    @pytest.mark.parametrize("count", [0, 1, 3, 12, 40, 41])
    def test_draws_are_unchanged(self, count):
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            assert rand_distinct_rationals(rng, count) == reference_distinct_rationals(ref, count)
            assert rng.getstate() == ref.getstate()

    def test_too_many_is_refused_before_drawing(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(SpecError, match="cannot draw 42 distinct rationals: .* give 41$"):
            rand_distinct_rationals(rng, 42)
        assert rng.getstate() == state


class TestInvertibleMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_the_fraction_route(self, n):
        # n = 1 draws a zero 1 x 1 matrix about once in 19 tries, so the
        # seeds also cover redraws
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            rows, den = rand_invertible_matrix(rng, n)
            expected = reference_invertible_matrix(ref, n)
            assert rng.getstate() == ref.getstate()
            assert (rows, den) == expected.cleared
            assert all(type(x) is int for row in rows for x in row)
            assert QMatrix([[Fraction(x, den) for x in row] for row in rows]) == expected
