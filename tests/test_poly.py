from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom.errors import DegenerateCurveError, DimensionMismatchError
from rncgeom.poly import (
    Polynomial,
    RationalCurve,
    combine,
    compositions,
    curve_normalize,
    poly_gcd_univariate,
    power_product,
)


def P(nvars, terms):
    return Polynomial(nvars, terms)


class TestDerivative:
    def test_single_t_derivative(self):
        # d/dt of t^2 s -> 2 t s
        p = P(2, {(2, 1): 1})
        assert p.partial((1, 0)) == P(2, {(1, 1): 2})

    def test_second_derivative(self):
        p = Polynomial.univariate([0, 0, 0, 1])  # t^3
        assert p.partial((2,)) == Polynomial.univariate([0, 6])

    def test_mixed_derivative(self):
        # frozen from the term-wise power rule: d^2/(dt ds) (ts + t^2 s^2) = 1 + 4ts
        p = P(2, {(1, 1): 1, (2, 2): 1})
        assert p.partial((1, 1)) == P(2, {(0, 0): 1, (1, 1): 4})

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            P(2, {(1, 1): 1}).partial((1,))


class TestPowerProduct:
    def test_skips_zero_exponents(self):
        t, s = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert power_product([t, s, t + s], (2, 0, 1)) == t**3 + t**2 * s

    def test_empty_product_is_one(self):
        t = Polynomial.variable(1, 0)
        assert power_product([t], (0,)) == Polynomial.one(1)


class TestEval:
    def test_simple(self):
        p = P(2, {(2, 0): 1, (0, 1): 1})  # t^2 + s
        assert p.eval((F(2), F(3))) == 7

    def test_zero_poly(self):
        assert Polynomial.zero(3).eval((F(1), F(2), F(3))) == 0

    def test_rational_point(self):
        p = P(2, {(1, 1): 1, (0, 0): -1})  # ts - 1
        assert p.eval((F(1, 2), F(2))) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.one(2).eval((F(1),))


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def poly_strategy(nvars=2, max_deg=3):
    expo = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(expo, small_fracs, max_size=5).map(
        lambda d: Polynomial(nvars, d)
    )


class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(a=poly_strategy(), b=poly_strategy(), c=poly_strategy())
    def test_associativity_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(p=poly_strategy(), a=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           b=st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_derivatives_commute(self, p, a, b):
        assert p.partial(a).partial(b) == p.partial(b).partial(a)

    @settings(max_examples=30, deadline=None)
    @given(p=poly_strategy(), q=poly_strategy(),
           pt=st.tuples(small_fracs, small_fracs))
    def test_eval_is_ring_map(self, p, q, pt):
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


class TestCompositions:
    def test_no_parts(self):
        assert compositions(0, 0) == [()]
        assert compositions(2, 0) == []

    def test_lexicographic_order(self):
        assert compositions(2, 3) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)
        ]


class TestHomogenize:
    @settings(max_examples=40, deadline=None)
    @given(p=poly_strategy(), weights=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           extra=st.integers(0, 2))
    def test_dehomogenizes_back(self, p, weights, extra):
        degree = extra + max(
            (sum(w * e for w, e in zip(weights, expo)) for expo, _ in p.items()),
            default=0,
        )
        args = [Polynomial.one(2), Polynomial.variable(2, 0), Polynomial.variable(2, 1)]
        assert p.homogenize(degree, weights).compose(args) == p

    def test_weighted_terms(self):
        # t + s^2: to degree 3 with weights (1, 1), to degree 4 with weights (1, 2)
        p = P(2, {(1, 0): 1, (0, 2): 1})
        assert p.homogenize(3, (1, 1)) == P(3, {(2, 1, 0): 1, (1, 0, 2): 1})
        assert p.homogenize(4, (1, 2)) == P(3, {(3, 1, 0): 1, (0, 0, 2): 1})

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0).homogenize(2, (3, 1))


class TestCombine:
    def test_linear_combination(self):
        t, s = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert combine([F(2), 0, -1], [t, s, t * s]) == t.scale(2) - t * s

    def test_cancellation_and_zero_coefficients(self):
        t = Polynomial.variable(3, 0)
        assert combine([1, -1], [t, t]) == Polynomial.zero(3)
        zero = combine([F(0), 0], [t, t * t])
        assert zero == Polynomial.zero(3) and zero.nvars == 3


class TestComposeAndText:
    def test_compose_line(self):
        # s^2 composed with s = 1 + 2t
        p = Polynomial.monomial(1, (2,))
        line = Polynomial.univariate([1, 2])
        assert p.compose([line]) == Polynomial.univariate([1, 4, 4])

    def test_text_graded_lex(self):
        # degree-2 terms first, ties broken lexicographically on exponents
        p = P(2, {(1, 0): 1, (0, 2): F(3, 2), (1, 1): -1, (0, 0): 5})
        assert p.to_text(["t", "s"]) == "-t * s + 3/2 * s^2 + t + 5"

    def test_text_zero(self):
        assert Polynomial.zero(1).to_text() == "0"


class TestUnivariateGcd:
    def test_gcd_basic(self):
        a = Polynomial.univariate([-1, 0, 1])  # t^2 - 1
        b = Polynomial.univariate([-1, 1])  # t - 1
        assert poly_gcd_univariate(a, b) == b

    def test_gcd_canonical_sign(self):
        a = Polynomial.univariate([2, -2])  # -2t + 2
        g = poly_gcd_univariate(a, a)
        assert g == Polynomial.univariate([-1, 1])


class TestCurveNormalize:
    def test_gcd_removal(self):
        c = RationalCurve([
            Polynomial.univariate([0, 0, 2]),
            Polynomial.univariate([0, 0, 0, 2]),
        ])
        normalized = curve_normalize(c)
        assert normalized.components == (
            Polynomial.one(1),
            Polynomial.univariate([0, 1]),
        )

    def test_idempotent(self):
        c = RationalCurve([
            Polynomial.univariate([-1, 0, 1]),
            Polynomial.univariate([-1, 1]),
        ])
        once = curve_normalize(c)
        assert once.components == (
            Polynomial.univariate([1, 1]),
            Polynomial.one(1),
        )
        assert curve_normalize(once) == once

    def test_projective_points_preserved(self):
        base = RationalCurve([
            Polynomial.univariate([1, 2]),
            Polynomial.univariate([0, 1, 1]),
        ])
        factor = Polynomial.univariate([3, 0, 2])
        scaled = RationalCurve([c * factor for c in base.components])
        normalized = curve_normalize(scaled)
        for t in (F(0), F(1), F(-2), F(1, 3)):
            a = base.eval(t)
            b = normalized.eval(t)
            assert a[0] * b[1] == a[1] * b[0]

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateCurveError):
            RationalCurve([Polynomial.zero(1), Polynomial.zero(1)])
