"""The integer gcd and exact-division kernel against the plain ``Fraction`` reference.

``reference_divmod`` is long division over ``Fraction``, ``reference_gcd``
is Euclid's algorithm over Q made primitive with a positive lead, and
``reference_curve_normalize`` and ``reference_curve_contains_point`` are
built on them.  The canonical gcd and the quotient are unique, so
``poly_gcd_univariate``, ``poly_divexact_univariate``, ``curve_normalize``
and ``curve_contains_point`` must return the same values.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom.poly import (
    Polynomial,
    RationalCurve,
    curve_normalize,
    poly_divexact_univariate,
    poly_gcd_univariate,
)
from rncgeom.rnc import curve_contains_point

# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------


def _coeffs(p: Polynomial) -> list:
    return [p.coefficient((i,)) for i in range(p.total_degree() + 1)]


def reference_divmod(a: Polynomial, b: Polynomial):
    """Quotient and remainder of a by b, by long division over Fraction."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ac = _coeffs(a)
    bc = _coeffs(b)
    q = [Fraction(0)] * max(len(ac) - len(bc) + 1, 1)
    rem = list(ac)
    while len(rem) >= len(bc) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(bc):
            break
        shift = len(rem) - len(bc)
        factor = rem[-1] / bc[-1]
        q[shift] = factor
        for i, c in enumerate(bc):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial.univariate(q), Polynomial.univariate(rem)


def _reference_content(coeffs) -> Fraction:
    """gcd of numerators over lcm of denominators; 0 for no coefficients."""
    num, den, seen = 0, 1, False
    for c in coeffs:
        seen = True
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den) if seen else Fraction(0)


def _reference_primitive(p: Polynomial) -> Polynomial:
    """Integer coefficients with gcd 1 and a positive leading coefficient."""
    if p.is_zero():
        return p
    scaled = p.scale(1 / _reference_content([c for _, c in p.items()]))
    return -scaled if _coeffs(p)[-1] < 0 else scaled


def reference_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    x, y = a, b
    while not y.is_zero():
        x, y = y, reference_divmod(x, y)[1]
    return _reference_primitive(x)


def reference_divexact(a: Polynomial, b: Polynomial) -> Polynomial:
    q, r = reference_divmod(a, b)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def reference_normal_form(comps) -> list:
    """The components of the normal form over ``Fraction``: gcd and content
    removed, first nonzero lead positive."""
    comps = list(comps)
    g = None
    for c in comps:
        if c.is_zero():
            continue
        g = c if g is None else reference_gcd(g, c)
        if g.total_degree() == 0:
            break
    if g.total_degree() > 0:
        comps = [c if c.is_zero() else reference_divexact(c, g) for c in comps]
    content = _reference_content([x for c in comps for _, x in c.items()])
    comps = [c.scale(1 / content) for c in comps]
    lead = _coeffs(next(c for c in comps if not c.is_zero()))[-1]
    return [-c for c in comps] if lead < 0 else comps


def reference_curve_normalize(curve: RationalCurve) -> RationalCurve:
    return RationalCurve(reference_normal_form(curve.components))


def contains_outcome(function, curve, point, assume_normalized):
    """``function(curve, point, assume_normalized)``, or the message of the
    ValueError it raises on a curve that is not normalized under the flag."""
    try:
        return function(curve, point, assume_normalized)
    except ValueError as exc:
        return str(exc)


def _agrees_with_reference(curve, points, assume_normalized):
    for point in points:
        point = point[: len(curve.components)]
        if any(point):
            assert contains_outcome(curve_contains_point, curve, point, assume_normalized) == (
                contains_outcome(reference_curve_contains_point, curve, point, assume_normalized)
            )


def reference_curve_contains_point(curve, point, assume_normalized=False) -> bool:
    c = reference_curve_normalize(curve)
    if assume_normalized and c != curve:
        raise ValueError("curve is not normalized")
    point = tuple(Fraction(x) for x in point)
    m = next(i for i, x in enumerate(point) if x != 0)
    minors = []
    for j in range(len(point)):
        poly = c.components[j].scale(point[m]) - c.components[m].scale(point[j])
        if j != m and not poly.is_zero():
            minors.append(poly)
    if not minors:
        return True
    g = minors[0]
    for poly in minors[1:]:
        g = reference_gcd(g, poly)
    if g.total_degree() >= 1:
        return True
    inf = c.value_at_infinity()
    return all(point[m] * inf[j] - point[j] * inf[m] == 0 for j in range(len(point)))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))


def polys(min_size=0, max_size=5):
    """Univariate polynomials (zero allowed) with Fraction coefficients."""
    return st.lists(COEFF, min_size=min_size, max_size=max_size).map(Polynomial.univariate)


NONZERO = polys(1).filter(lambda p: not p.is_zero())
INTS = st.lists(st.integers(-50, 50), max_size=6)


def _is_canonical(g: Polynomial) -> bool:
    coeffs = [c for _, c in g.items()]
    return (
        all(type(c) is Fraction and c.denominator == 1 for c in coeffs)
        and math.gcd(*(c.numerator for c in coeffs)) == 1
        and _coeffs(g)[-1] > 0
    )


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


class TestGcd:
    @settings(max_examples=200, deadline=None)
    @given(polys(), polys(), polys(0, 4))
    def test_matches_reference_with_common_factor(self, a, b, factor):
        a, b = a * factor, b * factor
        g = poly_gcd_univariate(a, b)
        assert g == reference_gcd(a, b)
        assert g == poly_gcd_univariate(b, a)
        if not g.is_zero():
            assert _is_canonical(g)

    @given(polys())
    def test_zero_operands(self, a):
        zero = Polynomial.zero(1)
        assert poly_gcd_univariate(zero, zero) == zero
        assert poly_gcd_univariate(a, zero) == reference_gcd(a, zero)
        assert poly_gcd_univariate(zero, a) == reference_gcd(a, zero)

    @given(COEFF.filter(bool), NONZERO)
    def test_constant_operand(self, c, a):
        one = Polynomial.one(1)
        assert poly_gcd_univariate(Polynomial.constant(1, c), a) == one
        assert poly_gcd_univariate(a, Polynomial.constant(1, c)) == one

    @given(polys(2), polys(1, 3))
    def test_negative_leads(self, a, factor):
        a, factor = -(a * factor), -factor
        assert poly_gcd_univariate(a, factor) == reference_gcd(a, factor)

    @given(INTS, INTS)
    def test_int_coefficient_operands(self, xs, ys):
        # the cross minors of curve_contains_point reach the gcd with int coefficients
        a, b = Polynomial.from_coeffs(xs), Polynomial.from_coeffs(ys)
        ref = reference_gcd(Polynomial.univariate(xs), Polynomial.univariate(ys))
        assert poly_gcd_univariate(a, b) == ref


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


class TestDivexact:
    @settings(max_examples=200, deadline=None)
    @given(polys(), NONZERO)
    def test_exact_quotient(self, q, b):
        a = q * b
        got = poly_divexact_univariate(a, b)
        assert got == q == reference_divexact(a, b)
        assert all(type(c) is Fraction for _, c in got.items())

    @given(polys(), NONZERO, polys(1, 5))
    def test_not_exact_raises(self, q, b, r):
        a = q * b + r
        try:
            reference_divexact(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="division is not exact"):
                poly_divexact_univariate(a, b)
        else:
            assert poly_divexact_univariate(a, b) == reference_divexact(a, b)

    def test_lead_not_divisible(self):
        a = Polynomial.univariate([1, 0, 1])  # t^2 + 1
        b = Polynomial.univariate([1, 2])  # 2t + 1
        with pytest.raises(ValueError, match="division is not exact"):
            poly_divexact_univariate(a, b)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact_univariate(Polynomial.one(1), Polynomial.zero(1))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


CURVES = st.lists(polys(), min_size=2, max_size=4).filter(
    lambda comps: any(not c.is_zero() for c in comps)
)


class TestCurveNormalize:
    @settings(max_examples=200, deadline=None)
    @given(CURVES, NONZERO)
    def test_matches_reference(self, comps, factor):
        curve = RationalCurve([c * factor for c in comps])
        got = curve_normalize(curve)
        assert got == reference_curve_normalize(curve)
        assert all(type(c) is Fraction for p in got.components for _, c in p.items())

    @given(NONZERO)
    def test_single_component(self, a):
        curve = RationalCurve([Polynomial.zero(1), a])
        assert curve_normalize(curve) == reference_curve_normalize(curve)


class TestContains:
    @settings(max_examples=200, deadline=None)
    @given(CURVES, polys(0, 2), st.lists(COEFF, min_size=4, max_size=4), st.booleans())
    def test_matches_reference(self, comps, factor, point, assume_normalized):
        if not factor.is_zero():
            comps = [c * factor for c in comps]
        curve = RationalCurve(comps)
        _agrees_with_reference(curve, [point], assume_normalized)

    @given(CURVES, COEFF, COEFF.filter(bool), st.booleans())
    def test_points_of_the_curve(self, comps, t, scale, assume_normalized):
        curve = RationalCurve(comps)
        _agrees_with_reference(curve, [[scale * x for x in curve.eval(t)]], assume_normalized)


# ---------------------------------------------------------------------------
# incidence by a carried parameter pair
# ---------------------------------------------------------------------------


def _value_at(curve, pair) -> list:
    """The curve at the homogeneous pair (s : u), as forms of its degree."""
    s, u = pair
    d = curve.degree()
    return [
        sum(c.coefficient((k,)) * s**k * u ** (d - k) for k in range(d + 1))
        for c in curve.components
    ]


PAIRS = st.tuples(COEFF, COEFF).filter(any)  # (c : 0) is the point at infinity
POINTS = st.lists(COEFF, min_size=4, max_size=4)


class TestContainsByWitness:
    """A carried pair whose value is a multiple of the point answers True; when
    none is, the gcd answers, so every answer is the reference's."""

    @settings(max_examples=200, deadline=None)
    @given(CURVES, st.lists(PAIRS, min_size=1, max_size=3), PAIRS, POINTS, st.booleans())
    def test_matches_reference(self, comps, pairs, other, off, assume_normalized):
        # a point at a carried pair, a point at another pair (every carried
        # pair is then a wrong witness) and a point off the curve
        curve = RationalCurve(comps, pairs)
        points = [_value_at(curve, pairs[0]), _value_at(curve, other), off]
        _agrees_with_reference(curve, points, assume_normalized)

    @given(CURVES, COEFF.filter(bool), st.booleans())
    def test_witness_at_infinity(self, comps, scale, assume_normalized):
        curve = RationalCurve(comps, [(scale, 0)])
        point = curve.value_at_infinity()
        refused = assume_normalized and reference_curve_normalize(curve) != curve
        expected = "curve is not normalized" if refused else True
        for function in (reference_curve_contains_point, curve_contains_point):
            assert contains_outcome(function, curve, point, assume_normalized) == expected

    @settings(max_examples=100, deadline=None)
    @given(CURVES, COEFF, PAIRS, POINTS, st.booleans())
    def test_common_factor_vanishing_at_a_pair(self, comps, root, other, off, assume_normalized):
        # before normalization every value at the root of the common factor
        # is zero, so the pair certifies nothing and the gcd must answer
        factor = Polynomial.univariate([-root, 1])
        curve = RationalCurve([c * factor for c in comps], [(root, 1)])
        assert not any(curve.witness_values()[0])
        base = curve_normalize(RationalCurve(comps))
        points = [_value_at(base, (root, 1)), _value_at(base, other), off]
        _agrees_with_reference(curve, points, assume_normalized)
