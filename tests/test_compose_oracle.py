"""The integer projective-compose kernel against the ``Fraction`` compose.

``reference_through_chart`` is the chart push as it was written over
``Fraction``: each component homogenized with ``Polynomial.homogenize`` and
composed with ``Polynomial.compose``.  ``projective_compose`` takes the
arguments as coefficient lists and returns the integer lists of the same
components times one common nonzero integer, so the two agree exactly after
``curve_normalize``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom.catalog import ConeStandard, ScrollSpec, StandardScroll, Veronese
from rncgeom.errors import DimensionMismatchError
from rncgeom.poly import Polynomial, RationalCurve, curve_normalize, projective_compose


def reference_through_chart(comps, weights, degree, args) -> list:
    return [c.homogenize(degree, weights).compose(args) for c in comps]


def forms(comps, weights, degree) -> list:
    return [c.homogenize(degree, weights) for c in comps]


def common_scale(got, expected):
    """The one factor s with got[i] == s * expected[i] for every i, or None."""
    scale = None
    for g, e in zip(got, expected):
        if e.is_zero() or g.is_zero():
            if not (e.is_zero() and g.is_zero()):
                return None
            continue
        (expo, c), *_ = e.items()
        s = Fraction(g.coefficient(expo)) / c
        if s == 0 or (scale is not None and s != scale):
            return None
        scale = s
        if g != e.scale(s):
            return None
    return scale


def check_against_reference(comps, weights, degree, args):
    """``args`` are coefficient lists; the outputs are returned as
    ``Polynomial``s."""
    lists = projective_compose(forms(comps, weights, degree), args)
    expected = reference_through_chart(
        comps, weights, degree, [Polynomial.univariate(x) for x in args]
    )
    assert len(lists) == len(expected)
    assert all(type(c) is int for g in lists for c in g)
    assert all(g[-1] for g in lists if g)
    got = [Polynomial.univariate(g) for g in lists]
    if all(e.is_zero() for e in expected):
        assert all(g.is_zero() for g in got)
        return got
    assert common_scale(got, expected) is not None
    assert curve_normalize(RationalCurve(got)) == curve_normalize(RationalCurve(expected))
    return got


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))


def univariate(max_size=4):
    """Coefficient lists, low degree first (zero, constants and trailing
    zeros allowed)."""
    return st.lists(COEFF, max_size=max_size)


@st.composite
def charts(draw):
    """``(comps, weights, degree)``: [1] + chart components of weighted degree <= degree."""
    nvars = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)))
    degree = draw(st.integers(0, 3))
    exponent = st.tuples(*[st.integers(0, degree if w else 2) for w in weights])
    comps = [Polynomial.one(nvars)]
    for _ in range(draw(st.integers(0, 4))):
        terms = {
            e: c
            for e, c in draw(st.lists(st.tuples(exponent, COEFF), max_size=4))
            if sum(w * x for w, x in zip(weights, e)) <= degree
        }
        comps.append(Polynomial(nvars, terms))
    if draw(st.booleans()):
        # a term whose weighted degree is the full degree (no x_0 left)
        full = [0] * nvars
        heavy = [i for i, w in enumerate(weights) if w and degree % w == 0]
        if heavy:
            i = draw(st.sampled_from(heavy))
            full[i] = degree // weights[i]
            comps.append(Polynomial.monomial(nvars, full, draw(COEFF.filter(bool))))
    return comps, weights, degree


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


class TestProjectiveCompose:
    @settings(max_examples=200, deadline=None)
    @given(charts(), st.data())
    def test_matches_reference(self, chart, data):
        comps, weights, degree = chart
        args = data.draw(st.lists(univariate(), min_size=len(weights) + 1,
                                  max_size=len(weights) + 1))
        check_against_reference(comps, weights, degree, args)

    # the charts of the fitters: Veronese (weights 1), the scroll sections
    # (weight 0 on t) and the cone (weight 2 on the s coordinates)
    CHARTS = [
        (Veronese(2, 3), (1, 1), 3),
        (StandardScroll(ScrollSpec((1, 1, 1)), 2, 1), (0, 1, 1), 2),
        (ConeStandard(2, 4), (1, 1, 2), 2),
    ]

    @pytest.mark.parametrize("spec, weights, degree", CHARTS, ids=[c[0].family for c in CHARTS])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_catalog_charts(self, spec, weights, degree, data):
        comps = [Polynomial.one(len(weights))] + spec.components()
        args = data.draw(st.lists(univariate(), min_size=len(weights) + 1,
                                  max_size=len(weights) + 1))
        check_against_reference(comps, weights, degree, args)

    @given(charts(), st.data())
    def test_constant_args(self, chart, data):
        comps, weights, degree = chart
        args = [[data.draw(COEFF)] for _ in range(len(weights) + 1)]
        got = check_against_reference(comps, weights, degree, args)
        assert all(g.total_degree() <= 0 for g in got)

    def test_component_equal_to_one(self):
        # 1 homogenizes to x_0^degree, so its image is args[0]^degree
        args = [[Fraction(1, 2), 1], [0, 3]]
        comps = [Polynomial.one(1), Polynomial.variable(1, 0)]
        got = check_against_reference(comps, (1,), 2, args)
        assert common_scale(got[:1], [Polynomial.univariate(args[0]) ** 2]) is not None

    def test_denominators_with_a_larger_lcm(self):
        # denominators 2 and 3: neither alone clears both arguments
        args = [[Fraction(1, 2), 1], [1, Fraction(1, 3)], [Fraction(2, 3), Fraction(-1, 2)]]
        t = Polynomial.variable(2, 0)
        s = Polynomial.variable(2, 1)
        comps = [Polynomial.one(2), t, s, t * s, s.scale(Fraction(3, 4)) * s]
        got = check_against_reference(comps, (0, 1), 2, args)
        polys = [Polynomial.univariate(x) for x in args]
        assert common_scale(got, reference_through_chart(comps, (0, 1), 2, polys)) == 6**3 * 4

    def test_full_weighted_degree(self):
        # x^2 at weight 1 and degree 2 keeps no power of x_0
        args = [[Fraction(1, 3)], [1, 2]]
        x = Polynomial.variable(1, 0)
        got = check_against_reference([Polynomial.one(1), x * x], (1,), 2, args)
        assert got[1].total_degree() == 2

    def test_wrong_argument_count(self):
        with pytest.raises(DimensionMismatchError):
            projective_compose([Polynomial.one(2)], [[1]])
