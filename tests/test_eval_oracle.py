"""Integer evaluation of maps against the ``Fraction`` reference.

``Parametrization._values`` compiles each partial layer of a map once into
integer numerators over one denominator and one common degree, and reads it
at a point cleared to integers a / L from one table of powers.  The image of
a map under an osculating projection reads its parent's rows through the
projection matrix, and builds its components only when they are read.  The
references are ``Polynomial.eval`` of each partial, and the eager image
``Parametrization(v.nparams, proj.apply_polys(v.components))``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rncgeom import catalog, rnc
from rncgeom.catalog import (
    ConeStandard,
    CubicSpecial,
    QuadricVeronese,
    Scroll,
    ScrollSpec,
    SegreSpecial,
    StandardScroll,
    Veronese,
    Veronese33,
)
from rncgeom.errors import DegenerateParametrizationError, DimensionMismatchError
from rncgeom.linalg import projection_from, span_of
from rncgeom.osculation import (
    Parametrization,
    osculating_projection_map,
    osculator,
    regularity_order,
)
from rncgeom.poly import Polynomial, clear_denominators
from rncgeom.sampling import DENOMINATORS, NUMERATOR_RANGE

CHARTS = [
    Veronese(1, 3),
    Veronese(2, 3),
    Veronese(3, 2),
    Scroll(ScrollSpec((2, 1))),
    StandardScroll(ScrollSpec((1, 1)), 3, -1),
    StandardScroll(ScrollSpec((2, 1)), 1, 1),
    ConeStandard(2, 4),
    QuadricVeronese(3, 2, 5),
    SegreSpecial(2, 4),
    CubicSpecial(2, 2),
    Veronese33(),
]

_VARIETIES = {}


def variety(spec) -> Parametrization:
    """The chart of a spec, built once for the whole module."""
    if spec not in _VARIETIES:
        _VARIETIES[spec] = catalog.make_variety(spec)
    return _VARIETIES[spec]


def reference_layer(v, k, point):
    return [[c.eval(point) for c in comps] for comps in v._partial_layer(k).values()]


def compiled_layer(v, k, point):
    rows, den = v._values(clear_denominators(point), k)
    return [[Fraction(x, den) for x in row] for row in rows]


# coordinates at the heights of ``sampling``, with zeros, negatives,
# fractions and plain ints
COORD = st.one_of(
    st.builds(Fraction, st.integers(*NUMERATOR_RANGE), st.sampled_from(DENOMINATORS + (7,))),
    st.integers(*NUMERATOR_RANGE),
    st.just(Fraction(0)),
)


def points(nparams):
    return st.tuples(*[COORD] * nparams)


def test_every_family_has_a_chart_here():
    assert {type(spec) for spec in CHARTS} == set(catalog.FAMILIES.values())


@pytest.mark.parametrize("spec", CHARTS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_chart_layers_up_to_order_three(spec, data):
    v = variety(spec)
    point = data.draw(points(v.nparams))
    for k in range(4):
        assert compiled_layer(v, k, point) == reference_layer(v, k, point)
    assert v.eval(point) == tuple(c.eval(point) for c in v.components)


X, Y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
# layer 2 is constant (from x y and x^2) and layer 3 vanishes; the zero
# component vanishes on every layer
LOW_DEGREE = Parametrization(2, [Polynomial.one(2), X, Y, X * Y, X * X, Polynomial.zero(2)])


@settings(max_examples=30, deadline=None)
@given(point=points(2))
@example(point=(Fraction(0), Fraction(0)))
@example(point=(Fraction(-1, 3), 2))
def test_constant_and_vanishing_layers(point):
    for k in range(5):
        assert compiled_layer(LOW_DEGREE, k, point) == reference_layer(LOW_DEGREE, k, point)
    assert compiled_layer(LOW_DEGREE, 3, point) == [[0] * 6] * 4
    assert LOW_DEGREE.eval(point)[-1] == 0


def test_values_are_one_fraction_each():
    v = variety(Veronese(2, 3))
    point = (Fraction(2, 3), Fraction(-5, 2))
    value = v.eval(point)
    assert all(type(x) is Fraction for x in value)
    assert value == tuple(c.eval(point) for c in v.components)


def _image(spec, seed):
    """A projection campaign's image of the chart, and its projection."""
    v = variety(spec)
    params = catalog.declared_class(spec)
    pond = catalog.ponderation(params)
    sampled = rnc.sample_parameter_points(spec, random.Random(seed))
    centers = [(sampled[i], pond[i]) for i in range(params.n - 2)]
    proj, image = osculating_projection_map(v, centers)
    return v, proj, image


def _outcome(f, *args):
    try:
        return f(*args)
    except DegenerateParametrizationError:
        return "base point"


def _assert_lazy_equals_eager(v, proj, image, rng):
    eager = Parametrization(v.nparams, proj.apply_polys(list(v.components)))
    assert image.ambient_dim == eager.ambient_dim
    assert image.span() == eager.span()
    for _ in range(3):
        point = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(v.nparams))
        assert image.eval(point) == eager.eval(point)
        for k in (1, 2):
            assert _outcome(osculator, image, point, k) == _outcome(osculator, eager, point, k)
        assert _outcome(regularity_order, image, point) == _outcome(regularity_order, eager, point)
    assert image._components is None  # nothing above read them
    assert image.components == eager.components


PROJECTED = [
    Scroll(ScrollSpec((1, 1, 1))),
    Scroll(ScrollSpec((2, 2))),
    StandardScroll(ScrollSpec((1, 1)), 2, 0),
    StandardScroll(ScrollSpec((1, 1, 1)), 2, 1),
    ConeStandard(1, 4),
    ConeStandard(2, 6),
    QuadricVeronese(3, 2, 5),
]


def test_every_projection_family_is_projected_here():
    assert {s.family for s in PROJECTED} == {
        "Scroll", "StandardScroll", "ConeStandard", "QuadricVeronese"
    }


@pytest.mark.parametrize("spec", PROJECTED, ids=repr)
def test_lazy_image_equals_eager_image(spec):
    v, proj, image = _image(spec, 7)
    assert v.span().dim == v.ambient_dim  # so the image spans its whole target
    assert image.span().dim == image.ambient_dim
    _assert_lazy_equals_eager(v, proj, image, random.Random(8))


def test_image_of_a_parent_that_does_not_span_its_ambient():
    # x + y repeats a direction, so the span is a hyperplane of P^6
    v = Parametrization(
        2, [Polynomial.one(2), X, Y, X + Y, X * X, X * Y, Y * Y]
    )
    assert v.span().dim == v.ambient_dim - 1
    proj, image = osculating_projection_map(v, [((Fraction(1), Fraction(2)), 0)])
    assert image.span().dim < image.ambient_dim
    _assert_lazy_equals_eager(v, proj, image, random.Random(9))


def test_image_of_an_image():
    v, proj, image = _image(StandardScroll(ScrollSpec((1, 1, 1)), 2, 1), 3)
    proj2, image2 = osculating_projection_map(
        image, [((Fraction(1, 2), Fraction(-1), Fraction(2)), 0)]
    )
    _assert_lazy_equals_eager(image, proj2, image2, random.Random(10))


def test_image_that_drops_generic_rank_is_rejected():
    # the plane projected from one of its points is a line
    v = Parametrization(2, [Polynomial.one(2), X, Y])
    point = (Fraction(1), Fraction(2))
    with pytest.raises(DegenerateParametrizationError):
        osculating_projection_map(v, [(point, 0)])
    proj = projection_from(span_of([v.eval(point)]))
    with pytest.raises(DegenerateParametrizationError):
        Parametrization(2, proj.apply_polys(list(v.components)))


@pytest.mark.parametrize("which", ["chart", "image"])
def test_point_of_the_wrong_length(which):
    v = variety(StandardScroll(ScrollSpec((1, 1)), 2, 0))
    if which == "image":
        _, v = osculating_projection_map(v, [((Fraction(1), Fraction(2)), 1)])
    for point in [(Fraction(1),), (Fraction(1), Fraction(2), Fraction(3))]:
        with pytest.raises(DimensionMismatchError):
            v.eval(point)
        with pytest.raises(DimensionMismatchError):
            osculator(v, point, 1)
        with pytest.raises(DimensionMismatchError):
            regularity_order(v, point)
