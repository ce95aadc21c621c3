"""The single-point span of a projection attempt, read off one osculator.

At n >= 4 ``verify_veronese_projection`` does not build the projection
from the osculator at its first sampled point alone: that osculator lies
in span(X), so the image spans dim span(X) - dim osculator - 1.  The
reference is the route the campaign once took, ``span()`` of the image
that ``osculating_projection_map`` builds from that one centre, which also
runs the image's generic-rank check.  The specs are the projection
classes with n >= 4 of the membership catalog; the points are those the
campaign draws for its first trials.
"""

import random

import pytest

from rncgeom import catalog, rnc, verify
from rncgeom.catalog import ConeStandard, Scroll, ScrollSpec, StandardScroll, Veronese
from rncgeom.osculation import Parametrization, osculating_projection_map, osculator
from rncgeom.sampling import rand_vector

SPECS = [
    Scroll(ScrollSpec((2, 1))),
    Scroll(ScrollSpec((1, 1, 1))),
    Scroll(ScrollSpec((2, 2))),
    Scroll(ScrollSpec((2, 1, 1))),
    Scroll(ScrollSpec((2, 2, 1))),
    StandardScroll(ScrollSpec((2, 1)), 1, 1),
    StandardScroll(ScrollSpec((1, 1, 1)), 2, 1),
    StandardScroll(ScrollSpec((2, 2, 1)), 1, 4),
    ConeStandard(1, 4),
    ConeStandard(1, 6),
    ConeStandard(2, 4),
    ConeStandard(2, 6),
]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_osculator_rank_is_the_single_point_image_span(spec):
    params = catalog.declared_class(spec)
    assert params.n >= 4
    first = catalog.ponderation(params)[0]
    variety = catalog.make_variety(spec)
    for seed in range(6):
        point = rnc.sample_parameter_points(spec, verify._trial_rng(seed, 0))[0]
        found = variety.span().dim - osculator(variety, point, first).subspace.dim - 1
        assert found == osculating_projection_map(variety, [(point, first)])[1].span().dim


@pytest.mark.parametrize("order", [0, 1])
def test_a_variety_short_of_its_ambient(order):
    # one more component, the sum of the first two: span(X) is a hyperplane
    # of the ambient, so ``span()`` of the image takes its other branch
    comps = catalog.make_variety(Veronese(2, 3)).components
    variety = Parametrization(2, comps + (comps[0] + comps[1],))
    assert variety.span().dim == variety.ambient_dim - 1
    for seed in range(6):
        point = rand_vector(random.Random(seed), 2)
        found = variety.span().dim - osculator(variety, point, order).subspace.dim - 1
        assert found == osculating_projection_map(variety, [(point, order)])[1].span().dim
