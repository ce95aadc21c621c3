"""One chart per spec: ``catalog.make_variety`` and the homogenized chart
forms of the fitters are built once per spec and shared, and sharing them
changes no result."""

import json
import random

import pytest

from rncgeom import catalog, rnc, verify
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
    spec_from_json,
    spec_to_json,
)
from rncgeom.errors import DegenerateParametrizationError, SpecError
from rncgeom.osculation import Parametrization
from rncgeom.poly import Polynomial

# one spec of each family, all from the acceptance membership catalog
ONE_PER_FAMILY = [
    Veronese(2, 3),
    Scroll(ScrollSpec((2, 1))),
    StandardScroll(ScrollSpec((1, 1)), 2, 0),
    ConeStandard(1, 4),
    QuadricVeronese(3, 1, 5),
    SegreSpecial(2, 4),
    CubicSpecial(2, 2),
    Veronese33(),
]
# the standard families with n >= 3, as in the acceptance projection suite
PROJECTION_FAMILIES = (Scroll, StandardScroll, ConeStandard, QuadricVeronese)
PROJECTION_SPECS = [s for s in ONE_PER_FAMILY if isinstance(s, PROJECTION_FAMILIES)]


def clear_chart_caches():
    catalog.make_variety.cache_clear()
    catalog._chart_forms.cache_clear()
    catalog._conic_exponents.cache_clear()


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call; return the record."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_every_family_is_covered():
    assert {type(s) for s in ONE_PER_FAMILY} == set(catalog.FAMILIES.values())


class TestOneChartPerSpec:
    @pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=lambda s: s.family)
    def test_equal_specs_share_one_chart(self, spec):
        doc = json.dumps(spec_to_json(spec))
        first, second = spec_from_json(json.loads(doc)), spec_from_json(json.loads(doc))
        assert first is not second and first == spec
        chart = catalog.make_variety(first)
        assert isinstance(chart, Parametrization)
        assert catalog.make_variety(second) is chart
        assert catalog.make_variety(spec) is chart

    def test_rebuilt_scroll_specs_share_one_chart(self):
        a = StandardScroll(ScrollSpec((2, 2, 1)), 1, 4)
        b = StandardScroll(ScrollSpec([2, 2, 1]), 1, 4)
        assert catalog.make_variety(a) is catalog.make_variety(b)
        # a Scroll is not its standard model: a different spec, a different chart
        scroll = Scroll(ScrollSpec((1, 1)))
        assert catalog.make_variety(scroll) is not catalog.make_variety(
            StandardScroll(scroll.a, 1, 0)
        )

    def test_two_campaigns_check_the_generic_rank_once(self, monkeypatch):
        clear_chart_caches()
        checks = counting(monkeypatch, Parametrization, "_check_generic_rank")
        spec = StandardScroll(ScrollSpec((1, 1)), 2, 0)
        first = verify.verify_membership(spec, trials=2, seed=0)
        second = verify.verify_membership(spec, trials=2, seed=1)
        assert first.verdict == second.verdict == "pass"
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "spec",
        [Veronese(2, 3), Scroll(ScrollSpec((2, 1))), StandardScroll(ScrollSpec((1, 1)), 2, 0),
         ConeStandard(1, 4), Veronese33()],
        ids=lambda s: s.family,
    )
    def test_two_fits_homogenize_each_chart_component_once(self, spec, monkeypatch):
        clear_chart_caches()
        homogenized = counting(monkeypatch, Polynomial, "homogenize")
        rng = random.Random(5)
        curves = [
            rnc.fit_rnc_through(spec, rnc.sample_parameter_points(spec, rng)) for _ in range(2)
        ]
        assert all(c.degree() == catalog.declared_class(spec).q for c in curves)
        # the chart [1 : components], each form homogenized by the first fit
        assert len(homogenized) == len(spec.components()) + 1

    @pytest.mark.parametrize(
        "spec",
        [Veronese(2, 3), Scroll(ScrollSpec((2, 1))), StandardScroll(ScrollSpec((1, 1)), 2, 0),
         ConeStandard(1, 4), Veronese33()],
        ids=lambda s: s.family,
    )
    def test_chart_and_two_fits_build_the_components_once(self, spec, monkeypatch):
        clear_chart_caches()
        built = counting(monkeypatch, type(spec), "components")
        catalog.make_variety(spec)
        rng = random.Random(5)
        for _ in range(2):
            rnc.fit_rnc_through(spec, rnc.sample_parameter_points(spec, rng))
        assert len(built) == 1

    def test_two_quadric_veronese_fits_build_the_exponents_once(self, monkeypatch):
        clear_chart_caches()
        spec = QuadricVeronese(3, 2, 5)
        catalog.make_variety(spec)  # the chart's components read the blocks too
        blocks = counting(monkeypatch, catalog, "quadric_veronese_blocks")
        rng = random.Random(5)
        curves = [
            rnc.fit_rnc_through(spec, rnc.sample_parameter_points(spec, rng)) for _ in range(2)
        ]
        assert all(c.degree() == catalog.declared_class(spec).q for c in curves)
        assert blocks == [(3, 2)]

    def test_a_failed_build_is_not_cached(self, monkeypatch):
        clear_chart_caches()
        spec = Veronese(2, 4)
        components = Veronese.components
        calls = []

        def failing_once(self):
            calls.append(self)
            if len(calls) == 1:
                raise DegenerateParametrizationError("forced failure")
            return components(self)

        monkeypatch.setattr(Veronese, "components", failing_once)
        with pytest.raises(DegenerateParametrizationError):
            catalog.make_variety(spec)
        assert catalog.make_variety.cache_info().currsize == 0
        chart = catalog.make_variety(spec)
        assert catalog.make_variety(spec) is chart
        assert len(calls) == 2

    def test_an_unknown_spec_raises_every_time(self):
        clear_chart_caches()
        unknown = object()
        for _ in range(2):
            with pytest.raises(SpecError):
                catalog.make_variety(unknown)
        assert catalog.make_variety.cache_info().currsize == 0


class TestColdEqualsWarm:
    """A campaign reports the same bytes on a chart built afresh and on the
    shared one an earlier campaign filled."""

    @pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=lambda s: s.family)
    def test_membership(self, spec):
        clear_chart_caches()
        cold = verify.verify_membership(spec, trials=3, seed=7).to_json()
        chart = catalog.make_variety(spec)
        warm = verify.verify_membership(spec, trials=3, seed=7).to_json()
        assert catalog.make_variety(spec) is chart
        assert json.dumps(warm) == json.dumps(cold)

    @pytest.mark.parametrize("spec", PROJECTION_SPECS, ids=lambda s: s.family)
    def test_projection(self, spec):
        clear_chart_caches()
        cold = verify.verify_veronese_projection(spec, trials=2, seed=4).to_json()
        warm = verify.verify_veronese_projection(spec, trials=2, seed=4).to_json()
        assert cold["verdict"] == "pass"
        assert json.dumps(warm) == json.dumps(cold)
