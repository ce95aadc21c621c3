import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import catalog, rnc, verify
from rncgeom.catalog import (
    ClassParams,
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
from rncgeom.errors import (
    DegenerateCurveError,
    DegenerateParametrizationError,
    GeneralPositionError,
    GenericityError,
    InvariantError,
    SpecError,
)
from rncgeom.linalg import LinearProjection
from rncgeom.osculation import Parametrization, osculator
from rncgeom.poly import Polynomial, RationalCurve, curve_normalize
from rncgeom.sampling import MAX_RETRIES, rand_vector
from test_rnc import _callers


class TestMembership:
    def test_minimal_scroll_passes(self):
        report = verify.verify_membership(Scroll(ScrollSpec((1, 1))), trials=3, seed=0)
        assert report.verdict == "pass"
        assert all(t["fit"] == "ok" for t in report.trials)

    def test_standard_scroll_class_2_5_5(self):
        report = verify.verify_membership(
            StandardScroll(ScrollSpec((2, 1, 1)), 1, 1), trials=3, seed=0
        )
        assert report.verdict == "pass"
        assert report.declared == (2, 5, 5)

    def test_cubic_special_class_3_4_5(self):
        report = verify.verify_membership(CubicSpecial(2, 2), trials=3, seed=0)
        assert report.verdict == "pass"
        assert report.declared == (2, 4, 5)

    def test_wrong_declared_q_fails(self):
        report = verify.verify_membership(
            Scroll(ScrollSpec((1, 1))), trials=1, seed=0,
            declare=ClassParams(1, 3, 4),
        )
        assert report.verdict == "fail"
        assert report.span_found != report.span_expected

    def test_report_json_shape(self):
        report = verify.verify_membership(Veronese(2, 2), trials=1, seed=0)
        doc = report.to_json()
        assert doc["schema"] == 1
        assert set(doc) >= {"spec", "class", "span", "trials", "verdict"}

    def test_cubic_special_general_r_rank_two_splits_rationally(self):
        # rank-2 forms are products of linear forms: roots stay rational
        report = verify.verify_membership(CubicSpecial(3, 2), trials=3, seed=0)
        assert report.verdict == "pass"

    def test_splitting_field_is_inconclusive_not_fail(self):
        # rank >= 3 forms restrict to a generic line with non-square
        # discriminant: the distinct signal must not count as refutation
        report = verify.verify_membership(CubicSpecial(3, 3), trials=2, seed=0)
        assert report.verdict == "inconclusive"
        assert all(t["fit"] == "splitting_field_required" for t in report.trials)
        assert all("discriminant" in t for t in report.trials)


class TestIncidenceByWitness:
    """Every fitted point is certified by the pair its curve carries for it, so
    a campaign takes no gcd for incidence; a pair convention that failed
    silently would show here as a gcd call."""

    SPECS = [
        Veronese(2, 2),
        Scroll(ScrollSpec((2, 1))),
        StandardScroll(ScrollSpec((1, 1)), 2, 1),
        ConeStandard(2, 4),
        QuadricVeronese(3, 2, 5),
        SegreSpecial(2, 4),
        CubicSpecial(2, 2),
        Veronese33(),
    ]

    def test_one_spec_of_every_family(self):
        assert {type(spec) for spec in self.SPECS} == set(catalog.FAMILIES.values())

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_membership_takes_no_gcd_for_incidence(self, spec, monkeypatch):
        gcds = _callers(monkeypatch, "_gcd_ints")
        report = verify.verify_membership(spec, trials=3, seed=0)
        assert report.verdict == "pass"
        assert all(t["incidence"] for t in report.trials)
        assert "curve_contains_point" not in gcds

    @pytest.mark.parametrize(
        "spec",
        [StandardScroll(ScrollSpec((1, 1)), 2, 0), ConeStandard(2, 4), QuadricVeronese(3, 2, 5)],
        ids=lambda s: s.family,
    )
    def test_projection_keeps_the_pairs(self, spec, monkeypatch):
        gcds = _callers(monkeypatch, "_gcd_ints")
        report = verify.verify_veronese_projection(spec, trials=1, seed=0)
        assert report.verdict == "pass"
        assert report.trials[0]["projected_incidence"]
        assert "curve_contains_point" not in gcds


class TestProjectedImagesAreLazy:
    """A projection campaign reads its images through the projection matrix:
    it builds no image components, so it differentiates none."""

    @pytest.mark.parametrize(
        "spec",
        [Scroll(ScrollSpec((2, 1, 1))), StandardScroll(ScrollSpec((1, 1)), 2, 0),
         ConeStandard(2, 4), QuadricVeronese(3, 2, 5)],
        ids=lambda s: s.family,
    )
    def test_campaign_builds_no_image_components(self, spec, monkeypatch):
        # a warm chart of an earlier test would already hold its partials,
        # and a warm chart form would not ask make_variety for its chart
        catalog.make_variety.cache_clear()
        catalog._chart_forms.cache_clear()
        applied, differentiated, charts = [], [], {}
        apply_polys, partial = LinearProjection.apply_polys, Polynomial.partial
        make_variety = catalog.make_variety

        def counting_apply(self, components):
            applied.append(sys._getframe(1).f_code.co_name)
            return apply_polys(self, components)

        def counting_partial(self, orders):
            differentiated.append(self)
            return partial(self, orders)

        def recording_make(spec):
            charts[spec] = make_variety(spec)
            return charts[spec]

        monkeypatch.setattr(LinearProjection, "apply_polys", counting_apply)
        monkeypatch.setattr(Polynomial, "partial", counting_partial)
        monkeypatch.setattr(catalog, "make_variety", recording_make)
        report = verify.verify_veronese_projection(spec, trials=2, seed=0)
        assert report.verdict == "pass"
        assert applied == []
        # the campaign's own chart, through which every family fits
        assert set(charts) == {spec}
        own = {
            id(c)
            for chart in charts.values()
            for layer in chart._partials
            for comps in layer.values()
            for c in comps
        }
        assert differentiated and all(id(p) in own for p in differentiated)


class TestExhaustedTrial:
    """A trial whose every attempt needs a resample is recorded as such."""

    @pytest.fixture
    def fit_always_degenerate(self, monkeypatch):
        def degenerate(spec, points, rng=None):
            raise GenericityError("forced rank drop")

        monkeypatch.setattr(rnc, "fit_rnc_through", degenerate)

    EXHAUSTED = {"seed": 0, "fit": "genericity_exhausted", "resamples": MAX_RETRIES}

    def test_membership(self, fit_always_degenerate):
        report = verify.verify_membership(Scroll(ScrollSpec((1, 1))), trials=1, seed=0)
        assert report.verdict == "inconclusive"
        assert report.trials == [self.EXHAUSTED]

    def test_projection_keeps_nothing_of_a_failed_attempt(self, fit_always_degenerate):
        report = verify.verify_veronese_projection(
            StandardScroll(ScrollSpec((1, 1)), 2, 0), trials=1, seed=0
        )
        assert report.verdict == "inconclusive"
        assert report.trials == [self.EXHAUSTED]

    def test_invariant_errors_are_not_resampled(self):
        assert not issubclass(InvariantError, verify.RESAMPLE_ERRORS)
        # no campaign calls linalg.direct_sum, the only raiser of DirectSumError
        assert verify.RESAMPLE_ERRORS == (
            GenericityError,
            GeneralPositionError,
            DegenerateCurveError,
            DegenerateParametrizationError,
        )

    def test_conic_parametrization_check_is_an_invariant(self, monkeypatch):
        # the check compares the conic at each reported parameter with its
        # plane point; shifting the finite parameters by one breaks it
        real_fit = catalog.rnc_through_points

        def shifted(d, points, free_params=(0, -1)):
            curve = real_fit(d, points, free_params)
            params = [(s + u, u) for s, u in curve.params]
            return curve_normalize(RationalCurve(curve.components, params))

        monkeypatch.setattr(catalog, "rnc_through_points", shifted)
        with pytest.raises(InvariantError, match="conic parametrization missed a point"):
            verify.verify_membership(ConeStandard(1, 4), trials=1, seed=0)


class TestNoTrials:
    """A campaign of no trials has nothing to pass on: it is a usage error."""

    @pytest.fixture
    def no_attempt(self, monkeypatch):
        def sample(spec, rng):
            raise AssertionError("an attempt ran")

        monkeypatch.setattr(rnc, "sample_parameter_points", sample)

    def test_membership(self, no_attempt):
        with pytest.raises(SpecError, match="^trials must be at least 1$"):
            verify.verify_membership(Scroll(ScrollSpec((1, 1))), trials=0)

    def test_projection(self, no_attempt):
        spec = StandardScroll(ScrollSpec((1, 1)), 2, 0)
        with pytest.raises(SpecError, match="^trials must be at least 1$"):
            verify.verify_veronese_projection(spec, trials=-3)


class TestProjection:
    @pytest.mark.parametrize(
        "spec",
        [
            Scroll(ScrollSpec((1, 1))),
            StandardScroll(ScrollSpec((1, 1)), 2, 0),
            ConeStandard(2, 4),
            QuadricVeronese(3, 2, 5),
        ],
        ids=lambda s: s.family,
    )
    def test_projection_passes(self, spec):
        report = verify.verify_veronese_projection(spec, trials=2, seed=1)
        assert report.verdict == "pass", report.to_json()

    def test_ponderation_shape(self):
        report = verify.verify_veronese_projection(
            StandardScroll(ScrollSpec((1, 1)), 2, 1), trials=1, seed=0
        )
        # q = 5 over n = 3: rho = 2, m = 2, weights (2, 2)
        assert report.ponderation == (2, 2)
        assert report.verdict == "pass"

    def test_needs_n_at_least_three(self):
        with pytest.raises(SpecError):
            verify.verify_veronese_projection(Veronese(2, 2))

    @pytest.mark.parametrize("exponent, injective", [(1, True), (2, False)])
    def test_injectivity_at_samples(self, exponent, injective, monkeypatch):
        # (1 : t^2 : t^4) takes one value at t = 1 and t = -1, (1 : t : t^2) does not
        t = Polynomial.variable(1, 0)
        comps = [Polynomial.one(1), t**exponent, t ** (2 * exponent)]
        curve = curve_normalize(RationalCurve(comps))
        samples = (F(1), F(-1), F(2))
        monkeypatch.setattr(verify, "project_curve", lambda proj, fitted: curve)
        monkeypatch.setattr(verify, "rand_distinct_rationals", lambda rng, count: samples)
        report = verify.verify_veronese_projection(Scroll(ScrollSpec((1, 1))), trials=1, seed=0)
        assert report.trials[0]["injective_at_samples"] is injective


class TestOneProjectionPerCentreSet:
    """An attempt builds one projection map, from its whole centre, at every
    n: at n = 3 the single-point centre is that centre, and at n >= 4 the
    single-point span is read off the osculator's dimension.  The reports
    keep their bytes: the digests are those of the campaign that projected
    twice at n >= 4."""

    DIGESTS = {
        "QuadricVeronese": "83525232f543f3be48fe8c63b37ce98859ea5c305f010fb43c4d2b1b6f032e5b",
        "StandardScroll": "78de1a3d8a0833c5f250d6c95bfbbe1162d29054a18f52b03aa007b1f31f47cc",
        "ConeStandard": "2042209fd5ea800595e2ff441403151e0fcd9a7759443e7be0346d827e6bef5d",
    }

    @pytest.mark.parametrize(
        "spec, n",
        [
            (QuadricVeronese(3, 2, 5), 3),
            (StandardScroll(ScrollSpec((1, 1)), 2, 0), 3),
            (ConeStandard(2, 4), 5),
        ],
        ids=lambda s: getattr(s, "family", s),
    )
    def test_projections_per_attempt(self, spec, n, monkeypatch):
        assert catalog.declared_class(spec).n == n
        attempts, projections = [], []
        sample, project = rnc.sample_parameter_points, verify.osculating_projection_map

        def counting_sample(spec, rng):
            attempts.append(spec)  # every attempt draws its points first
            return sample(spec, rng)

        def counting_project(variety, centers):
            projections.append(len(centers))
            return project(variety, centers)

        monkeypatch.setattr(rnc, "sample_parameter_points", counting_sample)
        monkeypatch.setattr(verify, "osculating_projection_map", counting_project)
        report = verify.verify_veronese_projection(spec, trials=2, seed=0)
        assert report.verdict == "pass"
        assert attempts and projections == [n - 2] * len(attempts)
        text = json.dumps(report.to_json(), sort_keys=True, separators=(", ", ": "))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[spec.family]


def reference_generic_rank(v) -> bool:
    """The generic-rank verdict read off a regular order-1 osculator, drawn
    as ``Parametrization._check_generic_rank`` draws its points."""
    rng = random.Random(0xA11CE)
    for _ in range(MAX_RETRIES):
        try:
            rep = osculator(v, rand_vector(rng, v.nparams), 1)
        except DegenerateParametrizationError:
            continue  # a base point of the map
        if rep.subspace.dim == v.nparams:
            return True
    return False


COEFF = st.integers(-3, 3)


@st.composite
def maps(draw):
    """``(d, components)`` of a map from Q^d through m <= d linear forms.

    With m < d the generic rank is below d.  A common linear factor, when
    drawn, puts base points among the sampled points; one that vanishes at
    the first point ``reference_generic_rank`` draws makes it skip that one.
    """
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    xs = [Polynomial.variable(d, i) for i in range(d)]
    ys = [
        sum((c * x for c, x in zip(draw(st.lists(COEFF, min_size=d, max_size=d)), xs)),
            Polynomial.constant(d, draw(COEFF)))
        for _ in range(m)
    ]
    exponents = [e for total in range(3) for e in itertools.product(range(total + 1), repeat=m)
                 if sum(e) == total]
    comps = []
    for _ in range(draw(st.integers(2, 6))):
        coeffs = draw(st.lists(COEFF, min_size=len(exponents), max_size=len(exponents)))
        inner = Polynomial(m, {e: c for e, c in zip(exponents, coeffs) if c})
        comps.append(inner.compose(ys))
    base = draw(st.sampled_from(("none", "some", "first")))
    if base != "none":
        first = rand_vector(random.Random(0xA11CE), d)[0]
        comps = [(xs[0] - (first if base == "first" else draw(COEFF))) * c for c in comps]
    return d, comps


class TestGenericRankOnIntegerRows:
    @settings(max_examples=150, deadline=None)
    @given(maps())
    def test_verdict_is_that_of_the_order_one_osculator(self, case):
        d, comps = case
        v = Parametrization(d, comps, check=False)
        try:
            v._check_generic_rank()
            verdict = True
        except DegenerateParametrizationError:
            verdict = False
        assert verdict == reference_generic_rank(v)


class TestQuadricZeroSamples:
    def test_rank_two_samples_both_planes(self):
        # x0 x1 = 0 is the union of {x0 = 0} and {x1 = 0}
        samples = catalog._quadric_zero_samples(SegreSpecial(2, 4).form(), random.Random(11))
        assert any(s[0] == 0 != s[1] for s in samples)
        assert any(s[1] == 0 != s[0] for s in samples)

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_every_sample_is_a_zero(self, rank):
        form = catalog.QuadraticForm(rank, 5)
        samples = catalog._quadric_zero_samples(form, random.Random(rank))
        assert len(samples) == 5
        assert all(form.eval(s) == 0 for s in samples)


class TestSpecialness:
    def test_segre_special_r2(self):
        w = verify.specialness_witness(SegreSpecial(2, 4))
        assert w.kind == "contact-dimension"
        assert w.measured == 1 and w.standard_reference == 2
        assert w.verdict == "special"
        assert w.details["line_component_contained"]
        assert w.details["quadric_component_contained"]

    def test_segre_special_r3(self):
        w = verify.specialness_witness(SegreSpecial(3, 4))
        assert w.measured == 2 and w.standard_reference == 3
        assert w.verdict == "special"

    def test_cubic_special(self):
        for mu_prime in (1, 2):
            w = verify.specialness_witness(CubicSpecial(2, mu_prime))
            assert w.measured == 1 and w.standard_reference == 2
            assert w.verdict == "special"

    def test_veronese33(self):
        w = verify.specialness_witness(Veronese33())
        assert w.kind == "regularity-order"
        assert w.measured == 3
        assert w.details["standard_orders"] == {"A(1,4)": 1, "A(2,-1)": 2}
        assert w.verdict == "special"

    def test_standard_control(self):
        w = verify.specialness_witness(StandardScroll(ScrollSpec((1, 1, 0)), 1, 1))
        assert w.verdict == "standard-compatible"
        assert w.measured == 2


class TestAdmissibilityAtFittedPoints:
    @pytest.mark.parametrize(
        "spec",
        [
            Scroll(ScrollSpec((1, 1))),
            StandardScroll(ScrollSpec((1, 1)), 2, 0),
            Veronese(2, 3),
        ],
        ids=lambda s: s.family,
    )
    def test_sommedirect_holds_at_sample_points(self, spec):
        # the canonical pondération decomposes the span at fitted points,
        # for every tested permutation assignment
        from rncgeom.errors import GeneralPositionError, GenericityError
        from rncgeom.osculation import admissibility_check

        params = catalog.declared_class(spec)
        variety = catalog.make_variety(spec)
        weights = catalog.ponderation(params)
        rng = random.Random(31)
        for attempt in range(9):
            points = rnc.sample_parameter_points(spec, rng)
            try:
                rnc.fit_rnc_through(spec, points)
            except (GenericityError, GeneralPositionError):
                continue
            report = admissibility_check(variety, points, weights)
            if report.ok:
                break
        assert report.ok, report.failure


class TestInequivalence:
    def test_cone_exact_set_identity(self):
        report = verify.inequivalence_invariants(ScrollSpec((4, 0, 0, 0)), 2)
        assert report.relation == "equal-sets"

    def test_swap_identity(self):
        report = verify.inequivalence_invariants(ScrollSpec((1, 1)), 3)
        assert report.relation == "swap-equivalent"

    def test_contact_separation(self):
        report = verify.inequivalence_invariants(ScrollSpec((2, 1, 1)), 2)
        assert report.relation == "inequivalent"
        assert report.details["codimension_ge_2"]
        assert report.details["contact_dim_A(rho-1,n-2)"] == 2

    def test_rho_range(self):
        with pytest.raises(SpecError):
            verify.inequivalence_invariants(ScrollSpec((2, 1)), 1)
