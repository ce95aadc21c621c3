import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import catalog, rnc, verify
from rncgeom.catalog import (
    ClassParams,
    ConeStandard,
    CubicSpecial,
    I_formula,
    QuadraticForm,
    QuadricVeronese,
    Scroll,
    ScrollSpec,
    SegreSpecial,
    StandardScroll,
    Veronese,
    Veronese33,
    build_A,
    build_A_cone,
    castelnuovo_bound,
    declared_class,
    make_variety,
    pi,
    spec_from_json,
    spec_to_json,
)
from rncgeom.errors import DimensionMismatchError, SpecError


class TestPiFormula:
    def test_minimal_class(self):
        for r in range(1, 5):
            for n in range(2, 7):
                assert pi(r, n, n - 1) == r + n - 1

    def test_veronese_threefold_coincidence(self):
        assert pi(2, 2, 3) == 19
        assert pi(2, 6, 9) == 19

    def test_cubic_special_class(self):
        for r in range(1, 6):
            assert pi(r, 4, 5) == 3 * r + 5

    def test_euclidean_division(self):
        params = ClassParams(2, 4, 7)
        assert (params.rho, params.m, params.chi) == (2, 2, 1)
        assert params.alternate_branch() is None
        params = ClassParams(2, 4, 8)
        assert params.m == 3 and params.alternate_branch() == (3, -1)

    def test_invalid_params(self):
        with pytest.raises(SpecError):
            ClassParams(0, 3, 4)
        with pytest.raises(SpecError):
            ClassParams(1, 3, 1)


class TestCastelnuovo:
    def test_direct_value(self):
        # frozen by hand: d - 1 = 3 = sigma * 1 + m forces m = 1, sigma = 2
        assert castelnuovo_bound(1, 2, 4) == 3
        assert castelnuovo_bound(1, 2, 4) == pi(1, 2, 1) + 1

    def test_identity_with_pi(self):
        for r in range(1, 5):
            for n in range(2, 7):
                for q in range(n - 1, 13):
                    d = q + r * (n - 1) + 2
                    assert castelnuovo_bound(r, n, d) == pi(r, n, q) + 1

    def test_small_degree_vanishes(self):
        assert castelnuovo_bound(3, 4, 2) == 0


class TestIFormula:
    def test_hand_enumeration(self):
        # |alpha| = 1 over (1, 1): terms (1+1) + (1+1) = 4
        assert I_formula(ScrollSpec((1, 1)), 1, 0) == 4 == pi(1, 3, 2) + 1

    def test_independent_of_degree_split_when_chi_ge_minus_one(self):
        for chi in (-1, 0, 1, 2):
            values = {
                I_formula(a, 2, chi)
                for a in (
                    ScrollSpec((4, 0, 0)),
                    ScrollSpec((2, 1, 1)),
                    ScrollSpec((2, 2, 0)),
                    ScrollSpec((3, 1, 0)),
                )
            }
            assert len(values) == 1

    def test_depends_on_split_below_minus_one(self):
        assert I_formula(ScrollSpec((4, 0)), 2, -3) != I_formula(
            ScrollSpec((2, 2)), 2, -3
        )

    def test_counts_index_set_in_valid_range(self):
        for a in (ScrollSpec((2, 1)), ScrollSpec((1, 1, 1)), ScrollSpec((3, 1))):
            for rho in (1, 2, 3):
                for chi in range(-1, a.n - 1):
                    if rho * (a.n - 1) + chi < a.n - 1:
                        continue
                    assert I_formula(a, rho, chi) == len(build_A(a, rho, chi)) + 1


class TestBuildA:
    def test_hand_enumeration(self):
        index_set = build_A(ScrollSpec((1, 1)), 1, 0)
        assert sorted(index_set.indices) == [(0, 1), (1, 0), (1, 1)]

    def test_cardinality_formula(self):
        from rncgeom.catalog import binom

        for a in (ScrollSpec((2, 1)), ScrollSpec((2, 1, 1)), ScrollSpec((3, 2))):
            n, r = a.n, a.r
            for rho in (1, 2, 3):
                for chi in range(-1, n - 1):
                    if rho * (n - 1) + chi < n - 1:
                        continue
                    card = len(build_A(a, rho, chi))
                    expected = (
                        (chi + 1) * binom(r + rho + 1, r + 1)
                        + (n - 2 - chi) * binom(r + rho, r + 1)
                        - 1
                    )
                    assert card == expected
                    assert card == pi(r, n, rho * (n - 1) + chi)

    def test_cone_scroll_identity(self):
        a = ScrollSpec((3, 0, 0))
        assert build_A(a, 2, -1) == build_A(a, 1, a.n - 2)

    def test_rho_one_models_are_shifted_scrolls(self):
        # X(1, chi) over (a_0..a_r) is the scroll of degrees (a_i + chi)
        for degrees in ((2, 1), (1, 1, 0), (3, 2, 1)):
            a = ScrollSpec(degrees)
            for chi in range(1, a.n - 1):
                shifted = ScrollSpec(tuple(d + chi for d in degrees))
                assert build_A(a, 1, chi) == build_A(shifted, 1, 0)

    def test_swap_identity_n3(self):
        # exchanging t and s_1 maps A(rho, -1) onto A(rho-1, 1)
        for r in (1, 2):
            a = ScrollSpec((1, 1) + (0,) * (r - 1))
            for rho in (2, 3):
                big = build_A(a, rho, -1)
                swapped = catalog.IndexSet(
                    big.nvars, [(i[1], i[0]) + i[2:] for i in big.indices]
                )
                assert swapped == build_A(a, rho - 1, 1)

    def test_shape_invariants(self):
        for a, rho, chi in (
            (ScrollSpec((2, 1)), 2, 1),
            (ScrollSpec((2, 1, 1)), 2, -1),
            (ScrollSpec((1, 1)), 3, 0),
        ):
            index_set = build_A(a, rho, chi)
            assert index_set.is_downward_closed()
            assert index_set.is_degree_one_complete()

    def test_parameter_range(self):
        with pytest.raises(SpecError):
            build_A(ScrollSpec((1, 1)), 1, -1)


class TestBuildACone:
    def test_hand_enumeration_r2_q4(self):
        index_set = build_A_cone(2, 4)
        assert set(index_set.indices) == {
            (1, 0, 0),
            (0, 1, 0),
            (2, 0, 0),
            (1, 1, 0),
            (0, 2, 0),
            (0, 0, 1),
        }

    def test_parity_cardinalities(self):
        from rncgeom.catalog import binom

        for r in (1, 2, 3):
            for q in (4, 6, 8, 10, 12):
                sigma = q // 2
                card = len(build_A_cone(r, q)) + 1
                if sigma % 2 == 0:
                    rho = sigma // 2
                    expected = binom(r + rho + 1, r + 1) + 3 * binom(r + rho, r + 1)
                else:
                    rho = (sigma - 1) // 2
                    expected = 3 * binom(r + rho + 1, r + 1) + binom(r + rho, r + 1)
                assert card == expected == pi(r, 5, q) + 1

    def test_q4_is_cone_over_veronese_surface(self):
        index_set = build_A_cone(3, 4)
        quad = {i for i in index_set.indices if i[2] == i[3] == 0}
        assert quad == {(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}
        assert {i for i in index_set.indices if i[2] + i[3] == 1} == {
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        }

    def test_odd_q_rejected(self):
        with pytest.raises(SpecError):
            build_A_cone(2, 5)


class TestScrollSpec:
    def test_ordering_enforced(self):
        with pytest.raises(SpecError):
            ScrollSpec((1, 2))

    def test_derived_quantities(self):
        a = ScrollSpec((2, 1, 1))
        assert (a.r, a.n, a.is_cone) == (2, 5, False)
        assert ScrollSpec((4, 0, 0)).is_cone


class TestQuadraticForm:
    def test_hyperbolic_values(self):
        form = QuadraticForm(3, 3)  # x1 x2 + x3^2
        assert form.eval((F(2), F(3), F(1))) == 7

    def test_rank_out_of_range(self):
        with pytest.raises(SpecError):
            QuadraticForm(4, 3)

    def test_eval_is_that_of_the_polynomial(self):
        # the normal form read directly, against the Polynomial reference
        rng = random.Random(5)
        for nvars in range(1, 6):
            for rank in range(nvars + 1):
                form = QuadraticForm(rank, nvars)
                for _ in range(10):
                    point = tuple(
                        F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(nvars)
                    )
                    value = form.eval(point)
                    assert type(value) is F and value == form.poly().eval(point)
                ints = tuple(rng.randint(-9, 9) for _ in range(nvars))
                value = form.eval(ints)
                assert type(value) is int and value == form.poly().eval(ints)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), nvars=st.integers(1, 6), ints=st.booleans())
    def test_polar_is_that_of_the_polynomial(self, data, nvars, ints):
        # polar(u, v) = P(u + v) - P(u) - P(v), symmetric, with polar(u, u) = 2 q(u)
        form = QuadraticForm(data.draw(st.integers(0, nvars)), nvars)
        coord = st.integers(-9, 9) if ints else st.fractions(-9, 9, max_denominator=7)
        u, v = (
            tuple(data.draw(st.lists(coord, min_size=nvars, max_size=nvars)))
            for _ in range(2)
        )
        p = form.poly()
        total = tuple(x + y for x, y in zip(u, v))
        value = form.polar(u, v)
        # int in, int out; Fraction in, Fraction out
        assert type(value) is (int if ints else F)
        assert value == p.eval(total) - p.eval(u) - p.eval(v)
        assert form.polar(v, u) == value
        assert form.polar(u, u) == 2 * form.eval(u)
        with pytest.raises(DimensionMismatchError):
            form.polar(u, v + (0,))
        with pytest.raises(DimensionMismatchError):
            form.polar(u[1:], v)

    def test_eval_rejects_a_point_of_the_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticForm(2, 3).eval((F(1), F(2)))


class TestMakeVariety:
    SPECS = [
        Veronese(2, 2),
        Veronese(3, 3),
        Scroll(ScrollSpec((1, 1))),
        Scroll(ScrollSpec((2, 2))),
        StandardScroll(ScrollSpec((1, 1)), 2, 0),
        StandardScroll(ScrollSpec((2, 1, 1)), 1, 1),
        ConeStandard(1, 4),
        ConeStandard(2, 6),
        QuadricVeronese(3, 1, 5),
        QuadricVeronese(3, 2, 6),
        SegreSpecial(2, 4),
        SegreSpecial(3, 3),
        CubicSpecial(2, 2),
        CubicSpecial(3, 1),
        Veronese33(),
    ]

    def test_span_equals_pi(self):
        for spec in self.SPECS:
            variety = make_variety(spec)
            params = declared_class(spec)
            assert variety.ambient_dim == catalog.pi_formula(params), spec
            assert variety.span().dim == variety.ambient_dim, spec

    def test_components_are_the_chart(self):
        # make_variety wraps spec.components() and nothing else
        specs = {type(spec): spec for spec in self.SPECS}
        assert set(specs.values()) <= set(self.SPECS)
        assert set(specs) == set(catalog.FAMILIES.values())
        for cls, spec in specs.items():
            assert not hasattr(cls, "chart")
            assert make_variety(spec).components[1:] == tuple(spec.components()), spec

    def test_veronese_curve_builds(self):
        # Veronese(1, k) declares no valid class but is a twisted k-ic chart
        variety = make_variety(Veronese(1, 3))
        assert variety.nparams == 1 and variety.ambient_dim == 3
        assert variety.span().dim == 3

    def test_segre_span_value(self):
        variety = make_variety(SegreSpecial(2, 4))
        assert variety.ambient_dim == 7  # P^{2r+3}

    def test_nested_index_set_projection_is_chart_isomorphism(self):
        # dropping coordinates from A(2,0) to A(1,0) inverts the chart inclusion
        big = build_A(ScrollSpec((1, 1)), 2, 0)
        small = build_A(ScrollSpec((1, 1)), 1, 0)
        assert small.indices < big.indices
        rng = random.Random(1)
        big_model = make_variety(StandardScroll(ScrollSpec((1, 1)), 2, 0))
        small_model = make_variety(Scroll(ScrollSpec((1, 1))))
        positions = {
            idx: pos for pos, idx in enumerate(big.sorted_indices(), start=1)
        }
        for _ in range(5):
            p = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            image = big_model.eval(p)
            restricted = (image[0],) + tuple(
                image[positions[idx]] for idx in small.sorted_indices()
            )
            assert restricted == small_model.eval(p)

    def test_quadric_veronese_components_span_full_system(self):
        # independent oracle: the chosen basis must span the same function
        # space as the full (linearly dependent) order-rho system of the
        # quadric graph chart, of dimension pi + 1 including constants
        from rncgeom.linalg import rank
        from rncgeom.poly import Polynomial, compositions

        for spec in (QuadricVeronese(3, 2, 5), QuadricVeronese(3, 3, 6)):
            r, rho = spec.r, spec.rho
            nv = r + 1
            h = spec.form()
            u = [-h.poly()] + [Polynomial.variable(nv, j) for j in range(nv)]
            full = [Polynomial.one(nv)]
            for total in range(1, rho + 1):
                for beta in compositions(total, r + 2):
                    term = Polynomial.one(nv)
                    for f, e in zip(u, beta):
                        if e:
                            term = term * f**e
                    full.append(term)
            monomials = sorted({e for p in full for e, _ in p.items()})
            rows = [[p.coefficient(m) for m in monomials] for p in full]
            expected = catalog.pi_formula(declared_class(spec)) + 1
            assert rank(rows, len(monomials)) == expected
            # the constructor's components sit inside the same space
            variety = make_variety(spec)
            extra = [
                [c.coefficient(m) for m in monomials] for c in variety.components
            ]
            assert rank(rows + extra, len(monomials)) == expected

    def test_invalid_specs(self):
        with pytest.raises(SpecError):
            SegreSpecial(2, 2)  # rank too small
        with pytest.raises(SpecError):
            QuadricVeronese(2, 1, 6)  # rank above r+3
        with pytest.raises(SpecError):
            CubicSpecial(1, 1)


class TestJsonRoundTrip:
    def test_every_family_has_a_spec(self):
        covered = {type(spec) for spec in TestMakeVariety.SPECS}
        assert covered == set(catalog.FAMILIES.values())

    def test_round_trip_all_families(self):
        for spec in TestMakeVariety.SPECS:
            doc = spec_to_json(spec)
            assert doc["family"] in catalog.FAMILIES
            assert spec_from_json(json.loads(json.dumps(doc))) == spec

    def test_malformed(self):
        docs = [
            {"family": "Nope"},
            {"family": "Veronese", "params": {"dim": 2}},
            [1, 2, 3],
            {"family": "Veronese", "params": {"dim": "x", "order": 2}},
            {"family": "Scroll", "params": {"a": 5}},
            {"family": 5, "params": {}},
            {"family": ["Veronese"], "params": {"dim": 2, "order": 2}},
            {"family": "Veronese", "params": [2, 2]},
            # JSON integers are checked, not truncated or parsed
            {"family": "Veronese", "params": {"dim": 2.7, "order": 2}},
            {"family": "Veronese", "params": {"dim": 2.0, "order": 2}},
            {"family": "Veronese", "params": {"dim": "2", "order": 2}},
            {"family": "Veronese", "params": {"dim": True, "order": 2}},
            {"family": "Veronese", "params": {"dim": float("inf"), "order": 2}},
            {"family": "Scroll", "params": {"a": [1.9, 1]}},
            {"family": "Scroll", "params": {"a": [1, True]}},
            {"family": "Scroll", "params": {"a": "11"}},
            {"family": "Scroll", "params": {"a": {"1": 1}}},
            {"family": "StandardScroll", "params": {"a": [1, 1], "rho": 2, "chi": "1"}},
            # a parameter the family does not have is not dropped
            {"family": "Veronese", "params": {"dim": 2, "order": 2, "bogus": 1}},
            {"family": "Veronese33", "params": {"r": 2}},
        ]
        for doc in docs:
            with pytest.raises(SpecError):
                spec_from_json(doc)


class TestFamiliesHoldTheirCurves:
    """A spec class is the one place its family is described."""

    def test_rnc_binds_nothing_of_the_catalog(self):
        bound = [
            name
            for name, value in vars(rnc).items()
            if value is catalog or getattr(value, "__module__", None) == catalog.__name__
        ]
        assert bound == []

    def test_every_family_samples_and_fits(self):
        with_witness = set()
        for cls in catalog.FAMILIES.values():
            assert callable(cls.sampler) and callable(cls.fit)
            if hasattr(cls, "witness"):
                assert callable(cls.witness)
                with_witness.add(cls)
        assert with_witness == {SegreSpecial, CubicSpecial, Veronese33, StandardScroll}

    def test_an_object_that_is_no_spec_is_rejected(self):
        with pytest.raises(SpecError):
            rnc.fit_rnc_through(object(), [])
        with pytest.raises(SpecError):
            rnc.sample_parameter_points(object(), random.Random(0))

    def test_a_family_without_a_witness_is_rejected(self):
        with pytest.raises(SpecError, match="no specialness witness"):
            verify.specialness_witness(Veronese(2, 2))
