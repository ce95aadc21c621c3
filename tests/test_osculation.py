import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest

from rncgeom import catalog, linalg
from rncgeom.catalog import ScrollSpec, SegreSpecial, StandardScroll, Veronese, Scroll
from rncgeom.errors import (
    DegenerateParametrizationError,
    DimensionMismatchError,
    GeneralPositionError,
)
from rncgeom.linalg import QMatrix, projection_from, span_of
from rncgeom.osculation import (
    Parametrization,
    _distinct_permutations,
    admissibility_check,
    contact_locus_dim_monomial,
    curve_projection_check,
    min_hitting_set,
    osculating_projection,
    osculating_projection_map,
    osculator,
    project_curve,
    regularity_order,
)
from rncgeom.poly import Polynomial, RationalCurve, curve_from_lists
from rncgeom.sampling import rand_invertible_matrix, rand_vector


def origin(d):
    return (F(0),) * d


class TestOsculator:
    def test_veronese_surface_orders(self):
        v = catalog.make_variety(Veronese(2, 2))
        rep1 = osculator(v, origin(2), 1)
        assert rep1.subspace.dim == 2 and rep1.is_regular
        rep2 = osculator(v, origin(2), 2)
        assert rep2.subspace.dim == 5 and rep2.is_regular
        rep3 = osculator(v, origin(2), 3)
        assert rep3.subspace.dim == 5 and not rep3.is_regular

    def test_scroll_chart_not_two_regular(self):
        # chart (t, t^2, s, s t): 5-row derivative matrix has rank 5 < 6
        v = catalog.make_variety(Scroll(ScrollSpec((2, 1))))
        rep = osculator(v, origin(2), 2)
        assert rep.subspace.dim == 4
        assert rep.expected_dim_plus_1 == 6 and not rep.is_regular

    def test_order_zero_is_point(self):
        v = catalog.make_variety(Veronese(2, 2))
        rep = osculator(v, (F(1), F(2)), 0)
        assert rep.subspace.dim == 0 and rep.is_regular


class TestRegularityOrder:
    def test_twisted_cubic(self):
        v = catalog.make_variety(Veronese(1, 3))
        assert regularity_order(v, (F(2),)) == 3

    def test_line(self):
        v = Parametrization.from_affine(1, [Polynomial.variable(1, 0)])
        assert regularity_order(v, (F(0),)) == 1

    def test_veronese_threefold_order_three(self):
        v = catalog.make_variety(Veronese(3, 3))
        rng = random.Random(2)
        assert regularity_order(v, rand_vector(rng, 3)) == 3

    def test_monomial_chart_homogeneous(self):
        # regularity order at the origin matches a random point
        spec = StandardScroll(ScrollSpec((2, 1)), 2, 1)
        v = catalog.make_variety(spec)
        rng = random.Random(3)
        assert regularity_order(v, origin(2)) == regularity_order(
            v, rand_vector(rng, 2)
        )

    def test_each_partial_taken_once(self):
        # the order-4 osculator would have 35 rows of 20 components, so the
        # row count alone decides the answer and layer 4 is never derived;
        # no lower-order row is differentiated again.  The chart is built
        # afresh: make_variety's shared one may already hold its partials.
        v = Parametrization.from_affine(3, Veronese(3, 3).components())
        calls = []
        original = Polynomial.partial

        def counting(self, orders):
            calls.append(orders)
            return original(self, orders)

        with mock.patch.object(Polynomial, "partial", counting):
            assert regularity_order(v, (F(1), F(2), F(-1))) == 3
        # layers 2 and 3 (16 multi-indices); layer 1 went to the rank check
        assert len(calls) == 16 * 20

    def test_partials_shared_by_the_points(self):
        # a 5-point regularity job derives the partials once, not once per
        # point, on a fresh chart (make_variety's shared one may hold them)
        v = Parametrization.from_affine(3, Veronese(3, 3).components())
        points = [rand_vector(random.Random(seed), 3) for seed in range(5)]
        expected = [regularity_order(catalog.make_variety(Veronese(3, 3)), p) for p in points]
        calls = []
        original = Polynomial.partial

        def counting(self, orders):
            calls.append(orders)
            return original(self, orders)

        with mock.patch.object(Polynomial, "partial", counting):
            assert [regularity_order(v, p) for p in points] == expected == [3] * 5
        assert len(calls) == 16 * 20  # layers 2 and 3, as above

    def test_base_point_rejected(self):
        x = Polynomial.variable(1, 0)
        v = Parametrization(1, [x, x * x])
        with pytest.raises(DegenerateParametrizationError):
            regularity_order(v, (F(0),))
        with pytest.raises(DegenerateParametrizationError):
            osculator(v, (F(0),), 1)


class TestMonomialShortcut:
    def test_origin_osculator_is_coordinate_span(self):
        spec = StandardScroll(ScrollSpec((2, 1, 1)), 1, 1)
        index_set = catalog.build_A(spec.a, spec.rho, spec.chi)
        v = catalog.make_variety(spec)
        for k in (1, 2, 3):
            rep = osculator(v, origin(3), k)
            rows = []
            e0 = [F(0)] * (v.ambient_dim + 1)
            e0[0] = F(1)
            rows.append(tuple(e0))
            for pos, idx in enumerate(index_set.sorted_indices()):
                if sum(idx) <= k:
                    row = [F(0)] * (v.ambient_dim + 1)
                    row[1 + pos] = F(1)
                    rows.append(tuple(row))
            assert rep.subspace == span_of(rows, v.ambient_dim)


class TestAdmissibility:
    def test_scroll_s11_three_points(self):
        # tangent plane at a1 plus a point a2 fills P^3; points sharing a
        # ruling line (equal t or equal s) would be degenerate
        from rncgeom.sampling import rand_distinct_rationals

        v = catalog.make_variety(Scroll(ScrollSpec((1, 1))))
        rng = random.Random(7)
        svals = rand_distinct_rationals(rng, 3)
        pts = [(t, s) for t, s in zip((F(0), F(1), F(2)), svals)]
        report = admissibility_check(v, pts, (1, 0))
        assert report.ok, report.failure

    def test_veronese_two_points(self):
        v = catalog.make_variety(Veronese(2, 3))
        pts = [(F(0), F(0)), (F(1), F(2))]
        report = admissibility_check(v, pts, (3,))
        assert report.ok, report.failure

    def test_repeated_points_fail(self):
        v = catalog.make_variety(Veronese(2, 3))
        pts = [(F(0), F(0)), (F(0), F(0))]
        report = admissibility_check(v, pts, (3,))
        assert not report.ok

    def test_wrong_weights_rejected(self):
        # q = 3 over n = 3 forces the pondération (1, 1), not (2, 0)
        v = catalog.make_variety(Scroll(ScrollSpec((1, 1))))
        pts = [(F(i), F(i + 1)) for i in range(3)]
        with pytest.raises(ValueError):
            admissibility_check(v, pts, (2, 0))


def reference_distinct_permutations(values):
    """The orderings as first listed: all len! permutations, deduplicated."""
    return sorted(set(itertools.permutations(values)))


class TestDistinctPermutations:
    @pytest.mark.parametrize("length", range(1, 9))
    def test_matches_the_permutation_route(self, length):
        # the weights of a pondération take the values rho and rho - 1, in
        # any order; the sorted list, and so the random.Random(0) sample of
        # the assignments built from it, must not change
        rng = random.Random(length)
        for high in range(length + 1):
            values = [2] * high + [1] * (length - high)
            rng.shuffle(values)
            got = _distinct_permutations(tuple(values))
            expected = reference_distinct_permutations(tuple(values))
            assert got == expected
            assignments = [tuple(zip(range(length), perm)) for perm in got] * 3
            sample = random.Random(0).sample(assignments, min(40, len(assignments)))
            reference = [tuple(zip(range(length), perm)) for perm in expected] * 3
            assert sample == random.Random(0).sample(reference, min(40, len(reference)))

    def test_sixteen_weights(self):
        # 16! permutations would never finish; the 8 places of the larger
        # value are C(16, 8) choices
        perms = _distinct_permutations((3, 2) * 8)
        assert len(perms) == len(set(perms)) == math.comb(16, 8)
        assert perms == sorted(perms) and all(sorted(p) == [2] * 8 + [3] * 8 for p in perms)


class TestOsculatingProjection:
    def test_standard_scroll_projects_to_veronese_span(self):
        # project X(2,0) over S_{1,1} from a tangent osculator: span P^5, 2-regular
        spec = StandardScroll(ScrollSpec((1, 1)), 2, 0)
        v = catalog.make_variety(spec)
        rng = random.Random(4)
        point = (F(3),) + rand_vector(rng, 1)
        image = osculating_projection(v, [(point, 1)])
        assert image.span().dim == catalog.pi(1, 2, 2) == 5
        other = rand_vector(rng, 2)
        assert regularity_order(image, other) == 2

    def test_monomial_center_is_coordinate_deletion(self):
        spec = StandardScroll(ScrollSpec((1, 1)), 2, 0)
        v = catalog.make_variety(spec)
        index_set = catalog.build_A(spec.a, 2, 0)
        proj, image = osculating_projection_map(v, [(origin(2), 1)])
        expected_cols = tuple(
            1 + pos
            for pos, idx in enumerate(index_set.sorted_indices())
            if sum(idx) >= 2
        )
        assert proj.rows == [
            [int(j == c) for j in range(v.ambient_dim + 1)] for c in expected_cols
        ]
        assert proj.den == 1

    def test_veronese33_projection_lands_in_class_3_5_7(self):
        # projecting the cubic Veronese threefold from a first osculator
        v = catalog.make_variety(Veronese(3, 3))
        rng = random.Random(6)
        point = rand_vector(rng, 3)
        image = osculating_projection(v, [(point, 1)])
        assert image.span().dim == catalog.pi(2, 5, 7)

    def test_direct_sum_failure_raises(self):
        v = catalog.make_variety(Veronese(2, 2))
        point = (F(1), F(1))
        with pytest.raises(GeneralPositionError):
            osculating_projection(v, [(point, 1), (point, 1)])

    def test_map_builds_no_subspace(self, monkeypatch):
        # the osculators' integer rows are eliminated once, as a kernel:
        # no ProjSubspace, neither per osculator nor for their join
        v = catalog.make_variety(Veronese(3, 3))
        built = []
        init = linalg.ProjSubspace.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(linalg.ProjSubspace, "__init__", counting_init)
        rng = random.Random(7)
        proj, image = osculating_projection_map(
            v, [(rand_vector(rng, 3), 1), (rand_vector(rng, 3), 0)]
        )
        image.eval(rand_vector(rng, 3))
        assert proj.target_dim == v.ambient_dim - 5
        assert built == []
        osculator(v, rand_vector(rng, 3), 1)
        assert len(built) == 1


class TestProjectiveInvariance:
    def test_osculators_transform(self):
        v = catalog.make_variety(Veronese(2, 2))
        rng = random.Random(8)
        point = rand_vector(rng, 2)
        rep = osculator(v, point, 2)
        # the draw's integer rows: the same projectivity as rows over its denominator
        g = QMatrix(rand_invertible_matrix(rng, v.ambient_dim + 1)[0])
        moved = Parametrization(
            v.nparams,
            [
                sum(
                    (comp.scale(g.entries[i][j]) for j, comp in enumerate(v.components)),
                    Polynomial.zero(v.nparams),
                )
                for i in range(v.ambient_dim + 1)
            ],
        )
        rep_moved = osculator(moved, point, 2)
        transported = span_of(
            [g.matvec(row) for row in rep.subspace.basis], v.ambient_dim
        )
        assert rep_moved.subspace == transported


class TestProjectionCompatibility:
    def test_image_osculator_is_projected_osculator(self):
        rng = random.Random(12)
        v = catalog.make_variety(SegreSpecial(2, 4))
        point = rand_vector(rng, 3)
        rep = osculator(v, point, 1)
        for _ in range(20):
            center = span_of([rand_vector(rng, v.ambient_dim + 1)], v.ambient_dim)
            from rncgeom.linalg import try_direct_sum

            ok, _, _ = try_direct_sum([center, rep.subspace])
            if ok:
                break
        from rncgeom.linalg import projection_from

        proj = projection_from(center)
        image = Parametrization(v.nparams, proj.apply_polys(list(v.components)))
        image_osc = osculator(image, point, 1)
        assert image_osc.subspace == proj.image_of(rep.subspace)


class TestSubvarietyRegularity:
    def test_coordinate_slice_stays_regular(self):
        v = catalog.make_variety(Veronese(3, 2))
        # slice s3 = 0 inside a 2-regular germ: restrict the components
        zero = Polynomial.zero(2)
        slice_args = [
            Polynomial.variable(2, 0),
            Polynomial.variable(2, 1),
            zero,
        ]
        sliced = Parametrization(
            2, [c.compose(slice_args) for c in v.components]
        )
        rng = random.Random(13)
        p = rand_vector(rng, 2)
        assert osculator(sliced, p, 2).is_regular


class TestCurveProjection:
    def test_twisted_cubic_projects_to_conic(self):
        curve = RationalCurve(
            [Polynomial.univariate([1])]
            + [Polynomial.univariate([0] * k + [1]) for k in (1, 2, 3)]
        )
        assert curve_projection_check(curve, F(1), 2)

    def test_line_degenerate_case(self):
        curve = RationalCurve(
            [Polynomial.univariate([1]), Polynomial.univariate([0, 1])]
        )
        assert curve_projection_check(curve, F(0), 0)

    def test_degree_four_projects_to_twisted_cubic(self):
        curve = RationalCurve(
            [Polynomial.univariate([1])]
            + [Polynomial.univariate([0] * k + [1]) for k in (1, 2, 3, 4)]
        )
        assert curve_projection_check(curve, F(2), 3)

    def test_random_rnc_after_projectivity(self):
        rng = random.Random(21)
        base = [Polynomial.univariate([0] * k + [1]) for k in range(5)]
        # the draw's integer rows: the same projectivity as rows over its denominator
        g = QMatrix(rand_invertible_matrix(rng, 5)[0])
        comps = [
            sum(
                (base[j].scale(g.entries[i][j]) for j in range(5)),
                Polynomial.zero(1),
            )
            for i in range(5)
        ]
        assert curve_projection_check(RationalCurve(comps), F(1, 2), 3)

    def test_all_orders_up_to_degree(self):
        # an RNC of degree D is (k+1)-regular everywhere for k+1 <= D, so
        # the equality of the projection lemma holds at every such order
        curve = RationalCurve(
            [Polynomial.univariate([0] * k + [1]) for k in range(6)]
        )
        for t0 in (F(0), F(2), F(-1, 2)):
            for k in range(5):
                assert curve_projection_check(curve, t0, k), (t0, k)

    def test_ambient_mismatch_raises(self):
        # the projection's rows must pair with the curve's components one to
        # one; a longer or shorter row would drop or ignore components
        cubic = curve_from_lists([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])
        for center in (span_of([(1, 0, 0, 0, 0)]), span_of([(1, 0)])):
            with pytest.raises(DimensionMismatchError):
                project_curve(projection_from(center), cubic)
        image = project_curve(projection_from(span_of([(1, 0, 0, 0)])), cubic)
        # (t : t^2 : t^3) is the conic (1 : t : t^2)
        assert image.integer_lists() == [[1], [0, 1], [0, 0, 1]]


class TestContactLocus:
    def test_single_monomial(self):
        assert contact_locus_dim_monomial([(1, 1)], 2, 1) == 1

    def test_three_supports(self):
        # frozen via exhaustive enumeration: min hitting set is 2
        indices = [(1, 1, 0), (1, 0, 1), (0, 2, 0)]
        assert contact_locus_dim_monomial(indices, 3, 1) == 1

    def test_empty_contact_set_full_space(self):
        assert contact_locus_dim_monomial([(1, 0)], 2, 5) == 2

    def test_branch_and_bound_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            nvars = rng.randint(2, 5)
            supports = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(1, nvars)
                supports.append(frozenset(rng.sample(range(nvars), size)))
            best = None
            for size in range(nvars + 1):
                for combo in itertools.combinations(range(nvars), size):
                    if all(set(combo) & s for s in supports):
                        best = size
                        break
                if best is not None:
                    break
            assert min_hitting_set(supports) == best

    def test_scroll_codimension_two(self):
        # A(rho, -1) with a_2 >= 1 has contact codimension >= 2 at order rho-1
        a = ScrollSpec((2, 1, 1))
        index_set = catalog.build_A(a, 2, -1)
        dim = contact_locus_dim_monomial(
            index_set.sorted_indices(), index_set.nvars, 1
        )
        assert dim <= a.r - 1
