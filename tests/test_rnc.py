import collections
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rncgeom import catalog, linalg, poly, rnc
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
    declared_class,
)
from rncgeom.errors import (
    DegenerateCurveError,
    DimensionMismatchError,
    GeneralPositionError,
    GenericityError,
)
from rncgeom.linalg import QMatrix, projection_from, span_of, try_direct_sum
from rncgeom.osculation import Parametrization, osculator, project_curve
from rncgeom.poly import Polynomial, RationalCurve, curve_normalize
from rncgeom.rnc import (
    certify_curve,
    conic_on_quadric,
    curve_contains_point,
    fit_rnc_through,
    fit_scroll_section,
    rnc_through_points,
    sample_parameter_points,
)
from rncgeom.sampling import rand_distinct_rationals, rand_vector
from rncgeom.verify import RESAMPLE_ERRORS
from test_gcd_oracle import reference_curve_contains_point


def monomial_curve(*degrees):
    return RationalCurve([Polynomial.univariate([0] * d + [1]) for d in degrees])


class TestCertify:
    def test_twisted_cubic(self):
        cert = certify_curve(monomial_curve(0, 1, 2, 3))
        assert (cert.degree, cert.span_dim, cert.is_rnc) == (3, 3, True)

    def test_degree_four_in_p3(self):
        cert = certify_curve(monomial_curve(0, 1, 2, 4))
        assert (cert.degree, cert.span_dim, cert.is_rnc) == (4, 3, False)

    def test_span_never_exceeds_degree(self):
        rng = random.Random(2)
        for _ in range(10):
            comps = [
                Polynomial.univariate(rand_vector(rng, rng.randint(2, 5)))
                for _ in range(4)
            ]
            try:
                cert = certify_curve(RationalCurve(comps))
            except DegenerateCurveError:
                continue
            assert cert.span_dim <= cert.degree

    def test_constant_curve_rejected(self):
        with pytest.raises(DegenerateCurveError):
            certify_curve(RationalCurve([Polynomial.one(1), Polynomial.one(1)]))

    def test_span_that_drops_only_modulo_the_prime(self):
        # (1 : p t) has coefficient matrix [[1, 0], [0, p]], of rank 1
        # modulo p = 2^61 - 1 and rank 2 over Q: the exact rank decides
        p = 2**61 - 1
        cert = certify_curve(poly.curve_from_lists([[1], [0, p]]))
        assert (cert.degree, cert.span_dim, cert.is_rnc) == (1, 1, True)

    def test_span_equals_osculating_regularity(self):
        # dual route: coefficient-matrix rank against derivative ranks at
        # a generic point (the span of an irreducible curve equals its
        # osculating regularity order)
        from rncgeom.osculation import regularity_order

        rng = random.Random(3)
        for comps in (
            monomial_curve(0, 1, 2, 3),
            monomial_curve(0, 1, 2, 4),
            monomial_curve(0, 2, 3, 5),
        ):
            cert = certify_curve(comps)
            wrapped = Parametrization.from_curve(comps)
            point = rand_vector(rng, 1)
            assert regularity_order(wrapped, point) == cert.span_dim


class TestContainsPoint:
    def test_on_curve(self):
        curve = monomial_curve(0, 1, 2, 3)
        assert curve_contains_point(curve, (1, 2, 4, 8))
        assert curve_contains_point(curve, (8, 4, 2, 1))  # t = 1/2 scaled
        assert curve_contains_point(curve, (0, 0, 0, 1))  # value at infinity

    def test_off_curve(self):
        curve = monomial_curve(0, 1, 2, 3)
        assert not curve_contains_point(curve, (1, 2, 4, 9))

    def test_carried_pair_certifies_without_a_gcd(self, monkeypatch):
        curve = RationalCurve(monomial_curve(0, 1, 2, 3).components, [(F(1, 2), 1), (3, 0)])
        gcds = _callers(monkeypatch, "_gcd_ints")
        assert curve_contains_point(curve, (8, 4, 2, 1))  # t = 1/2 scaled
        assert curve_contains_point(curve, (0, 0, 0, F(1, 3)))  # value at infinity
        assert gcds == []

    def test_wrong_pair_falls_back_to_the_gcd(self, monkeypatch):
        curve = RationalCurve(monomial_curve(0, 1, 2, 3).components, [(5, 1), (1, 0)])
        gcds = _callers(monkeypatch, "_gcd_ints")
        assert curve_contains_point(curve, (1, 2, 4, 8))  # t = 2 is not carried
        assert not curve_contains_point(curve, (1, 2, 4, 9))
        assert gcds.count("curve_contains_point") == 4

    # a twisted cubic with Fraction coefficients, t -> (t^i (1 - t)^(3 - i) (i + 1) / 2)
    BASE = RationalCurve([
        Polynomial.univariate([F(i + 1, 2)]) * Polynomial.monomial(1, (i,))
        * Polynomial.univariate([1, -1]) ** (3 - i)
        for i in range(4)
    ])

    def _points(self):
        on = [self.BASE.eval(t) for t in (F(0), F(2), F(-1, 3), F(5, 2))]
        on.append(self.BASE.eval(F(1)))  # first coordinate zero
        on.append(self.BASE.value_at_infinity())
        off = [(F(1), F(0), F(0), F(1)), (F(0), F(1, 2), F(0), F(2)), (F(1, 3), F(1), F(2), F(3))]
        return on, off

    def test_fraction_curve_agrees_with_reference(self):
        on, off = self._points()
        assert on[-2][0] == 0
        normal = curve_normalize(self.BASE)
        for point in on + off:
            expected = reference_curve_contains_point(self.BASE, point)
            assert expected == (point in on)
            assert curve_contains_point(self.BASE, point) == expected
            assert curve_contains_point(normal, point, assume_normalized=True) == expected
            # the flag is a claim, checked: BASE has Fraction coefficients
            with pytest.raises(ValueError, match="curve is not normalized"):
                curve_contains_point(self.BASE, point, assume_normalized=True)

    def test_curve_with_common_factor_agrees_with_reference(self):
        # a common factor makes every minor vanish at its root, so only
        # normalization can tell the off-curve points apart
        factor = Polynomial.univariate([F(-2, 5), F(3, 5)])
        curve = RationalCurve([c * factor for c in self.BASE.components])
        on, off = self._points()
        for point in on + off:
            expected = reference_curve_contains_point(curve, point)
            assert expected == (point in on)
            assert curve_contains_point(curve, point) == expected
            with pytest.raises(ValueError, match="curve is not normalized"):
                curve_contains_point(curve, point, assume_normalized=True)


def _reference_rnc_through_points(d, points, free_params):
    """``rnc_through_points`` with one rank per (d+1)-subset and a second
    inverse for the frame, the plain reading of its preconditions."""
    pts = [tuple(F(x) for x in p) for p in points]
    for subset in itertools.combinations(range(d + 3), d + 1):
        if linalg.rank([pts[i] for i in subset], d + 1) != d + 1:
            raise GeneralPositionError(
                f"points {list(subset)} span less than a P^{d}", witness=subset
            )
    t_w, kappa = (F(x) for x in free_params)
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    simplex = pts[: d + 1]
    lam = QMatrix(zip(*simplex)).inverse().matvec(pts[d + 1])
    frame = QMatrix(
        [[lam[j] * simplex[j][i] for j in range(d + 1)] for i in range(d + 1)]
    )
    w = frame.inverse().matvec(pts[d + 2])
    t = Polynomial.variable(1, 0)
    factors = [t - Polynomial.constant(1, t_w - kappa / wi) for wi in w]
    comps = []
    for i in range(d + 1):
        prod = Polynomial.one(1)
        for j in range(d + 1):
            if j != i:
                prod = prod * factors[j]
        comps.append(prod)
    return curve_normalize(
        RationalCurve([poly.combine(row, comps) for row in frame.entries])
    )


def _at(curve, pair):
    """The point of ``curve`` at the homogeneous parameter (s : u)."""
    s, u = pair
    return curve.eval(s / u) if u else curve.value_at_infinity()


def _proportional(u, v):
    """Whether u and v are nonzero and the same projective point."""
    return any(u) and any(v) and all(
        u[i] * v[k] == u[k] * v[i] for i, k in itertools.combinations(range(len(u)), 2)
    )


def _outcome(function, *args):
    try:
        curve = function(*args)
    except (GeneralPositionError, ValueError) as exc:
        return type(exc), str(exc).encode(), getattr(exc, "witness", None)
    return curve.coefficient_vectors()


@st.composite
def rnc_inputs(draw):
    """``(d, points, free_params)`` with one chosen degeneracy, if any.

    The d+3 points are built as B, B lam and B w from a matrix B of
    simplex columns, so that a zero coordinate, a repeated ratio
    lam_a / w_a or a singular B can be forced before the points are
    scaled, each by a nonzero rational of its own, and shuffled.  kappa
    is sometimes 0.
    """
    d = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    nonzero = st.fractions(-4, 4, max_denominator=3).filter(bool)
    cols = [[draw(entry) for _ in range(d + 1)] for _ in range(d + 1)]
    lam = [draw(nonzero) for _ in range(d + 1)]
    w = [draw(nonzero) for _ in range(d + 1)]
    a, b = draw(st.permutations(range(d + 1)))[:2]
    case = draw(
        st.sampled_from(
            ["general", "singular", "zero_lam", "zero_w", "equal_ratio", "zero_point"]
        )
    )
    if case == "singular":
        cols[a] = [draw(entry) * x for x in cols[b]]
    elif case == "zero_lam":
        lam[a] = F(0)
    elif case == "zero_w":
        w[a] = F(0)
    elif case == "equal_ratio":
        c = draw(nonzero)
        lam[b], w[b] = c * lam[a], c * w[a]
    points = [tuple(col) for col in cols]
    for coeffs in (lam, w):
        points.append(
            tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(d + 1))
        )
    if case == "zero_point":
        points[draw(st.integers(0, d + 2))] = (0,) * (d + 1)
    # each point as some multiple, so that each is cleared by its own factor
    scales = [draw(nonzero) for _ in points]
    points = [tuple(c * x for x in p) for c, p in zip(scales, points)]
    points = [points[k] for k in draw(st.permutations(range(d + 3)))]
    free_params = (
        draw(st.fractions(-3, 3, max_denominator=2)),
        draw(st.sampled_from([F(-1), F(0), F(1, 2), F(3)])),
    )
    return d, points, free_params


class TestRncThroughPoints:
    def test_conic_satisfies_implicit_equation(self):
        # oracle: the conic through e0, e1, e2, [1:1:1], [1:2:3] satisfies
        # 3xy + yz - 4xz = 0 (nullspace of the 5x6 monomial system)
        points = [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 1),
            (1, 2, 3),
        ]
        curve = rnc_through_points(2, points)
        x, y, z = curve.components
        residual = (x * y).scale(3) + y * z - (x * z).scale(4)
        assert residual.is_zero()
        for p in points:
            assert curve_contains_point(curve, p)

    def test_mobius_case_d1(self):
        points = [(1, 0), (0, 1), (1, 1), (2, 5)]
        curve = rnc_through_points(1, points)
        cert = certify_curve(curve)
        assert cert.degree == 1 and cert.span_dim == 1
        for p in points:
            assert curve_contains_point(curve, p)

    @pytest.mark.parametrize(
        "d, points", [(0, [(1,), (2,), (3,)]), (-1, [(), ()]), (-2, [(1,)])]
    )
    def test_degree_below_one_is_rejected(self, d, points):
        # degree 0 once returned the constant "curve" [[1]] through three
        # points of P^0, and degree -1 failed deep inside normalization
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            rnc_through_points(d, points)

    def test_twisted_cubic_through_random_points(self):
        rng = random.Random(4)
        points = [(F(1),) + rand_vector(rng, 3) for _ in range(6)]
        curve = rnc_through_points(3, points)
        cert = certify_curve(curve)
        assert cert.is_rnc and cert.degree == 3
        for p in points:
            assert curve_contains_point(curve, p)

    def test_uniqueness_across_free_parameters(self):
        rng = random.Random(5)
        points = [(F(1),) + rand_vector(rng, 3) for _ in range(6)]
        a = rnc_through_points(3, points)
        b = rnc_through_points(3, points, free_params=(F(2), F(3)))
        assert a == rnc_through_points(3, points)
        assert b == rnc_through_points(3, points, free_params=(F(2), F(3)))
        assert a != b  # two parametrizations of one curve
        for t in (F(0), F(1), F(-1), F(1, 2), F(7, 3)):
            assert curve_contains_point(b, a.eval(t))
            assert curve_contains_point(a, b.eval(t))
        for curve in (a, b):
            for p, pair in zip(points, curve.params):
                assert _proportional(_at(curve, pair), p)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 5),
        data=st.data(),
        t_w=st.fractions(-3, 3, max_denominator=3),
        kappa=st.fractions(-3, 3, max_denominator=3).filter(bool),
    )
    def test_core_reports_the_parameter_of_each_point(self, d, data, t_w, kappa):
        # simplex points at (b_i : 1), the unit point at (1 : 0), the last at (t_w : 1)
        coord = st.fractions(-4, 4, max_denominator=2)
        points = data.draw(
            st.lists(st.tuples(*[coord] * (d + 1)), min_size=d + 3, max_size=d + 3)
        )
        try:
            curve = rnc_through_points(d, points, (t_w, kappa))
        except GeneralPositionError:
            assume(False)
        params = curve.params
        assert curve == rnc_through_points(d, points, (t_w, kappa))
        assert all(u == 1 for _, u in params[: d + 1])
        assert params[d + 1:] == ((1, 0), (t_w, 1))
        for p, pair in zip(points, params):
            assert _proportional(_at(curve, pair), p)

    @settings(max_examples=15, deadline=None)
    @given(
        coords=st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=2),
            min_size=10,
            max_size=10,
        )
    )
    def test_conic_exists_through_general_points(self, coords):
        points = [(F(1), coords[2 * i], coords[2 * i + 1]) for i in range(5)]
        try:
            curve = rnc_through_points(2, points)
        except GeneralPositionError:
            assume(False)
        cert = certify_curve(curve)
        assert cert.degree == 2 and cert.span_dim == 2
        for p in points:
            assert curve_contains_point(curve, p)

    def test_general_position_witness(self):
        points = [
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),  # collinear with the first two
            (0, 0, 1),
            (1, 2, 3),
        ]
        with pytest.raises(GeneralPositionError) as err:
            rnc_through_points(2, points)
        assert err.value.witness is not None

    def test_one_inverse_and_no_rank_on_general_points(self, monkeypatch):
        # the integer inverse of the cleared simplex decides every
        # (d+1)-subset: no second inverse for the frame, no rank per subset
        # and no QMatrix
        rng = random.Random(6)
        points = [(F(1),) + rand_vector(rng, 5) for _ in range(8)]
        calls = collections.Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(rnc, "_inverse_ints", counting("inverse", rnc._inverse_ints))
        for module, name in ((rnc, "integer_rank"), (linalg, "rank")):
            monkeypatch.setattr(module, name, counting("rank", getattr(module, name)))
        monkeypatch.setattr(QMatrix, "__init__", counting("QMatrix", QMatrix.__init__))
        curve = rnc_through_points(5, points)
        assert calls == {"inverse": 1}
        monkeypatch.undo()
        assert certify_curve(curve).is_rnc
        assert all(curve_contains_point(curve, p) for p in points)

    @settings(max_examples=300, deadline=None)
    @given(rnc_inputs())
    @example((2, [(1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)], (0, 0)))
    @example((1, [(0, 0), (0, 1), (1, 1), (2, 5)], (0, -1)))
    @example((3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                  (1, 2, 0, 3), (2, 1, 1, 1)], (1, 2)))
    def test_agrees_with_a_rank_per_subset(self, case):
        d, points, free_params = case
        expected = _outcome(_reference_rnc_through_points, d, points, free_params)
        assert _outcome(rnc_through_points, d, points, free_params) == expected


class TestScrollSection:
    def test_frozen_example(self):
        # substitution oracle: s(0)=1, s(1)=2, s(2)=5 forces
        # P0 = t - 3, P1 = -t - 3 up to scale
        p0, p1 = fit_scroll_section(
            ScrollSpec((1, 1)), [(F(0), (F(1),)), (F(1), (F(2),)), (F(2), (F(5),))]
        )
        scale = p0[1]
        assert p0 == [-3 * scale, scale]
        assert p1 == [-3 * scale, -scale]

    def test_p0_vanishing_at_a_sample_is_a_genericity_failure(self):
        # s(0)=1, s(1)=5, s(2)=5: the lifts (1, t, s, t s) span the plane
        # whose one form reads t (5 - s) on the scroll, so the section is the
        # ruling t = 0 and the line s = 5, and its minors P0 = t, P1 = 5 t
        # vanish at t = 0
        with pytest.raises(GenericityError, match="^P_0 vanishes at a sample parameter$"):
            fit_scroll_section(ScrollSpec((1, 1)), [(0, (1,)), (1, (5,)), (2, (5,))])

    @pytest.mark.parametrize("degrees", [(1, 1), (2, 1), (1, 1, 1), (2, 2, 1)])
    def test_integer_lists_interpolate_the_samples(self, degrees):
        a = ScrollSpec(degrees)
        rng = random.Random(sum(degrees) * 10 + len(degrees))
        for _ in range(10):
            ts = rand_distinct_rationals(rng, a.n)
            samples = [(t, rand_vector(rng, a.r)) for t in ts]
            lists = fit_scroll_section(a, samples)
            assert len(lists) == a.r + 1
            assert all(type(c) is int for x in lists for c in x)
            assert all(len(x) <= a.n - ak for x, ak in zip(lists, a.degrees))
            p0, *prest = (Polynomial.univariate(x) for x in lists)
            for t, s in samples:
                assert p0.eval((t,)) != 0
                assert [sk * p0.eval((t,)) for sk in s] == [pk.eval((t,)) for pk in prest]

    def test_unknown_count_identity(self):
        for degrees in ((1, 1), (2, 1), (2, 1, 1), (3, 2)):
            a = ScrollSpec(degrees)
            assert sum(a.n - d for d in degrees) == a.r * a.n + 1

    def test_section_is_minimal_curve(self):
        rng = random.Random(6)
        a = ScrollSpec((2, 1))
        samples = [
            (F(i), rand_vector(rng, 1)) for i in range(a.n)
        ]
        curve = fit_rnc_through(Scroll(a), [(t,) + s for t, s in samples])
        cert = certify_curve(curve)
        assert cert.degree == cert.span_dim == a.n - 1

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(GeneralPositionError):
            fit_scroll_section(
                ScrollSpec((1, 1)),
                [(F(0), (F(1),)), (F(0), (F(2),)), (F(2), (F(5),))],
            )


class TestConicOnQuadric:
    def quadric_p3(self):
        # U0 U1 + U2 U3 = 0
        return catalog.QuadraticForm(4, 4)

    def test_stereographic_identity(self):
        # [1 : -t^2 : t] parametrizes U0 U1 + U2^2 = 0
        curve = RationalCurve(
            [
                Polynomial.one(1),
                Polynomial.univariate([0, 0, -1]),
                Polynomial.univariate([0, 1]),
            ]
        )
        u0, u1, u2 = curve.components
        assert (u0 * u1 + u2 * u2).is_zero()

    # distinct parameter pairs, the point at infinity among them
    PAIRS = [(F(0), F(1)), (F(1), F(0)), (F(-2, 3), F(1))]

    def test_three_points_on_quadric(self):
        # [1 : -uv : u : v] with pairwise distinct u and v: no shared rulings
        form = self.quadric_p3()
        pts = [(1, -1, 1, 1), (1, -6, 2, 3), (1, 5, 5, -1)]
        curve = conic_on_quadric(form, pts, self.PAIRS)
        cert = certify_curve(curve)
        assert cert.degree == 2 and cert.span_dim == 2
        for p in pts:
            assert curve_contains_point(curve, p)
        # image stays inside the quadric
        comps = curve.components
        residual = comps[0] * comps[1] + comps[2] * comps[3]
        assert residual.is_zero()

    def test_incidence_at_its_points_takes_no_gcd(self, monkeypatch):
        # the curve carries the pair it was asked to reach each point at
        form = self.quadric_p3()
        pts = [(1, -1, 1, 1), (1, -6, 2, 3), (1, 5, 5, -1)]
        curve = conic_on_quadric(form, pts, self.PAIRS)
        assert curve.params == tuple(self.PAIRS)
        gcds = _callers(monkeypatch, "_gcd_ints")
        assert all(curve_contains_point(curve, p) for p in pts)
        assert gcds == []

    @settings(max_examples=40, deadline=None)
    @given(rank=st.integers(3, 5), extra=st.integers(0, 1), data=st.data())
    def test_carried_pairs_reach_their_points(self, rank, extra, data):
        # the pairs QuadricVeronese passes: (-a : b), a and b the polars of
        # the first point with the other two, then (0 : 1) and (1 : 0)
        form = catalog.QuadraticForm(rank, rank + extra)
        pts = _quadric_points(form, data)
        a, b = (form.polar(pts[0], x) for x in pts[1:])
        try:
            curve = conic_on_quadric(form, pts, [(-a, b), (0, 1), (1, 0)])
        except GeneralPositionError:
            assume(False)
        assert len(curve.params) == 3
        for p, pair in zip(pts, curve.params):
            assert _proportional(_at(curve, pair), p)

    @settings(max_examples=60, deadline=None)
    @given(
        rank=st.integers(3, 5),
        extra=st.integers(0, 1),
        data=st.data(),
        scale=st.fractions(-3, 3, max_denominator=4).filter(bool),
    )
    def test_closed_form_conic_at_any_pairs(self, rank, extra, data, scale):
        form = catalog.QuadraticForm(rank, rank + extra)
        pts = _quadric_points(form, data)
        pair = st.one_of(
            st.just((F(1), F(0))), st.tuples(st.fractions(-5, 5, max_denominator=4), st.just(F(1)))
        )
        pairs = data.draw(st.lists(pair, min_size=3, max_size=3))
        assume(all(s * v != u * t for (s, u), (t, v) in itertools.combinations(pairs, 2)))
        try:
            curve = conic_on_quadric(form, pts, pairs)
        except GeneralPositionError:
            assume(False)
        # each point at its pair, and the whole conic on the quadric
        assert curve.params == tuple(pairs)
        for p, pair in zip(pts, pairs):
            assert _proportional(_at(curve, pair), p)
        assert form.poly().compose(list(curve.components)).is_zero()
        # a scaled point is the same projective point: the same curve
        i = data.draw(st.integers(0, 2))
        scaled = list(pts)
        scaled[i] = tuple(scale * x for x in pts[i])
        again = conic_on_quadric(form, scaled, pairs)
        assert again == curve and again.params == curve.params
        # a pair repeated (up to a scale) leaves no conic
        with pytest.raises(GeneralPositionError, match="parameter pairs"):
            conic_on_quadric(form, pts, [pairs[0], pairs[1], tuple(2 * x for x in pairs[0])])

    def test_point_off_the_quadric_rejected(self):
        pts = [(1, -1, 1, 1), (1, -6, 2, 3), (1, 5, 5, 1)]
        with pytest.raises(GeneralPositionError, match="does not lie on the quadric"):
            conic_on_quadric(self.quadric_p3(), pts, self.PAIRS)

    def test_collinear_points_rejected(self):
        form = self.quadric_p3()
        pts = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
        with pytest.raises(GeneralPositionError):
            conic_on_quadric(form, pts, self.PAIRS)

    @pytest.mark.parametrize(
        "pts",
        [
            [(1, -1, 1, 1), (1, -6, 2, 3), (1, -1, 1, 1)],
            [(1, -1, 1, 1), (1, -6, 2, 3), (2, -12, 4, 6)],
            # the line [1 : -v : 1 : v] lies on the quadric
            [(1, -1, 1, 1), (1, -2, 1, 2), (1, -3, 1, 3)],
        ],
        ids=["p3=p1", "p3=2p2", "line-on-quadric"],
    )
    def test_dependent_points_rejected(self, pts):
        # dependent points of the quadric have a zero polar, so the
        # degenerate-conic check rejects them without a rank, before the
        # pairs are read
        with pytest.raises(GeneralPositionError, match="degenerate conic"):
            conic_on_quadric(self.quadric_p3(), pts, [(0, 1)] * 3)


def _quadric_points(form, data) -> list:
    """Three points of q = 0 drawn like catalog._quadric_zero_samples: x0 solves for q."""
    coord = st.fractions(-4, 4, max_denominator=3)
    pts = []
    for _ in range(3):
        s = data.draw(st.lists(coord, min_size=form.nvars, max_size=form.nvars))
        assume(s[1] != 0)
        s[0] = -form.eval([F(0)] + s[1:]) / s[1]
        assert form.eval(s) == 0
        pts.append(tuple(s))
    return pts


ALL_SPECS = [
    Veronese(2, 3),
    Scroll(ScrollSpec((1, 1))),
    StandardScroll(ScrollSpec((1, 1)), 2, 0),
    StandardScroll(ScrollSpec((1, 1)), 3, -1),
    ConeStandard(2, 4),
    QuadricVeronese(3, 2, 5),
    SegreSpecial(2, 4),
    CubicSpecial(2, 2),
    Veronese33(),
]


class TestFitDispatch:
    def test_every_family_is_fitted_below(self):
        assert {type(s) for s in ALL_SPECS} == set(catalog.FAMILIES.values())

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_fit_certifies_and_passes_through(self, spec):
        params = declared_class(spec)
        variety = catalog.make_variety(spec)
        rng = random.Random(20)
        for attempt in range(9):
            try:
                points = sample_parameter_points(spec, rng)
                curve = fit_rnc_through(spec, points)
                break
            except (GenericityError, GeneralPositionError):
                if attempt == 8:
                    raise
        cert = certify_curve(curve)
        assert cert.is_rnc and cert.degree == params.q
        for p in points:
            assert curve_contains_point(curve, variety.eval(p))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_curve_carries_the_pair_of_each_point(self, spec):
        # one (s : u) pair per input point, in input order
        points, curve = _fit(spec)
        variety = catalog.make_variety(spec)
        assert len(curve.params) == len(points)
        for pair, p in zip(curve.params, points):
            assert _proportional(_at(curve, pair), variety.eval(p))

    def test_segre_degree_three(self):
        spec = SegreSpecial(2, 4)
        pts = [
            (F(0), F(1), F(1)),
            (F(1), F(2), F(-1)),
            (F(2), F(3), F(5)),
        ]
        curve = fit_rnc_through(spec, pts)
        cert = certify_curve(curve)
        assert cert.degree == 3 and cert.is_rnc

    def test_standard_scroll_uniqueness(self):
        spec = StandardScroll(ScrollSpec((1, 1)), 2, 0)
        rng = random.Random(9)
        points = sample_parameter_points(spec, rng)
        a = fit_rnc_through(spec, points)
        b = fit_rnc_through(spec, points)
        assert a == b  # the solution line is one-dimensional

    def test_pushforward_degree_formula(self):
        # generic sections push to degree exactly rho (n-1) + chi
        rng = random.Random(10)
        for spec in (
            StandardScroll(ScrollSpec((2, 1)), 2, 1),
            StandardScroll(ScrollSpec((1, 1, 1)), 2, 0),
        ):
            params = declared_class(spec)
            points = sample_parameter_points(spec, rng)
            curve = fit_rnc_through(spec, points)
            assert certify_curve(curve).degree == params.q


class TestConeFit:
    """The cone's conic is rnc_through_points at d = 2 on the plane points."""

    def test_rejects_exactly_when_three_plane_points_are_dependent(self):
        rng = random.Random(12)
        specs = [ConeStandard(r, q) for r, q in ((1, 4), (2, 4), (2, 6), (3, 4))]
        varieties = {spec: catalog.make_variety(spec) for spec in specs}
        outcomes = collections.Counter()
        for index in range(120):
            spec = rng.choice(specs)
            points = [rand_vector(rng, spec.r + 1) for _ in range(5)]
            i, j, k = rng.sample(range(5), 3)
            if index % 3 == 1:  # coincident plane points
                points[k] = points[i][:2] + points[k][2:]
            elif index % 3 == 2:  # collinear plane points
                c = F(rng.randint(-2, 2), rng.choice([1, 3]))
                line = tuple(a + c * (b - a) for a, b in zip(points[i][:2], points[j][:2]))
                points[k] = line + points[k][2:]
            plane = [(F(1),) + p[:2] for p in points]
            dependent = any(
                linalg.rank(list(triple), 3) < 3
                for triple in itertools.combinations(plane, 3)
            )
            try:
                curve = fit_rnc_through(spec, points)
            except RESAMPLE_ERRORS:
                assert dependent, points
                outcomes["rejected"] += 1
                continue
            assert not dependent, points
            cert = certify_curve(curve)
            assert cert.is_rnc and cert.degree == spec.q
            assert all(curve_contains_point(curve, varieties[spec].eval(p)) for p in points)
            outcomes["accepted"] += 1
        # two thirds of the inputs are forced to be dependent
        assert outcomes["accepted"] >= 20 and outcomes["rejected"] >= 80


# one spec per catalog family, the first of its family in ALL_SPECS
SPEC_OF_FAMILY = {spec.family: spec for spec in reversed(ALL_SPECS)}


class TestPointContract:
    """fit_rnc_through checks the n points of Q^{r+1} of the declared class."""

    def test_every_family_has_a_spec(self):
        assert set(SPEC_OF_FAMILY) == set(catalog.FAMILIES)

    @pytest.mark.parametrize("family", sorted(catalog.FAMILIES))
    def test_one_point_dropped(self, family):
        spec = SPEC_OF_FAMILY[family]
        points = sample_parameter_points(spec, random.Random(20))
        with pytest.raises(DimensionMismatchError, match=family):
            fit_rnc_through(spec, points[:-1])

    @pytest.mark.parametrize("family", sorted(catalog.FAMILIES))
    def test_one_coordinate_appended(self, family):
        spec = SPEC_OF_FAMILY[family]
        points = sample_parameter_points(spec, random.Random(20))
        points[-1] = tuple(points[-1]) + (F(1),)
        with pytest.raises(DimensionMismatchError, match=family):
            fit_rnc_through(spec, points)


def _lift_of(spec, monkeypatch) -> tuple:
    """The form, the three points and the pairs that ``spec.fit`` hands
    ``conic_on_quadric``."""
    seen = []

    def recording(form, pts, pairs):
        seen.append((form, pts, pairs))
        return conic_on_quadric(form, pts, pairs)

    monkeypatch.setattr(catalog, "conic_on_quadric", recording)
    _fit(spec)
    return seen[-1]


@pytest.mark.parametrize("r", range(2, 6))
def test_quadric_veronese_quadric_is_the_hyperbolic_form(r, monkeypatch):
    # the lift's ambient form is U_0 U_1 + h(U_2..U_{r+2}), and the pairs are
    # (-a : b), (0 : 1), (1 : 0), a and b the polars of the first point
    u = [Polynomial.variable(r + 3, j) for j in range(r + 3)]
    for rank in range(5, r + 4):
        spec = QuadricVeronese(r, 1, rank)
        form, pts, pairs = _lift_of(spec, monkeypatch)
        assert form.poly() == u[0] * u[1] + spec.form().poly().compose(u[2:])
        a, b = (form.polar(pts[0], x) for x in pts[1:])
        assert pairs == [(-a, b), (0, 1), (1, 0)]


@pytest.mark.parametrize("r", range(1, 5))
def test_segre_quadric_is_the_lift_in_its_coordinates(r, monkeypatch):
    # in x = (U_0, -U_{r+1}, U_1..U_r) the lift's form is -(U_0 U_{r+1} - q(U)),
    # its points are Segre's (1, s, q(s)) and the pairs are the (tau : 1)
    u = [Polynomial.variable(r + 2, j) for j in range(r + 2)]
    for mu in range(3, r + 3):
        spec = SegreSpecial(r, mu)
        q = spec.form()
        form, pts, pairs = _lift_of(spec, monkeypatch)
        segre = u[0] * u[r + 1] - q.poly().compose(u[1 : r + 1])
        assert form.poly().compose([u[0], -u[r + 1]] + u[1 : r + 1]) == -segre
        for x in pts:
            point = (x[0],) + x[2:] + (-x[1],)
            assert point[0] == 1 and point[r + 1] == q.eval(point[1 : r + 1])
        assert [w for _, w in pairs] == [1, 1, 1] and len({s for s, _ in pairs}) == 3


def _fit(spec, seed=20):
    rng = random.Random(seed)
    for attempt in range(9):
        try:
            points = sample_parameter_points(spec, rng)
            return points, fit_rnc_through(spec, points)
        except (GenericityError, GeneralPositionError):
            if attempt == 8:
                raise


def _callers(monkeypatch, name) -> list:
    """Replace every binding of ``poly.<name>`` in the rncgeom modules by a
    wrapper; the list it returns receives the caller's name on each call."""
    original = getattr(poly, name)
    callers = []

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    for key, module in list(sys.modules.items()):
        if key == "rncgeom" or key.startswith("rncgeom."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return callers


class TestNormalizedCurves:
    """A fitted curve is born normalized and keeps its primitive integer lists."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_fitted_curve_is_its_own_normal_form(self, spec):
        _, curve = _fit(spec)
        assert curve_normalize(curve) is curve
        rebuilt = RationalCurve(curve.components)
        assert curve_normalize(rebuilt) is not rebuilt
        assert curve_normalize(rebuilt) == curve

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_no_second_normalization(self, spec, monkeypatch):
        points, curve = _fit(spec)
        variety = catalog.make_variety(spec)
        gcds = _callers(monkeypatch, "_gcd_ints")
        lists = _callers(monkeypatch, "integer_coefficients")
        assert certify_curve(curve).is_rnc
        assert gcds == [] and lists == []
        for assume_normalized in (True, False):
            for p in points:
                assert curve_contains_point(curve, variety.eval(p), assume_normalized)
        # every input point is certified by the parameter pair it was fitted at
        assert gcds == [] and lists == []

    def test_pairs_survive_normalization_and_projection(self, monkeypatch):
        params = [(F(0), F(1)), (F(1), F(0)), (F(-2, 3), F(1))]
        curve = RationalCurve(TestContainsPoint.BASE.components, params)
        normal = curve_normalize(curve)
        center = span_of([normal.eval(F(1, 2))], 3)
        image = project_curve(projection_from(center), normal)
        assert normal.params == image.params == tuple(params)
        gcds = _callers(monkeypatch, "_gcd_ints")
        for pair in params:
            assert curve_contains_point(image, _at(image, pair), assume_normalized=True)
        assert gcds == []

    def test_hand_built_curve_is_normalized(self, monkeypatch):
        # the twisted cubic of TestContainsPoint times a common factor: every
        # cross minor vanishes at the root of the factor, so only
        # normalization rejects the point off the curve
        factor = Polynomial.univariate([F(-2, 5), F(3, 5)])
        base = TestContainsPoint.BASE
        curve = RationalCurve([c * factor for c in base.components])
        off = (F(1), F(0), F(0), F(1))
        gcds = _callers(monkeypatch, "_gcd_ints")
        cert = certify_curve(curve)
        assert (cert.degree, cert.span_dim, cert.is_rnc) == (3, 3, True)
        assert "curve_normalize" in gcds
        del gcds[:]
        assert not curve_contains_point(curve, off, assume_normalized=False)
        assert "curve_normalize" in gcds
        # the raw lists would answer True: every minor vanishes at the root
        with pytest.raises(ValueError, match="curve is not normalized"):
            curve_contains_point(curve, off, assume_normalized=True)
        assert curve_normalize(curve) == curve_normalize(base)


class TestOsculatorDecomposition:
    def test_lemme_osc1_on_rnc(self):
        # <C> decomposes as a direct sum of osculators for every composition
        k = 4
        curve = monomial_curve(*range(k + 1))
        wrapped = Parametrization.from_curve(curve)
        points = [F(0), F(1), F(-1), F(2), F(3)]
        for parts in range(1, k + 2):
            for comp in itertools.combinations(range(1, k + 1), parts - 1):
                orders = []
                prev = 0
                for cut in list(comp) + [k + 1]:
                    orders.append(cut - prev - 1)
                    prev = cut
                subs = [
                    osculator(wrapped, (points[i],), orders[i]).subspace
                    for i in range(len(orders))
                ]
                ok, joined, expected = try_direct_sum(subs)
                assert ok and joined.dim == k
