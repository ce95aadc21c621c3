"""Curves on their integer lists against the ``Fraction`` references.

A ``RationalCurve`` is its integer lists over one denominator; it is built,
projected and evaluated on them, and its ``components`` are a view.  The
references are the same operations over ``Fraction`` polynomials, as the
code read before it moved to the lists:

- ``project_curve``: ``curve_normalize`` of the components pushed through
  ``LinearProjection.apply_polys``;
- ``RationalCurve.eval``, ``value_at_infinity``, ``components``,
  ``coefficient_vectors`` and ``==``: the ``Polynomial``s a raw curve was
  drawn from, or their normal form over ``Fraction`` for a normalized one;
- the cone fitter: Lagrange interpolation over ``Fraction`` of each s_j
  along the conic, with the point at (1 : 0) handled apart;
- the quadric-Veronese fitter: ``power_product`` over ``Fraction`` of the
  conic's components, the conic from ``poly.combine`` over ``Fraction``;
- the conic on a quadric and the Segre fitter: the pairings of the
  quadric's Gram matrix and a conic on its own frame, whose pairs the
  kernel is handed; Segre's written for U_0 U_{r+1} = q(U_1..U_r) and
  moved to the (tau_i : 1) by a projectivity of P^1 (``projectivity_p1``);
- the scroll section: the one kernel vector of the r n x (r n + 1) system
  P_k(t_i) = s_ik P_0(t_i), cleared to integers.

``rnc_through_points`` keeps its reference in ``tests/test_rnc.py``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rncgeom import catalog, linalg, poly, rnc
from rncgeom.catalog import ConeStandard, QuadricVeronese, ScrollSpec, SegreSpecial
from rncgeom.errors import (
    DegenerateCurveError,
    GeneralPositionError,
    GenericityError,
    InvariantError,
)
from rncgeom.linalg import projection_from, span_of
from rncgeom.osculation import project_curve
from rncgeom.poly import (
    Polynomial,
    RationalCurve,
    curve_from_lists,
    curve_normalize,
    power_product,
)
from rncgeom.rnc import (
    certify_curve,
    curve_contains_point,
    fit_scroll_section,
    rnc_through_points,
)
from rncgeom.sampling import rand_distinct_rationals, rand_points, rand_vector
from test_gcd_oracle import reference_normal_form
from test_rnc import SPEC_OF_FAMILY, _fit


def reference_project_curve(proj, curve) -> RationalCurve:
    return curve_normalize(RationalCurve(proj.apply_polys(list(curve.components)), curve.params))


def reference_eval(curve, t) -> tuple:
    return tuple(c.eval((t,)) for c in curve.components)


def _outcome(function, *args):
    try:
        curve = function(*args)
    except (DegenerateCurveError, GeneralPositionError, GenericityError) as exc:
        return type(exc), str(exc)
    return curve.integer_lists(), curve.params


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

COEFF = st.fractions(-4, 4, max_denominator=3)
PARAMETER = st.fractions(-5, 5, max_denominator=4)


@st.composite
def drawn_curves(draw, normalized=None):
    """``(curve, comps)``: a curve of 2 to 5 components of degree <= 4, raw
    or normalized, and the ``Polynomial``s it was drawn from (their normal
    form over ``Fraction`` for a normalized curve)."""
    size = draw(st.integers(2, 5))
    comps = [
        Polynomial.univariate(draw(st.lists(COEFF, max_size=5))) for _ in range(size)
    ]
    assume(any(comps))
    pairs = draw(st.lists(st.tuples(PARAMETER, st.sampled_from([0, 1, 2])), max_size=3))
    curve = RationalCurve(comps, [(s, u) for s, u in pairs if s or u])
    if normalized is None:
        normalized = draw(st.booleans())
    if normalized:
        return curve_normalize(curve), reference_normal_form(comps)
    return curve, comps


def curves(normalized=None):
    """Curves of 2 to 5 components of degree <= 4, raw or normalized."""
    return drawn_curves(normalized).map(lambda drawn: drawn[0])


def _drawn_from_lists(lists) -> tuple:
    """A normalized curve from primitive lists with a positive first lead,
    and its components."""
    return curve_from_lists(lists), [Polynomial.univariate(x) for x in lists]


@st.composite
def projections(draw, curve):
    """A projection of the curve's ambient, its center spanned by random
    vectors and by points of the curve."""
    n = curve.ambient_dim
    vectors = draw(
        st.lists(st.tuples(*[COEFF] * (n + 1)), max_size=n)
    )
    for t in draw(st.lists(PARAMETER, max_size=2)):
        vectors.append(reference_eval(curve, t))
    center = span_of(vectors, n)
    assume(center.dim < n)
    return projection_from(center)


# ---------------------------------------------------------------------------
# projection and evaluation
# ---------------------------------------------------------------------------


class TestProjectCurve:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), curve=curves())
    def test_matches_reference(self, data, curve):
        proj = data.draw(projections(curve))
        expected = _outcome(reference_project_curve, proj, curve)
        assert _outcome(project_curve, proj, curve) == expected
        if not isinstance(expected[0], type):
            image = project_curve(proj, curve)
            assert curve_normalize(image) is image
            assert image == reference_project_curve(proj, curve)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), curve=curves(normalized=True), t=PARAMETER)
    def test_center_through_a_point_of_the_curve(self, data, curve, t):
        point = curve.eval(t)
        assume(any(point))
        proj = projection_from(span_of([point], curve.ambient_dim))
        assert _outcome(project_curve, proj, curve) == _outcome(
            reference_project_curve, proj, curve
        )

    def test_center_containing_the_span_raises_degenerate_curve(self):
        # a conic in the plane {x3 = 0} of P^3, projected from that plane
        conic = curve_from_lists([[1], [0, 1], [0, 0, 1], []])
        plane = span_of([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 3)
        proj = projection_from(plane)
        with pytest.raises(DegenerateCurveError):
            project_curve(proj, conic)
        with pytest.raises(DegenerateCurveError):
            reference_project_curve(proj, conic)

    def test_builds_no_polynomial(self, monkeypatch):
        curve = curve_from_lists([[1, 2], [0, 3, 1], [5, 0, 0, 1], [0, 0, 1]])
        proj = projection_from(span_of([curve.eval(Fraction(1, 2))], 3))
        built = _counting(monkeypatch, Polynomial, "__init__")
        image = project_curve(proj, curve)
        assert certify_curve(image).is_rnc
        assert image.eval(Fraction(-2, 3)) is not None
        assert built == []


class TestEval:
    """Raw and normalized curves against the ``Polynomial``s they were drawn
    from, never against their own ``components`` view."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=drawn_curves(), t=PARAMETER)
    @example(drawn=_drawn_from_lists([[3, 0, 1], [0, -2], [7]]), t=Fraction(0))
    @example(drawn=_drawn_from_lists([[3, 0, 1], [0, -2], [7]]), t=Fraction(-3, 2))
    def test_matches_reference(self, drawn, t):
        curve, comps = drawn
        got = curve.eval(t)
        assert got == tuple(c.eval((t,)) for c in comps)
        assert all(type(x) is Fraction for x in got)

    @settings(max_examples=100, deadline=None)
    @given(drawn=drawn_curves())
    def test_value_at_infinity(self, drawn):
        curve, comps = drawn
        d = max(c.total_degree() for c in comps)
        assert curve.degree() == d
        got = curve.value_at_infinity()
        assert got == tuple(c.coefficient((d,)) for c in comps)
        assert all(type(x) is Fraction for x in got)

    @settings(max_examples=100, deadline=None)
    @given(drawn=drawn_curves())
    def test_views_and_equality(self, drawn):
        curve, comps = drawn
        d = max(c.total_degree() for c in comps)
        assert curve.components == tuple(comps)
        vectors = curve.coefficient_vectors()
        assert vectors == [[c.coefficient((k,)) for k in range(d + 1)] for c in comps]
        assert all(type(x) is Fraction for row in vectors for x in row)
        assert all(
            type(x) is Fraction for c in curve.components for _, x in c.items()
        )
        assert curve == RationalCurve(comps)
        assert curve != RationalCurve([c.scale(Fraction(3, 2)) for c in comps])

    @pytest.mark.parametrize("t", [0, -3, Fraction(5, 7), Fraction(-1, 2)])
    def test_int_and_fraction_arguments(self, t):
        curve = curve_from_lists([[1, 1, 1], [0, 2, 0, -1], [4]])
        assert curve.eval(t) == reference_eval(curve, Fraction(t))


class TestLists:
    @settings(max_examples=100, deadline=None)
    @given(curve=curves(normalized=False))
    def test_curve_from_lists_is_curve_normalize(self, curve):
        got = curve_from_lists(curve.integer_lists(), curve.params)
        expected = curve_normalize(curve)
        assert got.integer_lists() == expected.integer_lists()
        assert got.params == expected.params and got == expected

    def test_view_is_built_on_first_read_only(self, monkeypatch):
        curve = curve_from_lists([[0, 2], [4, 0, 2], [6]])
        built = _counting(monkeypatch, Polynomial, "__init__")
        assert curve.integer_lists() == [[0, 1], [2, 0, 1], [3]]
        assert certify_curve(curve).degree == 2 and built == []
        assert curve.components == (
            Polynomial.univariate([0, 1]),
            Polynomial.univariate([2, 0, 1]),
            Polynomial.univariate([3]),
        )
        del built[:]
        assert curve.components is curve.components and built == []

    @pytest.mark.parametrize("lists", [[], [[], []], [[], [], []]])
    def test_zero_lists_raise_degenerate_curve(self, lists):
        with pytest.raises(DegenerateCurveError):
            curve_from_lists(lists)


def _counting(monkeypatch, owner, name) -> list:
    """Record each call of ``owner.name``; the list is returned."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestOneForm:
    """Every fitter hands ``curve_from_lists`` its lists, and no
    ``Polynomial`` holds an ``int`` coefficient."""

    def test_one_spec_of_every_family(self):
        assert set(SPEC_OF_FAMILY) == set(catalog.FAMILIES)

    def test_fits_and_projections_build_no_curve_from_polynomials(self, monkeypatch):
        built = _counting(monkeypatch, RationalCurve, "__init__")
        for spec in SPEC_OF_FAMILY.values():
            _, curve = _fit(spec)
            n = curve.ambient_dim
            center = span_of([curve.eval(Fraction(1, 3))], n)
            image = project_curve(projection_from(center), curve)
            assert certify_curve(image).degree == curve.degree() - 1
        assert built == []

    def test_every_coefficient_is_a_fraction(self, monkeypatch):
        built = []
        original = Polynomial.from_coeffs.__func__

        def recording(cls, coeffs):
            built.append(original(cls, coeffs))
            return built[-1]

        monkeypatch.setattr(Polynomial, "from_coeffs", classmethod(recording))
        for spec in SPEC_OF_FAMILY.values():
            points, curve = _fit(spec)
            variety = catalog.make_variety(spec)
            assert certify_curve(curve).is_rnc
            assert all(curve_contains_point(curve, variety.eval(p)) for p in points)
            assert curve.components
        a = Polynomial.univariate([Fraction(-1, 2), 0, 3])
        b = Polynomial.univariate([1, Fraction(2, 3)])
        assert poly.poly_gcd_univariate(a * b, b * b).total_degree() == 1
        assert poly.poly_divexact_univariate(a * b, b) == a
        assert built
        assert all(type(c) is Fraction for p in built for _, c in p.items())


class TestInterpolationOnIntegers:
    """One interpolation and its checks never touch ``Fraction`` polynomials."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_no_polynomial_product_or_combine(self, d, monkeypatch):
        rng = random.Random(10 + d)
        points = [(Fraction(1),) + tuple(p) for p in rand_points(rng, d + 3, d)]
        products = _counting(monkeypatch, Polynomial, "__mul__")
        combines = _counting(monkeypatch, poly, "combine")
        row_combines = _counting(monkeypatch, linalg, "combine")
        built = _counting(monkeypatch, Polynomial, "__init__")
        curve = rnc_through_points(d, points)
        assert certify_curve(curve).is_rnc
        assert all(curve_contains_point(curve, p) for p in points)
        for t in (Fraction(0), Fraction(-2), Fraction(3, 4)):
            assert curve_contains_point(curve, curve.eval(t))
        assert products == combines == row_combines == built == []


# ---------------------------------------------------------------------------
# the fitters that moved to the lists
# ---------------------------------------------------------------------------


def reference_gram(form) -> linalg.QMatrix:
    """The symmetric Gram matrix M of a ``QuadraticForm``, q(x) = x^T M x."""
    m = [[Fraction(0)] * form.nvars for _ in range(form.nvars)]
    for i in range(form.rank // 2):
        m[2 * i][2 * i + 1] = Fraction(1, 2)
        m[2 * i + 1][2 * i] = Fraction(1, 2)
    if form.rank % 2:
        m[form.rank - 1][form.rank - 1] = Fraction(1)
    return linalg.QMatrix(m)


def reference_pairing(qmat, u, v) -> Fraction:
    return sum(x * y for x, y in zip(qmat.matvec(u), v))


def reference_pairs(qmat, p1, p2, p3) -> list:
    """The pairs at which ``reference_conic_on_quadric`` reaches its points:
    (-a : b), (0 : 1) and (1 : 0), a and b the polars of p1 with p2 and p3."""
    a, b = (2 * reference_pairing(qmat, p1, x) for x in (p2, p3))
    return [(-a, b), (0, 1), (1, 0)]


def reference_conic_on_quadric(qmat, p1, p2, p3) -> RationalCurve:
    """The conic through three points of the quadric of ``qmat``, within
    their plane, on its own frame: the plane's coordinates along c t,
    -(a + b t) and t times the latter."""
    pts = [tuple(Fraction(x) for x in p) for p in (p1, p2, p3)]
    a = 2 * reference_pairing(qmat, pts[0], pts[1])
    b = 2 * reference_pairing(qmat, pts[0], pts[2])
    c = 2 * reference_pairing(qmat, pts[1], pts[2])
    if a == 0 or b == 0 or c == 0:
        raise GeneralPositionError("plane section is a degenerate conic")
    t = Polynomial.variable(1, 0)
    u0 = t.scale(c)
    u1 = -(t.scale(b) + Polynomial.constant(1, a))
    u2 = t * u1
    comps = [poly.combine(coords, (u0, u1, u2)) for coords in zip(*pts)]
    return curve_normalize(RationalCurve(comps, reference_pairs(qmat, *pts)))


def reference_fit_quadric_veronese(spec, points) -> RationalCurve:
    r, rho = spec.r, spec.rho
    h = spec.form()
    lifted = [(Fraction(1), -h.eval(p)) + p for p in points]
    quadric = catalog.QuadraticForm(spec.rank, r + 3)
    conic = reference_conic_on_quadric(reference_gram(quadric), *lifted)
    x0, *xprime = conic.components
    if x0.is_zero():
        raise GenericityError("conic lies in the hyperplane at infinity")
    block_a, block_b = catalog.quadric_veronese_blocks(r, rho)
    comps = [x0**rho]
    comps += [power_product(xprime, beta) for beta in block_a]
    comps += [
        power_product([x0] + xprime[1:], (rho - sum(gamma),) + gamma) for gamma in block_b
    ]
    return curve_normalize(RationalCurve(comps, conic.params))


def projectivity_p1(sources, targets) -> linalg.QMatrix:
    """2x2 matrix sending three source parameter pairs to three targets."""

    def frame(pts):
        p0, p1, p2 = [tuple(Fraction(x) for x in p) for p in pts]
        mat = linalg.QMatrix([[p0[0], p1[0]], [p0[1], p1[1]]])
        c = mat.inverse().matvec(p2)
        if c[0] == 0 or c[1] == 0:
            raise GeneralPositionError("parameter pairs are not pairwise distinct")
        return linalg.QMatrix(
            [[c[0] * p0[0], c[1] * p1[0]], [c[0] * p0[1], c[1] * p1[1]]]
        )

    return frame(targets) @ frame(sources).inverse()


def reference_fit_segre(spec, points) -> RationalCurve:
    """The conic on U_0 U_{r+1} = q(U_1..U_r), on that quadric's own Gram
    matrix, through the projectivity sending each (1 : tau) to its point."""
    r = spec.r
    taus = [p[0] for p in points]
    if len(set(taus)) != 3:
        raise GeneralPositionError("tau values must be distinct")
    qf = spec.form()
    quadric_pts = [(Fraction(1),) + p[1:] + (qf.eval(p[1:]),) for p in points]
    size = r + 2
    m = [[Fraction(0)] * size for _ in range(size)]
    m[0][size - 1] = m[size - 1][0] = Fraction(1, 2)
    inner = reference_gram(qf).entries
    for i in range(r):
        for j in range(r):
            m[1 + i][1 + j] = -inner[i][j]
    conic = reference_conic_on_quadric(linalg.QMatrix(m), *quadric_pts)
    targets = [(u, s) for s, u in conic.params]
    mat = projectivity_p1([(Fraction(1), tau) for tau in taus], targets)
    g = poly.projective_compose([c.homogenize(2, (1,)) for c in conic.components], mat.entries)
    tg = [[0] + x if x else x for x in g]
    # chart order [1, t, s, t s, q, t q] over g = (g0, gs, gq)
    comps = g[:1] + tg[:1] + g[1 : r + 1] + tg[1 : r + 1] + g[r + 1 :] + tg[r + 1 :]
    return curve_from_lists(comps, [(tau, 1) for tau in taus])


def reference_interpolate(points) -> Polynomial:
    t = Polynomial.variable(1, 0)
    total = Polynomial.zero(1)
    for i, (xi, yi) in enumerate(points):
        num, den = Polynomial.one(1), Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                num = num * (t - Polynomial.constant(1, xj))
                den *= xi - xj
        total = total + num.scale(Fraction(yi) / den)
    return total


def reference_fit_cone(spec, points) -> RationalCurve:
    """S_j = s_j(p_3) x0^2 + C_j, C_j the cubic with C_j(tau) =
    (s_j(p) - s_j(p_3)) x0(tau)^2 at the four finite parameters."""
    r = spec.r
    plane_pts = [(Fraction(1), p[0], p[1]) for p in points]
    conic = rnc_through_points(2, plane_pts)
    params = conic.params
    assert params[3] == (1, 0)
    x0, p3 = conic.components[0], points[3]
    finite = [(s / u, x0.eval((s / u,)) ** 2, p) for (s, u), p in zip(params, points) if u]
    spolys = [
        (x0 * x0).scale(p3[j])
        + reference_interpolate([(tau, (p[j] - p3[j]) * sq) for tau, sq, p in finite])
        for j in range(2, r + 1)
    ]
    args = [
        [c.coefficient((k,)) for k in range(c.total_degree() + 1)]
        for c in list(conic.components) + spolys
    ]
    return catalog._through_chart(spec, (1, 1) + (2,) * (r - 1), spec.q // 2, args, params)


def _random_points(spec, seed):
    params = catalog.declared_class(spec)
    rng = random.Random(seed)
    return [tuple(Fraction(x) for x in p) for p in rand_points(rng, params.n, params.r + 1)]


class TestFittersOnLists:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from([ConeStandard(2, 4), ConeStandard(3, 4), ConeStandard(2, 6)]),
        seed=st.integers(0, 2**16),
    )
    def test_cone_matches_reference(self, spec, seed):
        points = _random_points(spec, seed)
        assert _outcome(ConeStandard.fit, spec, points) == _outcome(
            reference_fit_cone, spec, points
        )

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(
            [QuadricVeronese(3, 2, 5), QuadricVeronese(2, 3, 5), QuadricVeronese(3, 2, 6)]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_quadric_veronese_matches_reference(self, spec, seed):
        points = _random_points(spec, seed)
        assert _outcome(QuadricVeronese.fit, spec, points) == _outcome(
            reference_fit_quadric_veronese, spec, points
        )

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(
            [
                SegreSpecial(1, 3),
                SegreSpecial(2, 3),
                SegreSpecial(2, 4),
                SegreSpecial(3, 5),
                SegreSpecial(4, 4),
            ]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_segre_matches_reference(self, spec, seed):
        points = _random_points(spec, seed)
        assert _outcome(SegreSpecial.fit, spec, points) == _outcome(
            reference_fit_segre, spec, points
        )

    @settings(max_examples=60, deadline=None)
    @given(rank=st.integers(3, 5), extra=st.integers(0, 1), data=st.data())
    def test_conic_on_quadric_matches_reference(self, rank, extra, data):
        form = catalog.QuadraticForm(rank, rank + extra)
        coord = st.fractions(-4, 4, max_denominator=3)
        pts = []
        for _ in range(3):
            s = data.draw(st.lists(coord, min_size=form.nvars, max_size=form.nvars))
            assume(s[1] != 0)
            s[0] = -form.eval([Fraction(0)] + s[1:]) / s[1]
            pts.append(tuple(s))
        # the kernel at the pairs of the reference's frame
        gram = reference_gram(form)
        pairs = reference_pairs(gram, *pts)
        assert _outcome(rnc.conic_on_quadric, form, pts, pairs) == _outcome(
            reference_conic_on_quadric, gram, *pts
        )


# ---------------------------------------------------------------------------
# scroll sections
# ---------------------------------------------------------------------------


def reference_fit_scroll_section(a, samples) -> list:
    """The section through the samples as the one kernel vector of the
    r n x (r n + 1) system P_k(t_i) = s_ik P_0(t_i), deg P_k <= n-1-a_k, over
    ``Fraction``, cleared to integers; then the checks of the section."""
    n, r = a.n, a.r
    samples = [(Fraction(t), tuple(Fraction(x) for x in s)) for t, s in samples]
    sizes = [n - a.degrees[k] for k in range(r + 1)]
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    total = offsets[-1]  # = r n + 1
    rows = []
    for t, s in samples:
        powers = [t**j for j in range(max(sizes))]
        for k in range(1, r + 1):
            row = [Fraction(0)] * total
            for j in range(sizes[0]):
                row[offsets[0] + j] = s[k - 1] * powers[j]
            for j in range(sizes[k]):
                row[offsets[k] + j] = -powers[j]
            rows.append(row)
    kernel = linalg.nullspace(rows, total)
    if len(kernel) != 1:
        raise GenericityError(
            f"section system has solution dimension {len(kernel)}, expected 1"
        )
    coeffs, _ = poly.clear_denominators(kernel[0])
    lists = [coeffs[offsets[k] : offsets[k + 1]] for k in range(r + 1)]
    values = poly.eval_homogeneous(lists, [(t, 1) for t, _ in samples])
    for (_, s), (p0, *prest) in zip(samples, values):
        if any(x * p0 != pk for x, pk in zip(s, prest)):
            raise InvariantError("the section missed an interpolation condition")
        if p0 == 0:
            raise GenericityError("P_0 vanishes at a sample parameter")
    return lists


def _section_outcome(function, a, samples):
    try:
        return function(a, samples)
    except GenericityError as exc:
        return type(exc), str(exc)


# the reference's message for a degenerate system; the section has none, and
# says instead that the samples do not span a P^{n-1} or that its minors vanish
SYSTEM_DIMENSION = "section system has solution dimension"


@st.composite
def scroll_shapes(draw, max_n):
    """Non-increasing degree vectors (a_0, .., a_r), r <= 5, with n <= max_n."""
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    assume(1 <= sum(degrees) <= max_n - 1)
    return ScrollSpec(tuple(sorted(degrees, reverse=True)))


class TestScrollSectionAgainstSystem:
    """The section as the signed maximal minors of the samples' kernel against
    the kernel vector of the r n x (r n + 1) system it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(a=scroll_shapes(max_n=10), seed=st.integers(0, 2**16))
    @example(a=ScrollSpec((3, 0)), seed=0)
    @example(a=ScrollSpec((2, 2, 0)), seed=0)
    @example(a=ScrollSpec((1, 1, 1, 1, 1, 1)), seed=0)
    def test_random_rational_draws(self, a, seed):
        rng = random.Random(seed)
        ts = rand_distinct_rationals(rng, a.n)
        samples = [(t, rand_vector(rng, a.r)) for t in ts]
        expected = _section_outcome(reference_fit_scroll_section, a, samples)
        got = _section_outcome(fit_scroll_section, a, samples)
        if isinstance(expected, tuple) and expected[1].startswith(SYSTEM_DIMENSION):
            assert got[0] is GenericityError
        else:
            assert got == expected

    @settings(max_examples=80, deadline=None)
    @given(a=scroll_shapes(max_n=7), data=st.data())
    def test_small_integer_draws(self, a, data):
        # degenerate draws are common here, and each route names its own reason
        ts = data.draw(st.permutations(range(-3, 4)))[: a.n]
        s = st.tuples(*[st.integers(-1, 1)] * a.r)
        samples = [(t, data.draw(s)) for t in ts]
        expected = _section_outcome(reference_fit_scroll_section, a, samples)
        got = _section_outcome(fit_scroll_section, a, samples)
        if isinstance(expected, list):
            assert got == expected
        else:
            assert isinstance(got, tuple) and got[0] is expected[0]

    def test_minors_that_all_vanish_are_a_genericity_failure(self):
        # three samples with s_1 = 0 span the plane {x2 = x3 = 0} of the scroll
        # (1, t, s_1, t s_1, s_2), which meets every fiber in a line: the
        # kernel's forms x2 and x3 give the rows (0, 1, 0) and (0, t, 0)
        a = ScrollSpec((1, 1, 0))
        samples = [(0, (0, 1)), (1, (0, 2)), (2, (0, 5))]
        with pytest.raises(GenericityError, match="^the minors of the section all vanish$"):
            fit_scroll_section(a, samples)
        with pytest.raises(GenericityError, match=f"^{SYSTEM_DIMENSION} 2, expected 1$"):
            reference_fit_scroll_section(a, samples)
