"""``CubicSpecial.fit`` on the frame of its lifted points, against the
``Fraction`` route through the span's echelon basis.

The fit takes the four lifted points (1, p_i), each cleared, as the frame
of the P^3 they span, so point i has coordinates e_i.  The line where the
span meets {T0 = T1 = 0} is the integer kernel of their T0 and T1 rows;
its echelon basis w1, w2 (read beside their frame coordinates) gives the
quadric's a, b, c, so the roots and the discriminant are those of the
reference.  The reference is the route the fit once took: the reduced
echelon basis of the span, a ``Fraction`` nullspace through its transpose,
and each of the six points read at the basis's pivot columns.  Both must
give the same curve and parameters, or the same exception class and
message, discriminant included.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rncgeom import catalog
from rncgeom.catalog import CubicSpecial, _isqrt_fraction, _through_chart
from rncgeom.errors import GeneralPositionError, GenericityError, SplittingFieldRequiredError
from rncgeom.linalg import QMatrix, nullspace, rref, span_of
from rncgeom.poly import _combine_ints
from rncgeom.rnc import rnc_through_points


def reference_fit(spec: CubicSpecial, points):
    """``CubicSpecial.fit`` through the echelon basis of the lifted span."""
    r = spec.r
    lifted = [(Fraction(1),) + p for p in points]
    span4 = span_of(lifted, r + 1)
    if span4.dim != 3:
        raise GenericityError("the four points do not span a P^3")
    lift = QMatrix(zip(*span4.basis))
    line = span_of([lift.matvec(c) for c in nullspace(lift.entries[:2], 4)], r + 1)
    if line.dim != 1:
        raise GenericityError("span meets {T0 = T1 = 0} in the wrong dimension")
    w1, w2 = line.basis
    qf = spec.form()
    a, b, c = qf.eval(w1[2:]), qf.polar(w1[2:], w2[2:]), qf.eval(w2[2:])
    if a == 0:
        if b == 0:
            raise GeneralPositionError("double intersection with the quadric")
        roots = [(Fraction(1), Fraction(0)), (-c, b)]
    else:
        disc = b * b - 4 * a * c
        if disc == 0:
            raise GeneralPositionError("double intersection with the quadric")
        root = _isqrt_fraction(disc)
        if root is None:
            raise SplittingFieldRequiredError(disc)
        roots = [((-b + root) / (2 * a), Fraction(1)), ((-b - root) / (2 * a), Fraction(1))]
    qpts = [tuple(lam * x + mu * y for x, y in zip(w1, w2)) for lam, mu in roots]
    # a point of the span has its coordinates at the echelon basis's pivots
    pivots = rref(span4.basis, r + 2)[1]
    six_in_p3 = []
    for p in lifted + qpts:
        coords = tuple(p[k] for k in pivots)
        assert (QMatrix([coords]) @ QMatrix(span4.basis)).entries[0] == p
        six_in_p3.append(coords)
    gamma3 = rnc_through_points(3, six_in_p3)
    ambient = [_combine_ints(row, gamma3.integer_lists()) for row in lift.cleared[0]]
    return _through_chart(spec, (1,) * (r + 1), 3, ambient, gamma3.params[:4])


def outcome(fit, spec, points):
    try:
        curve = fit(spec, points)
    except (GenericityError, GeneralPositionError, SplittingFieldRequiredError) as exc:
        return type(exc), str(exc), getattr(exc, "discriminant", None)
    return curve.integer_lists(), curve.params


@st.composite
def fit_inputs(draw):
    """``(spec, points)``: four points of Q^{r+1} with one chosen degeneracy.

    "split" puts the isotropic point (0, 0, e_k) of the quadric on the
    line, so that both roots are rational and a curve comes out more
    often; "equal_t1" gives all points one first coordinate, so that the
    span meets {T0 = T1 = 0} in a plane; "coplanar" and "repeated" make
    the four points span less than a P^3.
    """
    r = draw(st.integers(2, 5))
    mu_prime = draw(st.integers(1, r))
    height = draw(st.sampled_from([1, 2, 5, 20]))
    coord = st.fractions(-height, height, max_denominator=max(1, height // 2))
    points = [tuple(draw(coord) for _ in range(r + 1)) for _ in range(4)]
    case = draw(st.sampled_from(["general", "split", "equal_t1", "coplanar", "repeated"]))
    if case in ("split", "coplanar"):
        a, b = draw(coord), draw(coord)
        offset = [Fraction(0)] * (r + 1)
        if case == "split":
            # e_k is isotropic when x_k sits in a pair x_k x_l of the form,
            # or beyond its rank: e_1 for the rank-1 form x_0^2
            pairs = 2 * (mu_prime // 2)
            k = draw(st.integers(0, pairs - 1)) if pairs else 1
            offset[1 + k] = Fraction(1)
        points[3] = tuple(
            a * x + b * y + (1 - a - b) * z + o for x, y, z, o in zip(*points[:3], offset)
        )
    elif case == "equal_t1":
        t = draw(coord)
        points = [(t,) + p[1:] for p in points]
    elif case == "repeated":
        points[3] = points[draw(st.integers(0, 2))]
    return CubicSpecial(r, mu_prime), points


def integer_points(*points):
    return [tuple(Fraction(x) for x in p) for p in points]


@settings(max_examples=400, deadline=None)
@given(fit_inputs())
# curves; the first has w1 on the quadric, the root (1 : 0)
@example((CubicSpecial(2, 2), integer_points((-1, -2, -2), (2, 2, 1), (-2, -1, 2), (0, 0, 1))))
@example((CubicSpecial(2, 2), integer_points((2, 2, -2), (1, -2, 1), (-2, 1, -1), (-1, -2, -1))))
@example((CubicSpecial(3, 2),
          integer_points((2, 1, 2, 2), (-2, 2, 2, 0), (1, -1, 0, 1), (0, 2, 0, 2))))
@example((CubicSpecial(3, 3),
          integer_points((2, 2, 0, -1), (1, -2, 2, 1), (-2, 0, 0, -1), (0, 2, 0, -2))))
def test_fit_equals_the_span_route(case):
    spec, points = case
    assert outcome(CubicSpecial.fit, spec, points) == outcome(reference_fit, spec, points)


def test_the_draws_reach_every_outcome():
    # the strategy covers curves and each exception class of the fit,
    # on a fixed sequence of draws
    seen = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(fit_inputs())
    def collect(case):
        result = outcome(reference_fit, *case)
        seen.add(result[0] if isinstance(result[0], type) else "curve")

    collect()
    assert seen == {"curve", GenericityError, GeneralPositionError, SplittingFieldRequiredError}


def test_fit_builds_no_fraction_matrix(monkeypatch):
    # the frame is read on integer rows: no QMatrix, span or nullspace
    def forbidden(*args, **kwargs):
        raise AssertionError("the fit built a Fraction matrix")

    for name in ("QMatrix", "span_of", "nullspace", "combine_rows"):
        assert not hasattr(catalog, name)
    monkeypatch.setattr(QMatrix, "__init__", forbidden)
    points = integer_points((2, 2, -2), (1, -2, 1), (-2, 1, -1), (-1, -2, -1))
    assert len(CubicSpecial(2, 2).fit(points).params) == 4
