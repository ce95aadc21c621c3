"""Linear projections as the integer kernel of their centre, against the
hand-built ``Fraction`` reference.

A ``LinearProjection`` keeps the right kernel of its centre's rows as
integer ``rows`` over one ``den``, primitive together with ``den > 0``.
The reference is the matrix the class once built by hand: one row per
non-pivot column c of the centre's reduced echelon basis, 1 at c and minus
the basis entry at each pivot, cleared to integers over one common
denominator.  ``osculating_projection_map`` eliminates the osculators'
stacked integer rows once; its reference is ``projection_from`` of the
join of the osculators' subspaces, with the direct-sum test of
``try_direct_sum``.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rncgeom import catalog
from rncgeom.catalog import ScrollSpec, StandardScroll, Veronese
from rncgeom.errors import DimensionMismatchError, GeneralPositionError, RncGeomError
from rncgeom.linalg import ProjSubspace, projection_from, rref, span_of, try_direct_sum
from rncgeom.osculation import Parametrization, osculating_projection_map, osculator
from rncgeom.poly import Polynomial, clear_denominators
from rncgeom.sampling import DENOMINATORS, NUMERATOR_RANGE

COORD = st.one_of(
    st.builds(Fraction, st.integers(*NUMERATOR_RANGE), st.sampled_from(DENOMINATORS)),
    st.integers(-2, 2),
)


def reference_cleared(center: ProjSubspace):
    """The hand-built projection matrix of ``center``, cleared to integers."""
    if center.dim == center.ambient_dim:
        raise RncGeomError("cannot project from the whole space")
    n = center.ambient_dim + 1
    pivots = rref(center.basis, n)[1]
    piv = set(pivots)
    rows = []
    for c in range(n):
        if c in piv:
            continue
        row = [Fraction(0)] * n
        row[c] = Fraction(1)
        for basis_row, p in zip(center.basis, pivots):
            row[p] = -basis_row[c]
        rows.append(row)
    ints, den = clear_denominators([x for row in rows for x in row])
    return [ints[i * n : (i + 1) * n] for i in range(len(rows))], den


@st.composite
def centers(draw):
    ambient = draw(st.integers(1, 6))
    count = draw(st.integers(0, ambient + 1))
    vectors = draw(st.lists(st.tuples(*[COORD] * (ambient + 1)), min_size=count, max_size=count))
    # repeat a vector or add two of them, so that some rows are dependent
    if vectors and draw(st.booleans()):
        a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
        vectors.append(tuple(x + y for x, y in zip(a, b)))
    return span_of(vectors, ambient)


@settings(max_examples=200, deadline=None)
@given(center=centers())
@example(center=span_of([], 3))
@example(center=span_of([(1, 0), (0, 1)]))
@example(center=span_of([(Fraction(2, 3), -1, 5)]))
def test_projection_is_the_cleared_hand_built_matrix(center):
    try:
        expected = reference_cleared(center)
    except RncGeomError as err:
        with pytest.raises(RncGeomError, match=str(err)):
            projection_from(center)
        return
    proj = projection_from(center)
    assert (proj.rows, proj.den) == expected
    assert proj.target_dim == center.ambient_dim - center.dim - 1


@settings(max_examples=60, deadline=None)
@given(center=centers(), ambient=st.integers(0, 7))
@example(center=span_of([(1, 0, 0)]), ambient=3)
@example(center=span_of([(1, 0, 0)]), ambient=1)
def test_image_of_rejects_an_ambient_mismatch(center, ambient):
    if center.dim == center.ambient_dim or ambient == center.ambient_dim:
        return
    proj = projection_from(center)
    with pytest.raises(DimensionMismatchError):
        proj.image_of(span_of([(1,) + (0,) * ambient], ambient))
    with pytest.raises(DimensionMismatchError):
        proj.image_of(span_of([], ambient))


S, T = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
# every component vanishes at the origin: a base point of the map
BASE_POINT_MAP = Parametrization(2, [S, T, S * S, S * T, T * T, S * S * S])

VARIETIES = [
    catalog.make_variety(Veronese(1, 4)),
    catalog.make_variety(Veronese(2, 2)),
    catalog.make_variety(Veronese(2, 3)),
    catalog.make_variety(StandardScroll(ScrollSpec((1, 1)), 2, 0)),
    BASE_POINT_MAP,
]


def reference_map(v, centers):
    """``projection_from`` of the join of the osculators, after the direct-sum
    test, with its image."""
    parts = [osculator(v, p, k).subspace for p, k in centers]
    ok, center, expected = try_direct_sum(parts)
    if not ok:
        raise GeneralPositionError(
            f"osculators not in direct sum (dim {center.dim} < {expected})"
        )
    proj = projection_from(center)
    return proj, Parametrization._projected(v, proj)


def _outcome(call):
    try:
        return "ok", call()
    except Exception as err:  # the classes and messages are compared
        return "raised", (type(err), str(err))


@st.composite
def centre_sets(draw):
    v = draw(st.sampled_from(VARIETIES))
    point = st.tuples(*[COORD] * v.nparams)
    pool = draw(st.lists(point, min_size=1, max_size=3))
    if v is BASE_POINT_MAP and draw(st.booleans()):
        pool.append((0, 0))
    # points drawn from a small pool repeat now and then
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return v, [(p, draw(st.integers(0, 2))) for p in chosen]


@settings(max_examples=120, deadline=None)
@given(case=centre_sets(), at=st.tuples(COORD, COORD))
@example(case=(VARIETIES[1], [((1, 1), 1), ((1, 1), 1)]), at=(2, 3))
@example(case=(VARIETIES[0], [((2,), 1), ((-1,), 1)]), at=(1, 0))
@example(case=(VARIETIES[0], [((2,), 4)]), at=(1, 0))
@example(case=(BASE_POINT_MAP, [((1, 2), 0), ((0, 0), 1)]), at=(1, 1))
def test_map_is_the_projection_from_the_join(case, at):
    v, cs = case
    got = _outcome(lambda: osculating_projection_map(v, cs))
    expected = _outcome(lambda: reference_map(v, cs))
    assert got[0] == expected[0]
    if got[0] == "raised":
        assert got[1] == expected[1]
        return
    (proj, image), (ref_proj, ref_image) = got[1], expected[1]
    assert (proj.rows, proj.den) == (ref_proj.rows, ref_proj.den)
    point = at[: v.nparams]
    assert _outcome(lambda: image.eval(point)) == _outcome(lambda: ref_image.eval(point))
    assert image.span() == ref_image.span()
