import random
from fractions import Fraction as F

import pytest

from rncgeom import catalog
from rncgeom.errors import DimensionMismatchError, DirectSumError, RncGeomError
from rncgeom.linalg import (
    QMatrix,
    direct_sum,
    intersect,
    join,
    kron,
    nullspace,
    projection_from,
    rank,
    rref,
    span_of,
    try_direct_sum,
)
from rncgeom.sampling import rand_vector


class TestSpanOf:
    def test_two_points_make_line(self):
        sub = span_of([(1, 0, 0), (0, 1, 0)])
        assert sub.dim == 1

    def test_proportional_vectors_single_point(self):
        sub = span_of([(1, 1), (2, 2)])
        assert sub.dim == 0

    def test_twisted_cubic_tangent_rows(self):
        # tangent lines of [1:t:t^2:t^3] at t=0 and t=1; determinant is 1
        rows = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (0, 1, 2, 3)]
        assert span_of(rows).dim == 3

    def test_invariance_under_scaling_and_permutation(self):
        rng = random.Random(5)
        vecs = [rand_vector(rng, 4) for _ in range(3)]
        base = span_of(vecs, 3)
        scaled = [tuple(F(3) * x for x in v) for v in reversed(vecs)]
        assert span_of(scaled, 3) == base

    def test_empty_span(self):
        sub = span_of([], ambient_dim=2)
        assert sub.dim == -1

    def test_contains_subspace(self):
        # a plane of P^4 contains its lines, its points, itself and the
        # empty span; a span with one vector off the plane is not inside
        rng = random.Random(6)
        vecs = [rand_vector(rng, 5) for _ in range(3)]
        plane = span_of(vecs)
        assert plane.dim == 2
        combo = tuple(2 * x - y for x, y in zip(vecs[0], vecs[2]))
        for sub in ([vecs[0]], vecs[:2], [vecs[1], combo], vecs, []):
            assert plane.contains_subspace(span_of(sub, 4))
        # off is v0 + v1 + v2 + e4, and e4 is not on this plane
        *head, last = (sum(col) for col in zip(*vecs))
        off = (*head, last + 1)
        assert not plane.contains_vector((0, 0, 0, 0, 1))
        assert not plane.contains_subspace(span_of([vecs[0], off]))
        assert not plane.contains_subspace(span_of([off]))
        assert span_of(vecs + [off]).contains_subspace(plane)


class TestDirectSum:
    def test_disjoint_points_make_line(self):
        a = span_of([(1, 0, 0)])
        b = span_of([(0, 0, 1)])
        assert direct_sum([a, b]).dim == 1

    def test_intersecting_lines_fail(self):
        a = span_of([(1, 0, 0), (0, 1, 0)])
        b = span_of([(1, 0, 0), (0, 0, 1)])
        ok, joined, expected = try_direct_sum([a, b])
        assert not ok and joined.dim == 2 and expected == 3
        with pytest.raises(DirectSumError):
            direct_sum([a, b])

    def test_twisted_cubic_tangents(self):
        a = span_of([(1, 0, 0, 0), (0, 1, 0, 0)])
        b = span_of([(1, 1, 1, 1), (0, 1, 2, 3)])
        assert direct_sum([a, b]).dim == 3

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            join([span_of([(1, 0)]), span_of([(1, 0, 0)])])


class TestGrassmannIdentity:
    def test_random_subspaces(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(3, 6)
            a = span_of([rand_vector(rng, n + 1) for _ in range(rng.randint(1, n))], n)
            b = span_of([rand_vector(rng, n + 1) for _ in range(rng.randint(1, n))], n)
            meet = intersect(a, b)
            assert join([a, b]).dim + meet.dim == a.dim + b.dim


def _projected_vector(proj, vec):
    """The image of a vector under the projection's rows over its den."""
    return tuple(F(sum(a * x for a, x in zip(row, vec)), proj.den) for row in proj.rows)


class TestProjectionFrom:
    def test_point_center_drops_coordinate(self):
        center = span_of([(1, 0, 0, 0)])
        proj = projection_from(center)
        assert proj.rows == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]] and proj.den == 1
        assert _projected_vector(proj, (5, 1, 2, 3)) == (1, 2, 3)

    def test_empty_center_is_identity(self):
        proj = projection_from(span_of([], ambient_dim=2))
        assert proj.rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and proj.den == 1
        assert _projected_vector(proj, (1, 2, 3)) == (1, 2, 3)

    def test_whole_space_rejected(self):
        full = span_of([(1, 0), (0, 1)])
        with pytest.raises(RncGeomError):
            projection_from(full)

    def test_fixes_complement(self):
        rng = random.Random(3)
        center = span_of([rand_vector(rng, 6) for _ in range(2)], 5)
        proj = projection_from(center)
        complement = [c for c in range(6) if c not in rref(center.basis, 6)[1]]
        assert len(complement) == len(proj.rows)
        for col_idx, col in enumerate(complement):
            vec = [F(0)] * 6
            vec[col] = F(1)
            expected = [F(0)] * len(complement)
            expected[col_idx] = F(1)
            assert list(_projected_vector(proj, vec)) == expected

    def test_kills_exactly_center(self):
        rng = random.Random(4)
        center = span_of([rand_vector(rng, 5) for _ in range(2)], 4)
        proj = projection_from(center)
        for v in center.basis:
            assert all(x == 0 for x in _projected_vector(proj, v))
        assert rank(proj.rows, 5) == len(proj.rows) == 5 - len(center.basis)

    def test_segre_osculator_center_kills_degree_one(self):
        # echelon-pivot oracle: the order-1 osculator at the origin of the
        # Segre special model spans the point and the t, s coordinate axes
        spec = catalog.SegreSpecial(2, 4)
        variety = catalog.make_variety(spec)
        from rncgeom.osculation import osculator

        rep = osculator(variety, (F(0), F(0), F(0)), 1)
        proj = projection_from(rep.subspace)
        # chart order [1, t, s1, s2, t s1, t s2, q, t q]: degree >= 2 survive
        assert proj.rows == [[int(j == c) for j in range(8)] for c in (4, 5, 6, 7)]
        assert proj.den == 1


class TestQMatrix:
    def test_inverse_roundtrip(self):
        rng = random.Random(9)
        m = QMatrix([rand_vector(rng, 3) for _ in range(3)])
        while not m.is_invertible():
            m = QMatrix([rand_vector(rng, 3) for _ in range(3)])
        assert m @ m.inverse() == QMatrix.identity(3)

    def test_entries_are_fractions(self):
        # Fraction entries are kept as given; the rest are converted
        kept = F(-3, 4)
        given = [[2, "5/6", True, kept], [0, "-7", False, F(8, 2)]]
        m = QMatrix(given)
        for row, source in zip(m.entries, given):
            assert all(type(x) is F for x in row)
            assert row == tuple(F(x) for x in source)
        assert m.entries[0][3] is kept

    def test_kron_shape(self):
        a = QMatrix([[1, 2], [3, 4]])
        b = QMatrix([[0, 1], [1, 0]])
        k = kron(a, b)
        assert k.nrows == 4 and k.entries[0][1] == 1 and k.entries[0][0] == 0

    def test_nullspace_dimension(self):
        rows = [(1, 0, 1, 0), (0, 1, 0, 1)]
        kern = nullspace(rows, 4)
        assert len(kern) == 2
        for vec in kern:
            assert all(
                sum(a * b for a, b in zip(row, vec)) == 0 for row in rows
            )
