"""The integer elimination kernel against the plain ``Fraction`` reference.

``reference_rref`` is Gauss-Jordan over ``Fraction``, one division per
pivot row and one ``Fraction`` product per eliminated entry.  The reduced
row echelon form is unique, so ``linalg.rref`` must return the same tuples,
and ``rank``, ``nullspace`` and ``QMatrix.inverse`` must return the same
values under either kernel.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import linalg
from rncgeom.errors import DimensionMismatchError, RncGeomError
from rncgeom.linalg import QMatrix, nullspace, rank, rref
from rncgeom.sampling import DENOMINATORS, NUMERATOR_RANGE


def reference_rref(rows, ncols=None):
    """Reduced row echelon form over Fraction: ``(rows, pivots)``."""
    work = [[Fraction(x) for x in r] for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatchError("ragged matrix")
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(row, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        inv = 1 / work[row][col]
        work[row] = [x * inv for x in work[row]]
        for i in range(len(work)):
            if i != row and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [tuple(r) for r in work[:row]], pivots


ENTRY = st.builds(Fraction, st.integers(*NUMERATOR_RANGE), st.sampled_from(DENOMINATORS))


def _as_given(x: Fraction, form: str):
    """The entry as a caller may pass it: Fraction, str or (when whole) int."""
    if form == "str":
        return str(x)
    if form == "int" and x.denominator == 1:
        return int(x)
    return x


@st.composite
def matrices(draw, max_rows=8, max_cols=10, square=False):
    """``(rows, ncols)`` with heights as in ``sampling`` and degenerate rows.

    Zero, repeated and proportional rows are mixed in, some columns are
    zeroed, and entries come as Fraction, int or str.
    """
    ncols = draw(st.integers(0 if not square else 1, max_cols))
    nrows = ncols if square else draw(st.integers(0, max_rows))
    rows = [draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        target = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("zero", "repeat", "proportional")))
        source = draw(st.sampled_from(rows))
        if kind == "zero":
            rows[target] = [Fraction(0)] * ncols
        elif kind == "repeat":
            rows[target] = list(source)
        else:
            scale = draw(ENTRY.filter(bool))
            rows[target] = [scale * x for x in source]
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else set()
    forms = draw(st.lists(st.sampled_from(("fraction", "int", "str")),
                          min_size=nrows * ncols, max_size=nrows * ncols))
    given_rows = [
        [
            _as_given(Fraction(0) if j in zero_cols else x, forms[i * ncols + j])
            for j, x in enumerate(row)
        ]
        for i, row in enumerate(rows)
    ]
    return given_rows, ncols


class TestRrefAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_rref(self, case):
        rows, ncols = case
        got = rref(rows, ncols)
        assert got == reference_rref(rows, ncols)
        assert all(type(x) is Fraction for r in got[0] for x in r)
        if rows:
            assert rref(rows) == got

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_rank(self, case):
        rows, ncols = case
        assert rank(rows, ncols) == len(reference_rref(rows, ncols)[0])

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_nullspace(self, case):
        rows, ncols = case
        with mock.patch.object(linalg, "rref", reference_rref):
            expected = nullspace(rows, ncols)
        kernel = nullspace(rows, ncols)
        assert kernel == expected
        for vec in kernel:
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0

    @settings(max_examples=100, deadline=None)
    @given(matrices(max_cols=8, square=True))
    def test_inverse(self, case):
        rows, n = case
        m = QMatrix(rows)
        with mock.patch.object(linalg, "rref", reference_rref):
            try:
                expected = m.inverse()
            except RncGeomError:
                expected = None
        if expected is None:
            with pytest.raises(RncGeomError):
                m.inverse()
        else:
            assert m.inverse() == expected
            assert m @ m.inverse() == QMatrix.identity(n)


class TestRrefEdges:
    def test_empty(self):
        assert rref([]) == ([], [])
        assert rref([], 3) == ([], [])

    def test_ragged(self):
        with pytest.raises(DimensionMismatchError):
            rref([[1, 2], [3]])
        with pytest.raises(DimensionMismatchError):
            rref([[1, 2]], 3)

    def test_negative_pivots_and_mixed_entries(self):
        rows = [[-2, "1/3", 0], ["-3/2", Fraction(-1, 2), "4"], [0, 0, -7]]
        assert rref(rows) == reference_rref(rows)
        assert rref(rows)[1] == [0, 1, 2]

    def test_zero_rows_are_dropped(self):
        rows = [[0, 0, 0], [0, "2/3", 4], [0, 0, 0], [0, -1, -6]]
        assert rref(rows) == ([(0, 1, 6)], [1])
