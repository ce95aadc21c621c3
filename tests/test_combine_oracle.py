"""The integer row-combination kernel against plain ``Fraction`` sums.

``linalg.combine_rows`` clears its coefficients to integers, reads the
rows in the cleared form their ``QMatrix`` keeps (a plain row list is
wrapped once) and builds one ``Fraction`` per output entry;
``QMatrix.__matmul__`` goes through it.  ``QMatrix.matvec`` takes its dot
products over Z against the same cleared form.  The references below are
the textbook sums over ``Fraction``, one product per term.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rncgeom import linalg
from rncgeom.errors import DimensionMismatchError
from rncgeom.linalg import QMatrix, combine_rows
from rncgeom.poly import clear_denominators
from rncgeom.sampling import DENOMINATORS, NUMERATOR_RANGE


def reference_combine(coeffs, rows):
    width = len(rows[0]) if rows else 0
    return tuple(
        sum((Fraction(a) * Fraction(row[k]) for a, row in zip(coeffs, rows)), Fraction(0))
        for k in range(width)
    )


def reference_dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


# Fraction entries at the heights of ``sampling``, plain ints and zeros
ENTRY = st.one_of(
    st.builds(Fraction, st.integers(*NUMERATOR_RANGE), st.sampled_from(DENOMINATORS)),
    st.integers(*NUMERATOR_RANGE),
    st.just(0),
)


def matrix(nrows, ncols):
    return st.lists(
        st.lists(ENTRY, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


@st.composite
def combinations(draw, max_rows=6, max_cols=8):
    """``(coeffs, rows)``; the coefficients are sometimes all zero."""
    nrows = draw(st.integers(0, max_rows))
    rows = draw(matrix(nrows, draw(st.integers(0, max_cols))))
    if draw(st.booleans()):
        coeffs = [draw(st.sampled_from((0, Fraction(0))))] * nrows
    else:
        coeffs = draw(st.lists(ENTRY, min_size=nrows, max_size=nrows))
    return coeffs, rows


def _exact(values) -> bool:
    return all(type(x) is Fraction for x in values)


class TestCombineRows:
    @settings(max_examples=200, deadline=None)
    @given(combinations())
    @example(([Fraction(3, 4)], [[1, Fraction(-2, 3), 0]]))
    @example(([0, 0], [[1, 2], [Fraction(1, 2), 5]]))
    @example(([2, Fraction(1, 6)], [[Fraction(1, 4), 3], [6, Fraction(-5, 2)]]))
    def test_against_reference(self, case):
        coeffs, rows = case
        got = combine_rows(coeffs, rows)
        assert got == reference_combine(coeffs, rows)
        assert _exact(got)

    def test_single_row_is_scaled(self):
        row = [Fraction(1, 3), -2, 0, Fraction(5, 7)]
        assert combine_rows([Fraction(-3, 5)], [row]) == tuple(
            Fraction(-3, 5) * Fraction(x) for x in row
        )

    def test_all_zero_coefficients_give_the_zero_row(self):
        assert combine_rows([0, Fraction(0)], [[1, 2, 3], [4, 5, 6]]) == (0, 0, 0)

    def test_string_entries(self):
        assert combine_rows(["1/2", 3], [["2/3", 1], [0, "-1/6"]]) == (
            Fraction(1, 3),
            0,
        )

    @pytest.mark.parametrize("coeffs", [[1, 2, 3], [1], []])
    def test_coefficient_count_must_match(self, coeffs):
        with pytest.raises(DimensionMismatchError):
            combine_rows(coeffs, [[1], [2]])
        with pytest.raises(DimensionMismatchError):
            combine_rows(coeffs, QMatrix([[1], [2]]))

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatchError):
            combine_rows([1, 2], [[1, 2], [3]])


def _row_den(row):
    return math.lcm(*(Fraction(x).denominator for x in row))


@st.composite
def reused_matrices(draw, max_rows=6, max_cols=8):
    """``(rows, [coeffs, ...])``: one matrix, several coefficient vectors.

    The matrix is sometimes all zero.  A coefficient vector is sometimes
    zero on every row whose denominator is the largest, so that the
    common denominator of the matrix comes from rows it does not select.
    """
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    if draw(st.booleans()):
        rows = [[0] * ncols for _ in range(nrows)]
    else:
        rows = draw(matrix(nrows, ncols))
    top = max((_row_den(row) for row in rows), default=1)
    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(ENTRY, min_size=nrows, max_size=nrows))
        if draw(st.booleans()):
            coeffs = [0 if _row_den(row) == top else a for a, row in zip(coeffs, rows)]
        vectors.append(coeffs)
    return rows, vectors


class TestClearedMatrix:
    @settings(max_examples=200, deadline=None)
    @given(reused_matrices())
    @example(([[1, 2], [Fraction(1, 7), 3]], [[1, 0], [0, 1], [5, 0]]))
    @example(([[0, 0, 0], [0, 0, 0]], [[1, Fraction(1, 2)], [0, 0]]))
    @example(([[], [], []], [[1, 2, 3], [0, 0, 0]]))
    @example(([], [[]]))
    def test_reused_matrix_against_reference(self, case):
        rows, vectors = case
        m = QMatrix(rows)
        for coeffs in vectors:
            got = combine_rows(coeffs, m)
            assert got == reference_combine(coeffs, rows)
            assert got == combine_rows(coeffs, rows)
            assert _exact(got)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cleared_form(self, data):
        nrows = data.draw(st.integers(0, 6))
        ncols = data.draw(st.integers(0, 6))
        m = QMatrix(data.draw(matrix(nrows, ncols)))
        ints, den = m.cleared
        assert m.cleared is m.cleared
        assert den == math.lcm(*(x.denominator for row in m.entries for x in row))
        assert [[Fraction(x, den) for x in row] for row in ints] == [
            list(row) for row in m.entries
        ]
        assert all(type(x) is int for row in ints for x in row)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_products_before_and_after_the_form_is_filled(self, data):
        p = data.draw(st.integers(1, 5))
        q = data.draw(st.integers(1, 5))
        s = data.draw(st.integers(1, 5))
        m = QMatrix(data.draw(matrix(p, q)))
        a = QMatrix(data.draw(matrix(s, p)))
        b = QMatrix(data.draw(matrix(q, s)))
        vec = data.draw(st.lists(ENTRY, min_size=q, max_size=q))
        expected = (
            tuple(reference_dot(row, vec) for row in m.entries),
            QMatrix([[reference_dot(row, col) for col in zip(*m.entries)] for row in a.entries]),
            QMatrix([[reference_dot(row, col) for col in zip(*b.entries)] for row in m.entries]),
        )
        # the first ``a @ m`` fills the form of m; the second pass reads it
        for _ in range(2):
            assert (m.matvec(vec), a @ m, m @ b) == expected
            assert m.cleared[1] >= 1


class TestMatrixProducts:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matvec(self, data):
        nrows = data.draw(st.integers(0, 6))
        ncols = data.draw(st.integers(0, 6)) if nrows else 0
        m = QMatrix(data.draw(matrix(nrows, ncols)))
        vec = data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
        got = m.matvec(vec)
        assert got == tuple(reference_dot(row, vec) for row in m.entries)
        assert len(got) == nrows and _exact(got)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matmul(self, data):
        p = data.draw(st.integers(0, 5))
        q = data.draw(st.integers(0, 5)) if p else 0
        s = data.draw(st.integers(0, 5)) if q else 0
        a = QMatrix(data.draw(matrix(p, q)))
        b = QMatrix(data.draw(matrix(q, s)))
        cols = list(zip(*b.entries))
        expected = QMatrix([[reference_dot(row, col) for col in cols] for row in a.entries])
        got = a @ b
        assert got == expected
        assert all(_exact(row) for row in got.entries)

    def test_matvec_on_many_vectors_clears_the_matrix_once(self, monkeypatch):
        m = QMatrix([[1, Fraction(1, 2), 3, 0], [Fraction(2, 3), 0, 1, 5], [0, 0, 0, 0]])
        vectors = [[1, 2, 3, 4], [Fraction(1, 2), 0, 0, Fraction(-1, 5)], [0, 0, 0, 0]]
        built, cleared = [], []
        init = QMatrix.__init__

        def counting_init(self, entries):
            built.append(entries)
            init(self, entries)

        def counting_clear(values):
            values = list(values)
            cleared.append(len(values))
            return clear_denominators(values)

        monkeypatch.setattr(QMatrix, "__init__", counting_init)
        monkeypatch.setattr(linalg, "clear_denominators", counting_clear)
        got = [m.matvec(vec) for vec in vectors]
        monkeypatch.undo()
        assert built == []
        # one clearing of the 12 entries of m, one per vector of length 4
        assert sorted(cleared) == [4, 4, 4, 12]
        assert got == [tuple(reference_dot(row, vec) for row in m.entries) for vec in vectors]
        assert all(_exact(row) for row in got)

    def test_size_mismatch(self):
        m = QMatrix([[1, 2], [3, 4]])
        with pytest.raises(DimensionMismatchError):
            m.matvec([1, 2, 3])
        with pytest.raises(DimensionMismatchError):
            m @ QMatrix([[1, 2]])


class TestClearDenominators:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(ENTRY, max_size=8))
    def test_round_trip(self, values):
        ints, den = clear_denominators(values)
        assert all(type(x) is int for x in ints)
        assert [Fraction(x, den) for x in ints] == [Fraction(x) for x in values]
        assert den == math.lcm(*(Fraction(x).denominator for x in values))
