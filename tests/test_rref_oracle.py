"""The integer elimination kernel against the plain ``Fraction`` reference.

``reference_rref`` is Gauss-Jordan over ``Fraction``, one division per
pivot row and one ``Fraction`` product per eliminated entry.  The reduced
row echelon form is unique, so ``linalg.rref`` must return the same tuples,
and ``rank``, ``nullspace`` and ``QMatrix.inverse`` must return the values
that ``reference_nullspace`` and ``reference_inverse`` read off it.  The
modular rank certificate ``integer_rank`` is checked against ``rank``.
Rows of ``int`` entries skip the clearing step, and are checked against the
same rows given as ``Fraction``s.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import linalg
from rncgeom.errors import DimensionMismatchError, RncGeomError
from rncgeom.linalg import QMatrix, integer_rank, nullspace, rank, rref
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


def reference_nullspace(rows, ncols):
    """The kernel read off ``reference_rref``: 1 at one free column, 0 at the others."""
    reduced, pivots = reference_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(tuple(vec))
    return basis


def reference_inverse(rows):
    """The inverse read off ``reference_rref`` of ``[A | I]``; None when singular."""
    n = len(rows)
    aug = [list(rows[i]) + [int(j == i) for j in range(n)] for i in range(n)]
    reduced, pivots = reference_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return QMatrix([r[n:] for r in reduced])


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
        kernel = nullspace(rows, ncols)
        assert kernel == reference_nullspace(rows, ncols)
        for vec in kernel:
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0

    @settings(max_examples=100, deadline=None)
    @given(matrices(max_cols=8, square=True))
    def test_inverse(self, case):
        rows, n = case
        m = QMatrix(rows)
        expected = reference_inverse(rows)
        if expected is None:
            with pytest.raises(RncGeomError, match="^matrix is singular$"):
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

    def test_zero_column_before_the_first_pivot(self):
        rows = [[0, 0, "1/2", 3], [0, 2, 1, 0], [0, 4, 2, 0]]
        assert rref(rows) == reference_rref(rows)
        assert rref(rows)[1] == [1, 2]
        assert nullspace(rows, 4) == reference_nullspace(rows, 4)
        assert nullspace(rows, 4)[0] == (1, 0, 0, 0)

    def test_every_column_zero(self):
        rows = [[0, 0, 0], ["0", Fraction(0), 0]]
        assert rref(rows) == ([], [])
        assert rank(rows, 3) == 0
        assert nullspace(rows, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        with pytest.raises(RncGeomError, match="^matrix is singular$"):
            QMatrix([[0, 0], [0, 0]]).inverse()

    def test_ncols_wider_than_the_rows(self):
        for kernel in (rref, rank, nullspace):
            with pytest.raises(DimensionMismatchError):
                kernel([[1, 2], [3, 4]], 3)
        with pytest.raises(DimensionMismatchError):
            integer_rank([[1, 2], [3, 4]], 3)


class TestOneCore:
    """``rref``, ``rank``, ``nullspace`` and ``QMatrix.inverse`` each run
    the one elimination core ``linalg._echelon`` exactly once per call."""

    @pytest.mark.parametrize("call", [
        lambda rows: rref(rows),
        lambda rows: rank(rows, 3),
        lambda rows: nullspace(rows, 3),
        lambda rows: QMatrix(rows).inverse(),
    ], ids=["rref", "rank", "nullspace", "inverse"])
    def test_each_kernel_runs_the_core_once(self, call):
        rows = [[2, "1/3", 0], [1, 0, -1], [0, 5, "7/2"]]
        calls = []
        original = linalg._echelon

        def counting(rows, ncols=None):
            calls.append(rows)
            return original(rows, ncols)

        with mock.patch.object(linalg, "_echelon", counting):
            call(rows)
        assert len(calls) == 1


P = 2**61 - 1

INTEGER = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
    st.builds(lambda k, e: k * P + e, st.integers(-3, 3), st.integers(-1, 1)),
)


@st.composite
def integer_matrices(draw, max_rows=6, max_cols=7):
    """``(rows, ncols)`` of integers, some rows combinations of the others.

    Entries near multiples of the prime make a drop modulo p likelier.
    """
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(0, max_rows))
    rows = [draw(st.lists(INTEGER, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        if i and draw(st.booleans()):
            coeffs = draw(st.lists(INTEGER, min_size=i, max_size=i))
            rows[i] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    return rows, ncols


class TestIntegerRank:
    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_agrees_with_rank(self, case):
        rows, ncols = case
        assert integer_rank(rows, ncols) == rank(rows, ncols)

    def test_rank_that_drops_only_modulo_the_prime(self):
        assert integer_rank([[P, 0], [0, 1]], 2) == 2
        assert integer_rank([[1, 1], [1, 1 + P]], 2) == 2
        assert integer_rank([[1, 0, P], [0, 1, 0], [1, 1, 0]], 3) == 3

    def test_full_rank_modulo_the_prime_runs_no_exact_rank(self):
        with mock.patch.object(linalg, "_echelon", side_effect=AssertionError):
            assert integer_rank([[1, 2, 3], [4, 5, 6]], 3) == 2
            assert integer_rank([[1, 2], [3, 4], [5, 6]], 2) == 2


@st.composite
def int_and_mixed_matrices(draw):
    """``(rows, ncols)`` of ``integer_matrices`` with some rows turned into a
    mix of ``int`` and ``Fraction`` entries, some over a denominator."""
    rows, ncols = draw(integer_matrices())
    for i, row in enumerate(rows):
        if draw(st.booleans()):
            dens = draw(st.lists(st.sampled_from((None,) + DENOMINATORS),
                                 min_size=ncols, max_size=ncols))
            rows[i] = [x if d is None else Fraction(x, d) for x, d in zip(row, dens)]
    return rows, ncols


class TestIntegerRowsAsGiven:
    """``_echelon`` takes a row of ``int`` entries as it is and clears only the
    rows that hold a ``Fraction``: every kernel returns on such rows what it
    returns on the same rows given as ``Fraction``s."""

    @settings(max_examples=200, deadline=None)
    @given(int_and_mixed_matrices())
    def test_same_as_fraction_rows(self, case):
        rows, ncols = case
        given_rows = [list(r) for r in rows]
        fractions = [[Fraction(x) for x in r] for r in rows]
        assert linalg._echelon(rows, ncols) == linalg._echelon(fractions, ncols)
        assert rref(rows, ncols) == rref(fractions, ncols)
        assert rank(rows, ncols) == rank(fractions, ncols)
        assert nullspace(rows, ncols) == nullspace(fractions, ncols)
        assert rows == given_rows  # the rows taken as they are stay the caller's

    def test_integer_rows_are_not_cleared(self):
        with mock.patch.object(linalg, "clear_denominators", side_effect=AssertionError):
            assert rank([[1, 2, 3], (4, 5, 6)], 3) == 2
            assert rref([[2, 4], [1, 3]]) == ([(1, 0), (0, 1)], [0, 1])
