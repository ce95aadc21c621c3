"""Exact linear algebra over Q and projective-subspace calculus.

Vectors are tuples of Fraction.  Subspaces of P^N are stored through a
reduced row echelon basis of their cone in Q^{N+1}, which makes equality,
membership and join tests purely structural.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, DirectSumError, RncGeomError
from .poly import clear_denominators, combine


def _frac_row(row) -> tuple:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in row)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _echelon(rows: Sequence[Sequence], ncols=None):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the given rows.

    Returns ``(rows, pivots, free, den)``: row i of the reduced row echelon
    form is ``den`` at ``pivots[i]``, 0 at the other pivots and ``rows[i][k]``
    at ``free[k]``, all over ``den``.  Zero rows are dropped.  Each input row
    is cleared of its own denominators; a row of ``int`` entries is taken
    as it is.  Every later step is
    ``(p*x - a*y) / prev`` with ``p`` the new pivot and ``prev`` the one
    before it; the division is exact, since every entry is then a minor of
    the cleared matrix, so no gcd is taken.  A row holds the free columns
    found so far and then the columns not yet reached: a pivot column is
    dropped once chosen, and a free one stays where it is.
    """
    work = [
        list(r) if all(type(x) is int for x in r) else clear_denominators(r)[0]
        for r in rows
    ]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatchError("ragged matrix")
    pivots = []
    nfree = 0  # the column being reached sits at this index of every row
    prev = 1
    height = len(work)
    for col in range(ncols):
        row = len(pivots)
        if row == height:
            break
        for i in range(row, height):
            if work[i][nfree]:
                break
        else:
            nfree += 1
            continue
        work[row], work[i] = work[i], work[row]
        prow = work[row]
        p = prow.pop(nfree)
        for i, r in enumerate(work):
            if i != row:
                a = r.pop(nfree)
                if a:
                    work[i] = [(p * x - a * y) // prev for x, y in zip(r, prow)]
                elif p != prev:
                    work[i] = [p * x // prev for x in r]
        pivots.append(col)
        prev = p
    piv = set(pivots)
    free = [c for c in range(ncols) if c not in piv]
    return work[: len(pivots)], pivots, free, prev


def rref(rows: Sequence[Sequence], ncols=None):
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` with zero rows dropped and unit pivots, built
    from the integer rows of ``_echelon``.
    """
    ints, pivots, free, den = _echelon(rows, ncols)
    ncols = len(pivots) + len(free)
    reduced = []
    for r, c in zip(ints, pivots):
        vec = [_ZERO] * ncols
        vec[c] = _ONE
        for f, x in zip(free, r):
            if x:
                vec[f] = Fraction(x, den)
        reduced.append(tuple(vec))
    return reduced, pivots


def rank(rows, ncols=None) -> int:
    return len(_echelon(rows, ncols)[1])


_PRIME = 2**61 - 1


def integer_rank(rows, ncols: int) -> int:
    """``rank`` of an integer matrix, certified modulo the prime 2^61 - 1.

    A minor that is nonzero modulo p is a nonzero integer, so the rank over
    Q is at least the rank modulo p.  A full rank modulo p is therefore the
    answer, and only a drop runs the exact ``rank``.
    """
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatchError("ragged matrix")
    basis = []  # (c, b): b is 1 at c and 0 at the pivots of the rows before it
    for r in rows:
        v = [x % _PRIME for x in r]
        for c, b in basis:
            a = v[c]
            if a:
                v = [(x - a * y) % _PRIME for x, y in zip(v, b)]
        c = next((i for i, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, _PRIME)
            basis.append((c, [x * inv % _PRIME for x in v]))
    if len(basis) == min(len(rows), ncols):
        return len(basis)
    return rank(rows, ncols)


def _kernel_ints(rows, ncols: int):
    """``(vectors, den)``: the right kernel of the row matrix on integers.

    One vector per free column of ``_echelon``: ``den`` there, 0 at the
    other free columns and ``-rows[i][k]`` at ``pivots[i]``.
    """
    ints, pivots, free, den = _echelon(rows, ncols)
    basis = []
    for k, f in enumerate(free):
        vec = [0] * ncols
        vec[f] = den
        for r, c in zip(ints, pivots):
            vec[c] = -r[k]
        basis.append(vec)
    return basis, den


def nullspace(rows, ncols: int):
    """Basis (tuples) of the right kernel of the given row matrix.

    One vector per free column, 1 there and 0 at the other free columns.
    """
    basis, den = _kernel_ints(rows, ncols)
    return [
        tuple(_ONE if x == den else Fraction(x, den) if x else _ZERO for x in vec)
        for vec in basis
    ]


def _inverse_ints(rows):
    """``(ints, den)`` of the inverse of a square row matrix: entry (i, j)
    is ``ints[i][j]`` over ``den``, read off the free half of ``[A | I]``."""
    n = len(rows)
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(rows)]
    ints, pivots, _, den = _echelon(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise RncGeomError("matrix is singular")
    return ints, den


def _accumulate(coeffs, rows, width: int) -> list:
    """The integer row sum of a*row over paired integer coefficients and
    rows of length ``width``."""
    acc = [0] * width
    for a, row in zip(coeffs, rows):
        if a:
            acc = [x + a * y for x, y in zip(acc, row)]
    return acc


def combine_rows(coeffs, rows) -> tuple:
    """The linear combination of ``rows`` with paired ``coeffs``.

    The vector analogue of ``poly.combine``: the coefficients are cleared
    to integers, the rows are read in the cleared form their ``QMatrix``
    keeps (a plain row list is wrapped once), the sum is accumulated over
    Z, and each output entry is one Fraction over the product of the two
    denominators.
    """
    if not isinstance(rows, QMatrix):
        rows = QMatrix(rows)
    if len(coeffs) != rows.nrows:
        raise DimensionMismatchError("coefficient count differs from row count")
    ints, den = rows.cleared
    nums, coeff_den = clear_denominators(coeffs)
    acc = _accumulate(nums, ints, rows.ncols)
    den *= coeff_den
    return tuple(Fraction(x, den) if x else _ZERO for x in acc)


class QMatrix:
    """Dense exact matrix; small sizes only, immutable.

    ``cleared`` holds the entries as integer rows over one common
    denominator.  It is filled on first use and, the matrix being
    immutable, never goes stale.
    """

    __slots__ = ("entries", "_cleared")

    def __init__(self, entries):
        rows = tuple(_frac_row(r) for r in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionMismatchError("ragged matrix")
        self.entries = rows
        self._cleared = None

    @property
    def cleared(self) -> tuple:
        """``(int_rows, den)`` with each entry equal to its integer over ``den``."""
        if self._cleared is None:
            ints, den = clear_denominators([x for row in self.entries for x in row])
            w = self.ncols
            self._cleared = ([ints[i * w : (i + 1) * w] for i in range(self.nrows)], den)
        return self._cleared

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.entries)))

    def matvec(self, vec) -> tuple:
        nums, den = clear_denominators(vec)
        if len(nums) != self.ncols:
            raise DimensionMismatchError("matvec size mismatch")
        ints, row_den = self.cleared
        den *= row_den
        dots = (sum(a * x for a, x in zip(row, nums)) for row in ints)
        return tuple(Fraction(s, den) if s else _ZERO for s in dots)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError("matmul size mismatch")
        return QMatrix([combine_rows(row, other) for row in self.entries])

    def rank(self) -> int:
        return rank(self.entries, self.ncols)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "QMatrix":
        if self.nrows != self.ncols:
            raise RncGeomError("inverse of a non-square matrix")
        ints, den = _inverse_ints(self.entries)
        return QMatrix([[Fraction(x, den) if x else _ZERO for x in r] for r in ints])

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"QMatrix({[list(map(str, r)) for r in self.entries]})"


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product a (x) b."""
    rows = []
    for ra in a.entries:
        for rb in b.entries:
            rows.append([x * y for x in ra for y in rb])
    return QMatrix(rows)


class ProjSubspace:
    """Linear subspace of P^N as an echelon basis of its cone in Q^{N+1}."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis_rows):
        self.ambient_dim = ambient_dim
        self.basis = tuple(rref(basis_rows, ambient_dim + 1)[0])

    @property
    def dim(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.basis) - 1

    def contains_vector(self, vec) -> bool:
        vec = _frac_row(vec)
        if len(vec) != self.ambient_dim + 1:
            raise DimensionMismatchError("ambient mismatch")
        if all(x == 0 for x in vec):
            return True
        return rank(list(self.basis) + [vec], self.ambient_dim + 1) == len(self.basis)

    def contains_subspace(self, other: "ProjSubspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def __eq__(self, other):
        if not isinstance(other, ProjSubspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return f"ProjSubspace(P^{self.ambient_dim}, dim={self.dim})"


def span_of(vectors, ambient_dim=None) -> ProjSubspace:
    """Projective span of a family of vectors in Q^{N+1}."""
    vectors = [tuple(v) for v in vectors]
    if ambient_dim is None:
        if not vectors:
            raise DimensionMismatchError("ambient dimension needed for empty span")
        ambient_dim = len(vectors[0]) - 1
    for v in vectors:
        if len(v) != ambient_dim + 1:
            raise DimensionMismatchError("vector length disagrees with ambient")
    return ProjSubspace(ambient_dim, vectors)


def join(parts: Sequence[ProjSubspace]) -> ProjSubspace:
    if not parts:
        raise DimensionMismatchError("join of nothing")
    ambient = parts[0].ambient_dim
    if any(p.ambient_dim != ambient for p in parts):
        raise DimensionMismatchError("ambient dimensions differ")
    rows = [v for p in parts for v in p.basis]
    return ProjSubspace(ambient, rows)


def try_direct_sum(parts: Sequence[ProjSubspace]):
    """Return ``(ok, join, expected_dim)`` for the projective direct-sum test."""
    j = join(parts)
    expected = sum(p.dim + 1 for p in parts) - 1
    return (j.dim == expected, j, expected)


def direct_sum(parts: Sequence[ProjSubspace]) -> ProjSubspace:
    """Join of the parts; raises DirectSumError unless dimensions add up."""
    ok, j, expected = try_direct_sum(parts)
    if not ok:
        raise DirectSumError(j.dim, expected)
    return j


def intersect(a: ProjSubspace, b: ProjSubspace) -> ProjSubspace:
    """Exact intersection, computed through the annihilators."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    n = a.ambient_dim + 1
    ann = nullspace(list(a.basis), n) + nullspace(list(b.basis), n)
    return ProjSubspace(a.ambient_dim, nullspace(ann, n))


class LinearProjection:
    """Projection of P^N: the linear forms ``rows`` over ``den`` that vanish
    on its center, primitive together, with ``den > 0``.

    They are the center's integer kernel (``_kernel_ints``), one form per
    free column of its echelon form, so projecting a monomial
    parametrization from a coordinate-spanned center is a coordinate deletion.
    """

    __slots__ = ("rows", "den")

    def __init__(self, forms, den: int):
        if not forms:
            raise RncGeomError("cannot project from the whole space")
        g = math.gcd(den, *(x for row in forms for x in row)) * (1 if den > 0 else -1)
        self.rows = [[x // g for x in row] for row in forms]
        self.den = den // g

    @property
    def target_dim(self) -> int:
        return len(self.rows) - 1

    def apply_polys(self, components):
        """Push polynomial components through the projection matrix.

        ``poly.combine`` over ``Fraction``: the eager components of a
        projected ``Parametrization``.  Curves are projected on their integer
        lists instead (``osculation.project_curve``).
        """
        return [combine([Fraction(x, self.den) for x in row], components) for row in self.rows]

    def image_of(self, sub: ProjSubspace) -> ProjSubspace:
        if sub.ambient_dim + 1 != len(self.rows[0]):
            raise DimensionMismatchError("ambient mismatch")
        vecs = [clear_denominators(v)[0] for v in sub.basis]
        rows = [[sum(a * x for a, x in zip(row, v)) for row in self.rows] for v in vecs]
        return ProjSubspace(self.target_dim, rows)


def projection_from(center: ProjSubspace) -> LinearProjection:
    """Linear projection of the center's ambient killing exactly the center
    (empty center: identity)."""
    return LinearProjection(*_kernel_ints(center.basis, center.ambient_dim + 1))
