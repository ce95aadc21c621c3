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
from .poly import clear_denominators, combine, primitive_part


def _frac_row(row) -> tuple:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in row)


_ZERO = Fraction(0)


def rref(rows: Sequence[Sequence], ncols=None):
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` with zero rows dropped and unit pivots.
    Elimination runs on integer rows, each kept free of content, so the
    only division is that of each pivot row by its pivot, at the end.
    """
    work = [primitive_part(clear_denominators(r)[0]) for r in rows]
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
        prow = work[row]
        p = prow[col]
        for i in range(len(work)):
            a = work[i][col]
            if i != row and a != 0:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                new = [pg * x - ag * y for x, y in zip(work[i], prow)]
                content = math.gcd(*new)
                work[i] = [x // content for x in new] if content > 1 else new
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    reduced = [
        tuple(Fraction(x, r[c]) if x else _ZERO for x in r)
        for r, c in zip(work[:row], pivots)
    ]
    return reduced, pivots


def rank(rows, ncols=None) -> int:
    return len(rref(rows, ncols)[0])


def nullspace(rows, ncols: int):
    """Basis (tuples) of the right kernel of the given row matrix."""
    reduced, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(tuple(vec))
    return basis


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
    acc = [0] * rows.ncols
    for a, row in zip(nums, ints):
        if a:
            acc = [x + a * y for x, y in zip(acc, row)]
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
        n = self.nrows
        if n != self.ncols:
            raise RncGeomError("inverse of a non-square matrix")
        aug = [list(self.entries[i]) + [int(j == i) for j in range(n)] for i in range(n)]
        reduced, pivots = rref(aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(reduced) < n:
            raise RncGeomError("matrix is singular")
        return QMatrix([r[n:] for r in reduced])

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

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis_rows):
        self.ambient_dim = ambient_dim
        reduced, pivots = rref(basis_rows, ambient_dim + 1)
        self.basis = tuple(reduced)
        self.pivots = pivots

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
    """Projection of P^N from a center onto a coordinate complement.

    The complement is the span of the non-pivot coordinates of the
    center's echelon basis, so the matrix of the map has one row per
    surviving coordinate and projecting a monomial parametrization from
    a coordinate-spanned center is a plain coordinate deletion.
    """

    __slots__ = ("center", "ambient_dim", "complement_cols", "matrix")

    def __init__(self, center: ProjSubspace, ambient_dim: int):
        if center.ambient_dim != ambient_dim:
            raise DimensionMismatchError("center lives in a different ambient")
        if center.dim == ambient_dim:
            raise RncGeomError("cannot project from the whole space")
        self.center = center
        self.ambient_dim = ambient_dim
        n = ambient_dim + 1
        piv = set(center.pivots)
        self.complement_cols = tuple(c for c in range(n) if c not in piv)
        rows = []
        for c in self.complement_cols:
            row = [Fraction(0)] * n
            row[c] = Fraction(1)
            for basis_row, p in zip(center.basis, center.pivots):
                row[p] = -basis_row[c]
            rows.append(row)
        self.matrix = QMatrix(rows)

    @property
    def target_dim(self) -> int:
        return len(self.complement_cols) - 1

    def apply_vector(self, vec) -> tuple:
        return self.matrix.matvec(vec)

    def apply_polys(self, components):
        """Push polynomial components through the projection matrix.

        ``poly.combine`` over ``Fraction``: the eager components of a
        projected ``Parametrization``.  Curves are projected on their integer
        lists instead (``osculation.project_curve``).
        """
        return [combine(row, components) for row in self.matrix.entries]

    def image_of(self, sub: ProjSubspace) -> ProjSubspace:
        rows = [self.apply_vector(v) for v in sub.basis]
        return ProjSubspace(self.target_dim, rows)


def projection_from(center: ProjSubspace, ambient_dim: int) -> LinearProjection:
    """Linear projection killing exactly the center (empty center: identity)."""
    return LinearProjection(center, ambient_dim)
