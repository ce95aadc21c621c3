"""Tensor (G_{r,n}) vector structures on a dimension-rn space.

A structure is stored through its distinguished dual basis, the rn
functionals m_{j,alpha} laid out as the rows of an invertible matrix
with row index j*n + alpha.  Two bases define the same structure exactly
when their transition matrix factors as a Kronecker product C (x) A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import DimensionMismatchError, GeneralPositionError, RncGeomError
from .linalg import QMatrix, combine_rows, nullspace
from .sampling import rand_invertible_matrix


@dataclass(frozen=True)
class TensorStructure:
    """Distinguished dual basis (m_{j,alpha}) of a type-(r, n) structure."""

    r: int
    n: int
    m: QMatrix  # rows are the functionals, row index j*n + alpha

    @cached_property
    def m_inverse(self) -> QMatrix:
        """Inverse of ``m``, computed once per structure.

        ``construct_structure`` seeds it from the inversions that certify
        its input, so a constructed ``m`` is never row-reduced.
        """
        return self.m.inverse()

    def type_subspace_rows(self, t) -> list:
        """Basis of the annihilator of the type-(r, n-1) space with parameter t."""
        if len(t) != self.n:
            raise DimensionMismatchError("parameter must have n coordinates")
        # row j of the basis is sum_alpha t_alpha m_{j,alpha}
        return [
            combine_rows([x if k == j else 0 for k in range(self.r) for x in t], self.m)
            for j in range(self.r)
        ]

    def type_subspace(self, t) -> list:
        """Basis vectors of the type-(r, n-1) subspace cut out by t."""
        return nullspace(self.type_subspace_rows(t), self.r * self.n)

    def left_type_subspace(self, u) -> list:
        """Basis of the type-(r-1, n) subspace cut out by a covector u on C^r."""
        if len(u) != self.r:
            raise DimensionMismatchError("parameter must have r coordinates")
        # row alpha of the basis is sum_j u_j m_{j,alpha}
        return [
            combine_rows([x if k == alpha else 0 for x in u for k in range(self.n)], self.m)
            for alpha in range(self.n)
        ]


def construct_structure(subspaces: Sequence, rng=None) -> TensorStructure:
    """The unique structure making n+1 general codim-r subspaces type (r, n-1).

    ``subspaces`` are bases (row lists) of F_0, ..., F_n inside Q^{rn}.
    A basis phi_1..phi_r of the annihilator of F_0 is decomposed along
    the direct sum of the annihilators of F_1..F_n; the components form
    the distinguished dual basis.  Passing ``rng`` remixes the basis of
    the first annihilator, which changes the output only by a G_{r,n}
    transition.

    The inversions that build the structure also certify general
    position.  The annihilators of F_1..F_n span the dual exactly when
    their stack S is invertible.  Given that, those of F_0 and of all
    F_beta but F_{alpha+1} span it exactly when the r x r block C_alpha,
    the coordinates of the phis along the annihilator of F_{alpha+1}, is
    invertible.  Then m = D S, where D places C_alpha[j] in row
    j*n + alpha, so m^-1 = S^-1 D^-1 is assembled from these inverses.
    """
    count = len(subspaces)
    if count < 3:
        raise DimensionMismatchError("need n+1 >= 3 subspaces")
    n = count - 1
    for idx, sub in enumerate(subspaces):
        if not len(sub):
            raise DimensionMismatchError(f"subspace {idx} has an empty basis")
    dim = len(subspaces[0][0])
    if dim % n:
        raise DimensionMismatchError(f"ambient dimension {dim} not divisible by n={n}")
    r = dim // n

    annihilators = []
    for idx, sub in enumerate(subspaces):
        ann = nullspace(sub, dim)
        if len(ann) != r:
            raise DimensionMismatchError(
                f"subspace {idx} does not have codimension r={r}"
            )
        annihilators.append(QMatrix(ann))

    def not_spanning(omitted):
        witness = tuple(i for i in range(n + 1) if i != omitted)
        return GeneralPositionError(
            f"annihilators {witness} do not span the dual", witness=witness
        )

    try:
        change = QMatrix([row for ann in annihilators[1:] for row in ann.entries]).inverse()
    except RncGeomError:
        raise not_spanning(0) from None

    phis = annihilators[0]
    if rng is not None:
        phis = rand_invertible_matrix(rng, r) @ phis

    # coordinates of phi_j in the basis of the sum of the annihilators of F_1..F_n;
    # row j*n + alpha of m is the component of phi_j along that of F_{alpha+1}
    coords = (phis @ change).entries
    block_inverses = []
    for alpha in range(n):
        block = QMatrix([row[alpha * r : (alpha + 1) * r] for row in coords])
        try:
            block_inverses.append(block.inverse())
        except RncGeomError:
            raise not_spanning(alpha + 1) from None
    m_rows = [
        combine_rows(row[alpha * r : (alpha + 1) * r], annihilators[1 + alpha])
        for row in coords
        for alpha in range(n)
    ]
    # entry j*n + alpha of row k of m^-1 is sum_i change[k][alpha*r + i] C_alpha^-1[i][j]
    inverse_rows = []
    for row in change.entries:
        parts = [
            combine_rows(row[alpha * r : (alpha + 1) * r], block_inverses[alpha])
            for alpha in range(n)
        ]
        inverse_rows.append([parts[alpha][j] for j in range(r) for alpha in range(n)])
    structure = TensorStructure(r, n, QMatrix(m_rows))
    vars(structure)["m_inverse"] = QMatrix(inverse_rows)  # seeds the cached property
    return structure


def is_type_subspace(structure: TensorStructure, subspace_rows) -> Optional[tuple]:
    """Parameter [t_1 : ... : t_n] of a type-(r, n-1) subspace, if it is one.

    The subspace is given by a basis of rn - r vectors.  Its annihilator
    is expressed in the distinguished dual basis and must be spanned by
    rank-one coefficient matrices u t^T with a common row direction t.
    The kernel is the only elimination: the u's of a basis are
    independent by themselves, since the annihilator basis is, m^-1 is
    invertible and u -> u t^T is injective for t != 0.
    """
    r, n = structure.r, structure.n
    ann = nullspace(subspace_rows, r * n)
    if len(ann) != r:
        raise DimensionMismatchError("subspace must have codimension r")
    minv = structure.m_inverse
    rows = [
        coords[j * n : (j + 1) * n]
        for coords in (combine_rows(psi, minv) for psi in ann)
        for j in range(r)
    ]
    # the coordinates of a nonzero psi are nonzero, so t exists
    t = next(row for row in rows if any(row))
    pivot = next(i for i, x in enumerate(t) if x != 0)
    # every row must be the multiple u_j t of t its pivot entry predicts
    for row in rows:
        if any(x * t[pivot] != row[pivot] * y for x, y in zip(row, t)):
            return None
    return tuple(x / t[pivot] for x in t)


def grn_relation(sa: TensorStructure, sb: TensorStructure) -> Optional[tuple]:
    """Kronecker factorization of the transition between two dual bases.

    Returns (C, A) with sb.m = (C (x) A) sa.m when the transition matrix
    has the block rank-one structure of the group G_{r,n}; None otherwise.
    The factors are normalized so the first nonzero entry of A is 1.
    """
    r, n = sa.r, sa.n
    if (r, n) != (sb.r, sb.n):
        raise DimensionMismatchError("structures disagree on (r, n)")
    if sa.m.nrows != r * n or sb.m.nrows != r * n:
        raise DimensionMismatchError("matrix size is not rn")
    transition = (sb.m @ sa.m_inverse).entries
    # block (j, k) of the transition, flattened row by row
    flat = {
        (j, k): [
            transition[j * n + alpha][k * n + beta]
            for alpha in range(n)
            for beta in range(n)
        ]
        for j in range(r)
        for k in range(r)
    }
    a_flat = next((values for values in flat.values() if any(values)), None)
    if a_flat is None:
        return None
    pivot = next(i for i, x in enumerate(a_flat) if x != 0)
    scale = a_flat[pivot]
    a_flat = [x / scale for x in a_flat]
    c_entries = [[Fraction(0)] * r for _ in range(r)]
    for (j, k), values in flat.items():
        coeff = values[pivot]
        if any(values[i] != coeff * a_flat[i] for i in range(n * n)):
            return None
        c_entries[j][k] = coeff
    a = QMatrix([a_flat[i * n : (i + 1) * n] for i in range(n)])
    c = QMatrix(c_entries)
    if not a.is_invertible() or not c.is_invertible():
        return None
    return c, a
