"""Tensor (G_{r,n}) vector structures on a dimension-rn space.

A structure is stored through its distinguished dual basis, the rn
functionals m_{j,alpha} laid out as the rows of an invertible matrix
with row index j*n + alpha.  Two bases define the same structure exactly
when their transition matrix factors as a Kronecker product C (x) A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import DimensionMismatchError, GeneralPositionError, RncGeomError
from .linalg import QMatrix, _accumulate, _inverse_ints, _kernel_ints, combine_rows, nullspace
from .poly import primitive_part
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
        if not any(t):
            raise DimensionMismatchError("parameter must be nonzero")
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
        if not any(u):
            raise DimensionMismatchError("parameter must be nonzero")
        # row alpha of the basis is sum_j u_j m_{j,alpha}
        return [
            combine_rows([x if k == alpha else 0 for x in u for k in range(self.n)], self.m)
            for alpha in range(self.n)
        ]


# The latest frame that _frame built, as (rows, frame): the snapshot of
# its input rows and what _frame returned for them.
_last_frame = None


def _not_spanning(omitted: int, n: int) -> GeneralPositionError:
    witness = tuple(i for i in range(n + 1) if i != omitted)
    return GeneralPositionError(f"annihilators {witness} do not span the dual", witness=witness)


def _frame(subspaces: Sequence, r: int, dim: int) -> tuple:
    """The half of ``construct_structure`` that depends on its input alone.

    Returns ``(kernels, annihilators, adj, den_s)``: the integer kernel
    ``(vectors, den)`` of each F_i, checked for codimension r; those of
    F_1..F_n made primitive, row by row; and S^-1 = adj / den_S for their
    stack S.  The latest frame is kept, keyed by a snapshot of the rows
    compared by value, so a remixed construction on the same subspaces
    and the type checks of those subspaces eliminate nothing again.  A
    frame that raises is not kept, and a kept one is never mutated.
    """
    global _last_frame
    rows = tuple(tuple(map(tuple, sub)) for sub in subspaces)
    last = _last_frame
    if last is not None and last[0] == rows:
        return last[1]
    kernels = []
    for idx, sub in enumerate(rows):
        kernel = _kernel_ints(sub, dim)
        if len(kernel[0]) != r:
            raise DimensionMismatchError(f"subspace {idx} does not have codimension r={r}")
        kernels.append(kernel)
    annihilators = [[primitive_part(v) for v in ann] for ann, _ in kernels[1:]]
    try:
        adj, den_s = _inverse_ints([row for ann in annihilators for row in ann])
    except RncGeomError:
        raise _not_spanning(0, len(rows) - 1) from None
    frame = kernels, annihilators, adj, den_s
    _last_frame = rows, frame
    return frame


def _frame_kernel(rows, dim: int) -> tuple:
    """``_kernel_ints(rows, dim)``, read from the latest frame when it holds these rows."""
    last = _last_frame
    if last is not None:
        rows = tuple(map(tuple, rows))
        subs, (kernels, *_) = last
        for sub, kernel in zip(subs, kernels):
            if sub == rows and len(sub[0]) == dim:
                return kernel
    return _kernel_ints(rows, dim)


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

    Everything runs on integer rows, and Fractions are built only for m
    and m^-1.  The phis are F_0's kernel vectors over their denominator
    ``den_phi``.  The rows of S are the other kernels made primitive: m
    does not depend on the bases of those annihilators, and primitive
    rows keep the minors, and so the denominators, small.  With
    S^-1 = adj / den_S, the coordinates are the integer rows phi adj over
    den_phi den_S.  Each block row is divided by its content g_j before
    the block is inverted, which scales column j of the inverse by 1/g_j.

    The kernels and S^-1 come from ``_frame``, which keeps those of the
    latest input.  A second call on the same rows, such as a remix,
    reuses them and computes only its blocks, m and m^-1.
    """
    count = len(subspaces)
    if count < 3:
        raise DimensionMismatchError("need n+1 >= 3 subspaces")
    n = count - 1
    for idx, sub in enumerate(subspaces):
        if not len(sub):
            raise DimensionMismatchError(f"subspace {idx} has an empty basis")
    dim = len(subspaces[0][0])
    if not dim:
        raise DimensionMismatchError("ambient dimension must be positive")
    if dim % n:
        raise DimensionMismatchError(f"ambient dimension {dim} not divisible by n={n}")
    r = dim // n

    kernels, annihilators, adj, den_s = _frame(subspaces, r, dim)
    phis, den_phi = kernels[0]

    if rng is not None:
        mix, mix_den = rand_invertible_matrix(rng, r).cleared
        phis = [_accumulate(row, phis, dim) for row in mix]
        den_phi *= mix_den

    # coordinates of phi_j in the basis of the sum of the annihilators of
    # F_1..F_n, over den_phi den_s; row j*n + alpha of m is the component
    # of phi_j along that of F_{alpha+1}
    coords = [_accumulate(phi, adj, dim) for phi in phis]
    block_inverses = []
    for alpha in range(n):
        block = [row[alpha * r : (alpha + 1) * r] for row in coords]
        contents = [math.gcd(*row) or 1 for row in block]
        try:
            ints, den_b = _inverse_ints(
                [[x // g for x in row] for row, g in zip(block, contents)]
            )
        except RncGeomError:
            raise _not_spanning(alpha + 1, n) from None
        block_inverses.append((ints, [den_b * g for g in contents]))
    den_m = den_phi * den_s
    m_rows = [
        [Fraction(x, den_m) for x in _accumulate(row[alpha * r : (alpha + 1) * r], ann, dim)]
        for row in coords
        for alpha, ann in enumerate(annihilators)
    ]
    # entry j*n + alpha of row k of m^-1 is sum_i S^-1[k][alpha*r + i] C_alpha^-1[i][j],
    # with C_alpha^-1[i][j] = den_phi den_s ints[i][j] / (den_b g_j)
    inverse_rows = []
    for row in adj:
        parts = [
            [
                Fraction(den_phi * x, d)
                for x, d in zip(_accumulate(row[alpha * r : (alpha + 1) * r], ints, r), dens)
            ]
            for alpha, (ints, dens) in enumerate(block_inverses)
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
    invertible and u -> u t^T is injective for t != 0.  The test is
    scale-free, so it runs on the integer kernel vectors against the
    cleared m^-1.  A subspace of the latest frame that ``construct_structure``
    built, with rows equal by value, reuses its kernel and eliminates nothing.
    """
    r, n = structure.r, structure.n
    dim = r * n
    ann, _ = _frame_kernel(subspace_rows, dim)
    if len(ann) != r:
        raise DimensionMismatchError("subspace must have codimension r")
    minv, _ = structure.m_inverse.cleared
    rows = [
        coords[j * n : (j + 1) * n]
        for coords in (_accumulate(psi, minv, dim) for psi in ann)
        for j in range(r)
    ]
    # the coordinates of a nonzero psi are nonzero, so t exists
    t = next(row for row in rows if any(row))
    pivot = next(i for i, x in enumerate(t) if x != 0)
    # every row must be the multiple u_j t of t its pivot entry predicts
    for row in rows:
        if any(x * t[pivot] != row[pivot] * y for x, y in zip(row, t)):
            return None
    return tuple(Fraction(x, t[pivot]) for x in t)


def grn_relation(sa: TensorStructure, sb: TensorStructure) -> Optional[tuple]:
    """Kronecker factorization of the transition between two dual bases.

    Returns (C, A) with sb.m = (C (x) A) sa.m when the transition matrix
    has the block rank-one structure of the group G_{r,n}; None otherwise.
    The factors are normalized so the first nonzero entry of A is 1.  The
    transition is taken over Z, from the cleared forms of sb.m and
    sa.m^-1, over the product of their denominators.
    """
    r, n = sa.r, sa.n
    if (r, n) != (sb.r, sb.n):
        raise DimensionMismatchError("structures disagree on (r, n)")
    dim = r * n
    if sa.m.nrows != dim or sb.m.nrows != dim:
        raise DimensionMismatchError("matrix size is not rn")
    m_b, den_b = sb.m.cleared
    minv_a, den_a = sa.m_inverse.cleared
    transition = [_accumulate(row, minv_a, dim) for row in m_b]
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
    den = den_a * den_b
    c_entries = [[Fraction(0)] * r for _ in range(r)]
    for (j, k), values in flat.items():
        coeff = values[pivot]
        if any(x * scale != coeff * y for x, y in zip(values, a_flat)):
            return None
        c_entries[j][k] = Fraction(coeff, den)
    a = QMatrix([[Fraction(x, scale) for x in a_flat[i * n : (i + 1) * n]] for i in range(n)])
    c = QMatrix(c_entries)
    if not a.is_invertible() or not c.is_invertible():
        return None
    return c, a
