"""Osculating spaces of parametrized varieties and their projections.

A parametrization carries the N+1 homogeneous components of a rational
map ``C^d -> P^N``; affine charts are the special case with leading
component 1.  The osculating space of order k at a parameter point is
the projective span of all partial derivatives of the lifted map up to
order k, which is independent of the lift because the derivative arrays
are triangular against each other.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from . import sampling
from .errors import (
    DegenerateCurveError,
    DegenerateParametrizationError,
    DimensionMismatchError,
    GeneralPositionError,
)
from .linalg import (
    LinearProjection,
    ProjSubspace,
    _kernel_ints,
    integer_rank,
    projection_from,
    rank,
    span_of,
    try_direct_sum,
)
from .poly import (
    Polynomial,
    RationalCurve,
    _combine_ints,
    clear_denominators,
    compositions,
    curve_from_lists,
    curve_normalize,
)

_ZERO = Fraction(0)


class Parametrization:
    """Rational map C^d -> P^N with polynomial homogeneous components.

    A map is either given by its components, or it is the image of a
    parent map under a linear projection (built by
    ``osculating_projection_map``), which reads the parent through the
    projection matrix and builds its own components only when they are
    read.  Every value of either kind comes from ``_values``.
    """

    __slots__ = ("nparams", "_components", "_image_of", "_span", "_partials", "_compiled")

    def __init__(self, nparams: int, components: Sequence[Polynomial], check=True):
        comps = tuple(components)
        if not comps:
            raise DimensionMismatchError("no components")
        for c in comps:
            if c.nvars != nparams:
                raise DimensionMismatchError("component variable count mismatch")
        self.nparams = nparams
        self._components = comps
        self._image_of = None
        self._span = None
        self._partials = [{(0,) * nparams: comps}]
        self._compiled = []
        if check:
            self._check_generic_rank()

    @classmethod
    def _projected(cls, parent: "Parametrization", proj: LinearProjection):
        """The image of ``parent`` under ``proj``, with its generic rank checked.

        Besides the pair, it keeps the nonzero entries of each integer row
        of the projection, so that a value is a sparse dot product over Z.
        """
        sparse = [[(j, m) for j, m in enumerate(row) if m] for row in proj.rows]
        out = cls.__new__(cls)
        out.nparams = parent.nparams
        out._components = None
        out._image_of = (parent, proj, sparse)
        out._span = out._partials = out._compiled = None
        out._check_generic_rank()
        return out

    @classmethod
    def from_affine(cls, nparams: int, affine_components):
        """Chart x = v(t) embedded projectively as [1 : v(t)]."""
        comps = [Polynomial.one(nparams)] + list(affine_components)
        return cls(nparams, comps)

    @property
    def components(self) -> tuple:
        if self._components is None:
            parent, proj = self._image_of[:2]
            self._components = tuple(proj.apply_polys(list(parent.components)))
        return self._components

    @property
    def ambient_dim(self) -> int:
        if self._image_of is not None:
            return self._image_of[1].target_dim
        return len(self._components) - 1

    def eval(self, point) -> tuple:
        rows, den = self._values(_cleared(self, point), 0)
        return tuple(Fraction(x, den) if x else _ZERO for x in rows[0])

    def _values(self, cleared, k: int) -> tuple:
        """``(rows, den)``: the order-k partials at a cleared point, one
        integer row per derivative multi-index, each value over ``den``.

        ``cleared`` is ``clear_denominators`` of the point.  A map given by
        its components compiles each of its partial layers once (see
        ``_compile``); an image multiplies its parent's rows by the matrix.
        """
        if self._image_of is not None:
            parent, proj, sparse = self._image_of
            rows, parent_den = parent._values(cleared, k)
            images = [[sum(m * row[j] for j, m in mrow) for mrow in sparse] for row in rows]
            return images, parent_den * proj.den
        while len(self._compiled) <= k:
            self._compiled.append(_compile(self._partial_layer(len(self._compiled))))
        return _eval_compiled(self._compiled[k], cleared)

    def _check_generic_rank(self):
        """The rank of the order-0 and order-1 rows at a random point that
        is no base point must be nparams + 1, as in a regular order-1
        osculator; the rows are ranked as integers, with no subspace built."""
        rng = random.Random(0xA11CE)
        for _ in range(sampling.MAX_RETRIES):
            orders = _rows_by_order(self, sampling.rand_vector(rng, self.nparams))
            try:
                rows = next(orders)
            except DegenerateParametrizationError:
                continue  # a base point of the map
            if rank(rows + next(orders), self.ambient_dim + 1) == self.nparams + 1:
                return
        raise DegenerateParametrizationError(
            "map does not have generic rank equal to its parameter count"
        )

    def span(self) -> ProjSubspace:
        """Projective span of the image.

        For a map given by its components, the row space of their
        coefficient matrix.  For an image, the parent's span under the
        projection matrix: the whole target when the parent spans its whole
        ambient, since the matrix has an identity block on the complement.
        """
        if self._span is None:
            if self._image_of is not None:
                parent, proj = self._image_of[:2]
                whole = parent.span()
                if whole.dim < parent.ambient_dim:
                    self._span = proj.image_of(whole)
                else:
                    n = self.ambient_dim + 1
                    self._span = span_of([[int(i == j) for j in range(n)] for i in range(n)])
            else:
                monomials = sorted({e for c in self._components for e, _ in c.items()})
                rows = [[c.coefficient(m) for c in self._components] for m in monomials]
                self._span = span_of(rows, self.ambient_dim)
        return self._span

    def _partial_layer(self, k: int) -> dict:
        """The order-k partials of the components, keyed by derivative multi-index.

        Each order-k partial is one more derivative of an order-(k-1) one;
        the layers are kept, so every partial is taken once per map.
        """
        layers = self._partials
        while len(layers) <= k:
            below, layer = layers[-1], {}
            for orders in compositions(len(layers), self.nparams):
                i = next(j for j, o in enumerate(orders) if o)
                step = tuple(int(j == i) for j in range(self.nparams))
                lower = orders[:i] + (orders[i] - 1,) + orders[i + 1 :]
                layer[orders] = tuple(c.partial(step) for c in below[lower])
            layers.append(layer)
        return layers[k]

    @classmethod
    def from_curve(cls, curve: RationalCurve) -> "Parametrization":
        return cls(1, curve.components, check=False)


def _cleared(v: Parametrization, point) -> tuple:
    """``clear_denominators`` of a parameter point of ``v``."""
    point = tuple(point)
    if len(point) != v.nparams:
        raise DimensionMismatchError(
            f"point length {len(point)} != {v.nparams} parameters"
        )
    return clear_denominators(point)


def _compile(layer: dict) -> tuple:
    """A partial layer as ``(den, top, monomials, rows)`` over Z.

    ``den`` is the lcm of the layer's coefficient denominators and ``top``
    its largest total degree; ``monomials`` lists each exponent e that
    occurs with top - |e|, and ``rows`` holds, per multi-index and per
    component, the pairs (den * coefficient, monomial index).
    """
    terms = [[c.items() for c in comps] for comps in layer.values()]
    flat = [t for row in terms for c in row for t in c]
    den = math.lcm(*(x.denominator for _, x in flat))
    top = max((sum(e) for e, _ in flat), default=0)
    index = {}
    rows = [
        [[(x.numerator * (den // x.denominator), index.setdefault(e, len(index))) for e, x in c]
         for c in row]
        for row in terms
    ]
    return den, top, [(e, top - sum(e)) for e in index], rows


def _eval_compiled(compiled: tuple, cleared) -> tuple:
    """``(rows, den)`` of a compiled layer at a point cleared to a / L.

    A monomial x^e is a^e L^(top - |e|) over L^top, read from one table of
    powers of each a_i and of L; each output is one integer over den L^top.
    """
    den, top, monomials, rows = compiled
    nums, lcd = cleared
    lpow = [lcd**j for j in range(top + 1)]
    table = [[a**j for j in range(top + 1)] for a in nums]
    values = [
        math.prod([col[j] for col, j in zip(table, e)], start=lpow[rest])
        for e, rest in monomials
    ]
    out = [[sum(c * values[i] for c, i in comp) for comp in comps] for comps in rows]
    return out, den * lpow[top]


@dataclass
class OsculatorReport:
    """Order-k osculating space with the regularity verdict."""

    order: int
    subspace: ProjSubspace
    is_regular: bool
    expected_dim_plus_1: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "dim": self.subspace.dim,
            "regular": self.is_regular,
            "expected_dim_plus_1": self.expected_dim_plus_1,
        }


def _rows_by_order(v: Parametrization, point):
    """Yield, for k = 0, 1, 2, ..., the rows at the point of the order-k partials.

    The rows are those of ``Parametrization._values``: each layer's values
    times one positive integer, which changes no span.  The order-0 layer
    raises at a base point of the map.
    """
    cleared = _cleared(v, point)
    for k in itertools.count():
        rows = v._values(cleared, k)[0]
        if k == 0 and not any(rows[0]):
            raise DegenerateParametrizationError("base point of the parametrization")
        yield rows


def _osculator_rows(v: Parametrization, point, k: int) -> list:
    """The integer rows of orders 0..k at the point, which span the order-k
    osculator."""
    if k < 0:
        raise ValueError("order must be non-negative")
    orders = _rows_by_order(v, point)
    rows = next(orders)
    for order_rows in itertools.islice(orders, k):
        rows.extend(order_rows)
    return rows


def osculator(v: Parametrization, point, k: int) -> OsculatorReport:
    """Osculating space of order k at a parameter point.

    Spanned by the lifted point and all derivative vectors of order
    1..k; regular when the projective dimension reaches C(d+k, d) - 1.
    """
    sub = span_of(_osculator_rows(v, point, k), v.ambient_dim)
    expected = math.comb(v.nparams + k, v.nparams)
    return OsculatorReport(k, sub, sub.dim + 1 == expected, expected)


def regularity_order(v: Parametrization, point) -> int:
    """Largest k such that the map is k-regular at the point.

    k-regular: the C(d+k, d) integer rows of orders 0..k, which span the
    order-k osculator, have full rank.  Past N+1 rows they cannot and are
    not built; below, ``integer_rank`` certifies full rank modulo a prime.
    """
    orders = _rows_by_order(v, point)
    rows = next(orders)
    for k in itertools.count(1):
        if math.comb(v.nparams + k, v.nparams) > v.ambient_dim + 1:
            return k - 1
        rows.extend(next(orders))
        if integer_rank(rows, v.ambient_dim + 1) != len(rows):
            return k - 1


@dataclass
class AdmissibilityReport:
    ok: bool
    assignments_tested: int
    failure: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "assignments_tested": self.assignments_tested,
            "failure": self.failure,
        }


def _distinct_permutations(values):
    """The distinct orderings of a two-valued tuple, sorted: one per choice
    of the places of its larger value, C(len, count) of them."""
    low, high, size = min(values), max(values), len(values)
    places = itertools.combinations(range(size), values.count(high))
    return sorted(tuple(high if i in p else low for i in range(size)) for p in places)


def admissibility_check(
    v: Parametrization,
    points: Sequence,
    weights: Sequence[int],
) -> AdmissibilityReport:
    """Direct-sum admissibility test for an n-tuple of parameter points.

    ``weights`` is the pondération (rho_1..rho_{n-1}); its multiset must
    match the shifted Euclidean division of q = sum(rho_i + 1) - 1 by
    n - 1.  Every choice of an omitted point and of a weight assignment
    to the rest (all of them for n <= 5 or up to 40 choices, otherwise 40
    drawn with random.Random(0)) must give regular osculators in
    projective direct sum equal to the span of the variety.

    This certifies the direct-sum condition at the given points only; it
    does not (and cannot, pointwise) certify that admissible tuples form
    a dense open set.
    """
    n = len(points)
    if len(weights) != n - 1:
        raise DimensionMismatchError("need one weight per point but one")
    q = sum(w + 1 for w in weights) - 1
    rho, m = q // (n - 1), q % (n - 1) + 1
    expected = sorted([rho] * m + [rho - 1] * (n - 1 - m))
    if sorted(weights) != expected:
        raise ValueError(
            f"weight multiset {sorted(weights)} differs from pondération {expected}"
        )
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len({p for p in pts}) != n:
        return AdmissibilityReport(False, 0, "repeated points")

    ambient = v.span()

    @cache
    def osc(i, order):
        return osculator(v, pts[i], order)

    assignments = []
    perms = _distinct_permutations(tuple(weights))
    for omitted in range(n):
        kept = [i for i in range(n) if i != omitted]
        for perm in perms:
            assignments.append(tuple(zip(kept, perm)))
    if len(assignments) > 40 and n > 5:
        assignments = random.Random(0).sample(assignments, 40)

    tested = 0
    for assignment in assignments:
        tested += 1
        parts = []
        for i, order in assignment:
            rep = osc(i, order)
            if not rep.is_regular:
                return AdmissibilityReport(
                    False,
                    tested,
                    f"osculator at point {i} order {order} not regular "
                    f"(dim {rep.subspace.dim})",
                )
            parts.append(rep.subspace)
        ok, joined, expected_dim = try_direct_sum(parts)
        if not ok or joined != ambient:
            return AdmissibilityReport(
                False,
                tested,
                f"assignment {assignment}: join dim {joined.dim}, "
                f"expected {expected_dim} = span dim {ambient.dim}",
            )
    return AdmissibilityReport(True, tested)


def osculating_projection_map(v: Parametrization, centers):
    """Projection from a direct sum of osculators, with the composed map.

    ``centers`` is a list of (parameter point, order) pairs.  Returns
    ``(projection, image)``; the center subspaces must be in projective
    direct sum, and the composed map lands in the coordinate complement
    of the center.  One kernel of the osculators' stacked integer rows is
    the projection; the parts are in direct sum when their ranks add up.
    """
    n = v.ambient_dim + 1
    parts = [_osculator_rows(v, p, k) for p, k in centers]
    forms, den = _kernel_ints([row for rows in parts for row in rows], n)
    dim, expected = n - len(forms) - 1, sum(integer_rank(rows, n) for rows in parts) - 1
    if dim != expected:
        raise GeneralPositionError(f"osculators not in direct sum (dim {dim} < {expected})")
    proj = LinearProjection(forms, den)
    return proj, Parametrization._projected(v, proj)


def osculating_projection(v: Parametrization, centers) -> Parametrization:
    """Image of the variety under the projection from its osculators."""
    return osculating_projection_map(v, centers)[1]


def project_curve(proj: LinearProjection, curve: RationalCurve) -> RationalCurve:
    """Image of a curve under a linear projection, in normalized form.

    The image lists are the projection's integer rows times the curve's
    integer lists.  The image keeps the curve's parameter pairs: the
    parameter does not change.  A center that contains the curve's span
    leaves no image and raises DegenerateCurveError.
    """
    lists = curve.integer_lists()
    if len(lists) != len(proj.rows[0]):
        raise DimensionMismatchError("curve ambient differs from the projection's")
    return curve_from_lists([_combine_ints(row, lists) for row in proj.rows], curve.params)


def curve_projection_check(curve: RationalCurve, t0, k: int) -> bool:
    """Projection of a curve from one of its own points.

    Checks the chart computation: the image of the curve from the point
    a = c(t0) extends through a' = (tangent line at a) cap (target), is
    k-regular there, and its order-k osculator is the image of the
    order-(k+1) osculator of the original curve.  Requires the curve to
    be (k+1)-regular at t0.
    """
    t0 = Fraction(t0)
    curve = curve_normalize(curve)
    wrapped = Parametrization.from_curve(curve)
    rep = osculator(wrapped, (t0,), k + 1)
    if not rep.is_regular:
        raise DegenerateCurveError(
            f"curve is not {k + 1}-regular at t = {t0}"
        )
    point_vec = curve.eval(t0)
    center = span_of([point_vec], curve.ambient_dim)
    proj = projection_from(center)
    image = project_curve(proj, curve)

    # extension through a' = image of the tangent direction
    tangent = osculator(wrapped, (t0,), 1).subspace
    a_prime = proj.image_of(tangent)
    value = image.eval(t0)
    if all(x == 0 for x in value):
        return False
    if span_of([value], image.ambient_dim) != a_prime:
        return False

    if k == 0:
        # a projected line degenerates to the constant map a'
        return True

    image_osc = osculator(Parametrization.from_curve(image), (t0,), k)
    pushed = proj.image_of(rep.subspace)
    return image_osc.subspace == pushed and image_osc.subspace.dim == k


# ---------------------------------------------------------------------------
# contact loci of monomial coordinate systems
# ---------------------------------------------------------------------------


def min_hitting_set(supports) -> int:
    """Size of a minimum hitting set, by exact branch and bound.

    Branches on the variables of an uncovered support of minimal size;
    instances here have at most a handful of variables.
    """
    supports = [frozenset(s) for s in supports]
    if any(not s for s in supports):
        raise ValueError("empty support cannot be hit")
    best = [len(frozenset().union(*supports))] if supports else [0]

    def search(remaining, chosen):
        if not remaining:
            best[0] = min(best[0], chosen)
            return
        if chosen + 1 >= best[0]:
            return
        pivot = min(remaining, key=len)
        for var in sorted(pivot):
            rest = [s for s in remaining if var not in s]
            search(rest, chosen + 1)

    search(supports, 0)
    return best[0]


def contact_locus_dim_monomial(indices, nvars: int, k: int) -> int:
    """Dimension of the contact locus of a monomial chart at the origin.

    The locus where all chart monomials of total degree >= k+1 vanish is a
    union of coordinate subspaces; its dimension is nvars minus a minimum
    hitting set of the monomial supports.
    """
    supports = []
    for idx in indices:
        idx = tuple(idx)
        if len(idx) != nvars:
            raise DimensionMismatchError("index length mismatch")
        if sum(idx) >= k + 1:
            supports.append(frozenset(i for i, e in enumerate(idx) if e > 0))
    if not supports:
        return nvars
    return nvars - min_hitting_set(supports)
