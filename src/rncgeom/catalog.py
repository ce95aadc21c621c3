"""Closed-form dimension formulas and constructors for every variety family.

Each family is one small frozen spec class, listed in ``FAMILIES``: its
fields round trip through the JSON document format ``{"family": ...,
"params": {...}}`` shared by the CLI and the verification reports, and
its methods hold its chart, the sampler and fitter of its curves through
points and, for four families, its specialness witness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import (
    DimensionMismatchError,
    GeneralPositionError,
    GenericityError,
    InvariantError,
    SpecError,
    SplittingFieldRequiredError,
)
from .linalg import _accumulate, _kernel_ints, integer_rank, rref
from .osculation import Parametrization, contact_locus_dim_monomial, regularity_order
from .poly import (
    Polynomial,
    RationalCurve,
    _combine_ints,
    _power_product_ints,
    clear_denominators,
    compositions,
    curve_from_lists,
    grlex_key,
    power_product,
    projective_compose,
)
from .rnc import (
    _is_multiple,
    _products_but_one,
    conic_on_quadric,
    fit_scroll_section,
    rnc_through_points,
)
from .sampling import (
    rand_distinct_points,
    rand_points,
    rand_points_distinct_first_coord,
    rand_rational,
)


def binom(a: int, b: int) -> int:
    """Binomial coefficient, zero outside the usual range."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


# ---------------------------------------------------------------------------
# class parameters and index sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassParams:
    """The triple (r, n, q) with its shifted Euclidean division of q.

    q = rho (n-1) + m - 1 with m in {1..n-1}; chi = m - 1 is the other
    normalization used by the classification.
    """

    r: int
    n: int
    q: int

    def __post_init__(self):
        if self.r < 1 or self.n < 2 or self.q < self.n - 1:
            raise SpecError(f"invalid class parameters {(self.r, self.n, self.q)}")

    @property
    def rho(self) -> int:
        return self.q // (self.n - 1)

    @property
    def m(self) -> int:
        return self.q % (self.n - 1) + 1

    @property
    def chi(self) -> int:
        return self.m - 1

    def alternate_branch(self) -> Optional[tuple]:
        """(rho+1, -1) when q = -1 mod n-1 and it stays in range."""
        if self.m == self.n - 1:
            return (self.rho + 1, -1)
        return None


def pi_formula(params: ClassParams) -> int:
    """Maximal span dimension of a variety of the class (r, n, q)."""
    r, rho, m, n = params.r, params.rho, params.m, params.n
    return m * binom(r + rho + 1, r + 1) + (n - 1 - m) * binom(r + rho, r + 1) - 1


def pi(r: int, n: int, q: int) -> int:
    return pi_formula(ClassParams(r, n, q))


def castelnuovo_bound(r: int, n: int, d: int) -> int:
    """Castelnuovo-Harris bound on the corrected geometric genus.

    Uses the shifted division d - 1 = sigma (n-1) + m with m in {1..n-1}.
    """
    if d < 1:
        raise SpecError("degree must be >= 1")
    m = (d - 2) % (n - 1) + 1
    sigma = (d - 1 - m) // (n - 1)
    return m * binom(sigma + 1, r + 1) + (n - 1 - m) * binom(sigma, r + 1)


def ponderation(params: ClassParams) -> tuple:
    """Weight vector (rho-1, ..., rho-1, rho, ..., rho) of length n-1."""
    return tuple(
        [params.rho - 1] * (params.n - 1 - params.m) + [params.rho] * params.m
    )


@dataclass(frozen=True)
class ScrollSpec:
    """Non-increasing degree vector (a_0, ..., a_r) of a rational normal scroll."""

    degrees: tuple

    def __post_init__(self):
        degs = tuple(int(a) for a in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if not degs or any(a < 0 for a in degs):
            raise SpecError(f"invalid scroll degrees {degs}")
        if any(degs[i] < degs[i + 1] for i in range(len(degs) - 1)):
            raise SpecError(f"scroll degrees must be non-increasing: {degs}")
        if sum(degs) < 1:
            raise SpecError("scroll degrees must sum to at least 1")

    @property
    def r(self) -> int:
        return len(self.degrees) - 1

    @property
    def n(self) -> int:
        return sum(self.degrees) + 1

    @property
    def is_cone(self) -> bool:
        return self.degrees[0] == self.n - 1


class IndexSet:
    """Finite set of nonzero multi-indices defining a monomial variety."""

    __slots__ = ("nvars", "indices")

    def __init__(self, nvars: int, indices):
        idx = frozenset(tuple(int(e) for e in i) for i in indices)
        for i in idx:
            if len(i) != nvars:
                raise SpecError(f"index {i} has wrong length")
            if any(e < 0 for e in i):
                raise SpecError(f"negative entry in {i}")
            if all(e == 0 for e in i):
                raise SpecError("zero index not allowed")
        self.nvars = nvars
        self.indices = idx

    def sorted_indices(self) -> list:
        return sorted(self.indices, key=grlex_key)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.sorted_indices())

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.nvars == other.nvars and self.indices == other.indices

    def is_downward_closed(self) -> bool:
        for idx in self.indices:
            for j in range(self.nvars):
                if idx[j] > 0:
                    lower = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
                    if any(lower) and lower not in self.indices:
                        return False
        return True

    def is_degree_one_complete(self) -> bool:
        for j in range(self.nvars):
            unit = tuple(1 if i == j else 0 for i in range(self.nvars))
            if unit not in self.indices:
                return False
        return True


def I_formula(a: ScrollSpec, rho: int, chi: int) -> int:
    """Dimension count sum((alpha . a + chi + 1)^+) over |alpha| = rho.

    For chi >= -1 this equals card A(rho, chi) + 1 and only depends on
    sum(a); for chi < -1 it genuinely depends on the degree vector.
    """
    if rho < 1:
        raise SpecError("rho must be >= 1")
    degs = a.degrees
    total = 0
    for alpha in compositions(rho, len(degs)):
        value = sum(x * d for x, d in zip(alpha, degs)) + chi + 1
        if value > 0:
            total += value
    return total


def build_A(a: ScrollSpec, rho: int, chi: int) -> IndexSet:
    """Index set A(rho, chi) of the monomial model over the scroll ``a``.

    Entries (k, alpha) with |alpha| <= rho and
    k <= (rho - |alpha|) a_0 + sum(alpha_j a_j) + chi.
    """
    n = a.n
    r = a.r
    if rho < 1 or not (-1 <= chi <= n - 2):
        raise SpecError(f"parameters (rho, chi) = {(rho, chi)} out of range")
    if rho * (n - 1) + chi < n - 1:
        raise SpecError("q = rho (n-1) + chi must be at least n-1")
    a0 = a.degrees[0]
    rest = a.degrees[1:]
    out = []
    for total in range(rho + 1):
        for alpha in compositions(total, r):
            bound = (rho - total) * a0 + sum(x * d for x, d in zip(alpha, rest)) + chi
            for k in range(0, bound + 1):
                idx = (k,) + tuple(alpha)
                if any(idx):
                    out.append(idx)
    return IndexSet(r + 1, out)


def build_A_cone(r: int, q: int) -> IndexSet:
    """Index set of the standard model over the cone on a Veronese surface.

    Entries (i, j, alpha) in N^2 x N^{r-1} with 1 <= 2(i+j) + 4|alpha| <= q,
    defined for even q >= 4.
    """
    if r < 1:
        raise SpecError("r must be >= 1")
    if q < 4 or q % 2:
        raise SpecError("q must be an even integer >= 4")
    out = []
    for i in range(q // 2 + 1):
        for j in range(q // 2 + 1):
            rem = q - 2 * (i + j)
            if rem < 0:
                continue
            for total in range(rem // 4 + 1):
                for alpha in compositions(total, r - 1):
                    weight = 2 * (i + j) + 4 * total
                    if 1 <= weight <= q:
                        out.append((i, j) + tuple(alpha))
    return IndexSet(r + 1, out)


# ---------------------------------------------------------------------------
# quadratic forms in hyperbolic normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """Rank-k quadratic form on ``nvars`` variables in hyperbolic normal form.

    Pairs x_1 x_2 + x_3 x_4 + ... plus a final square when the rank is
    odd.  Over C the rank classifies quadrics, and this presentation has
    the rational points needed for exact parametrizations.
    """

    rank: int
    nvars: int

    def __post_init__(self):
        if self.rank < 0 or self.rank > self.nvars:
            raise SpecError(f"rank {self.rank} out of range for {self.nvars} variables")

    def poly(self) -> Polynomial:
        p = Polynomial.zero(self.nvars)
        for i in range(self.rank // 2):
            e = [0] * self.nvars
            e[2 * i] = 1
            e[2 * i + 1] = 1
            p = p + Polynomial.monomial(self.nvars, e)
        if self.rank % 2:
            e = [0] * self.nvars
            e[self.rank - 1] = 2
            p = p + Polynomial.monomial(self.nvars, e)
        return p

    def _check_lengths(self, *points):
        for point in points:
            if len(point) != self.nvars:
                raise DimensionMismatchError(f"point length {len(point)} != {self.nvars} variables")

    def eval(self, point) -> int | Fraction:
        """The value of ``poly()`` at a point, read off the normal form, in the point's type."""
        self._check_lengths(point)
        total = 0 * sum(point[:1])  # the zero of the point's type
        for i in range(self.rank // 2):
            total += point[2 * i] * point[2 * i + 1]
        if self.rank % 2:
            total += point[self.rank - 1] ** 2
        return total

    def polar(self, u, v) -> int | Fraction:
        """The polar form q(u + v) - q(u) - q(v), read off the normal form: no halves."""
        self._check_lengths(u, v)
        total = 0 * sum(u[:1])  # the zero of u's type
        for i in range(self.rank // 2):
            total += u[2 * i] * v[2 * i + 1] + u[2 * i + 1] * v[2 * i]
        if self.rank % 2:
            total += 2 * u[self.rank - 1] * v[self.rank - 1]
        return total


# ---------------------------------------------------------------------------
# variety specs: one record per family
# ---------------------------------------------------------------------------
#
# A spec class holds all there is of its family: the parameters (its
# dataclass fields, which are also the "params" of its JSON document), the
# class (r, n, q) it claims membership of (``declared``), the affine
# components of its chart (``components``, the one place a chart is
# written), for the quadric families its quadratic form (``form``), the
# curves of the class through points (``sampler`` and ``fit``) and, for
# four families, its specialness witness (``witness``).
#
# Every family draws n parameter points of Q^{r+1} for its class (r, n, q):
# ``sampler`` is a function of ``sampling`` called as sampler(rng, n,
# r + 1), and ``fit(points)`` receives the points already checked by
# ``rnc.fit_rnc_through``.  A fitter draws nothing, so its curve is a
# function of the points, and the curve carries the parameter pair (s : u)
# of each point, in their order.  ``witness()`` returns the fields of
# ``verify.SpecialnessWitness`` after the spec document.


def veronese_exponents(dim: int, order: int) -> list:
    """Exponent tuples 1 <= |alpha| <= order in graded-lex order."""
    out = [e for total in range(1, order + 1) for e in compositions(total, dim)]
    return sorted(out, key=grlex_key)


def quadric_veronese_blocks(r: int, rho: int):
    """Exponent blocks of a basis of |rho H| on the hyperbolic quadric.

    Reduction by U_0 U_1 = -h leaves the degree-rho monomials avoiding
    that product: block A collects exponents over (U_1, .., U_{r+2}) of
    degree rho, block B exponents over (U_2, .., U_{r+2}) of degree
    1..rho-1 (the missing constant is the leading coordinate U_0^rho).
    """
    block_a = sorted(compositions(rho, r + 2), key=grlex_key)
    block_b = []
    for total in range(1, rho):
        block_b.extend(sorted(compositions(total, r + 1), key=grlex_key))
    return block_a, block_b


@cache
def _conic_exponents(r: int, rho: int) -> tuple:
    """The order-rho system of ``QuadricVeronese.fit`` as exponents over
    (U_0, U_1, .., U_{r+2}): U_0^rho, block A over U_1.. and block B over
    U_0, U_2..  Built once per (r, rho) per process."""
    block_a, block_b = quadric_veronese_blocks(r, rho)
    exponents = [(rho,) + (0,) * (r + 2)]
    exponents += [(0,) + beta for beta in block_a]
    exponents += [(rho - sum(gamma), 0) + gamma for gamma in block_b]
    return tuple(exponents)


def _monomials(nvars: int, exponents) -> list:
    return [Polynomial.monomial(nvars, e) for e in exponents]


def _through_chart(spec, weights, degree: int, args, params) -> RationalCurve:
    """Image of a parameter curve under the chart of ``spec``.

    ``args`` are the coefficient lists substituted for the leading
    variable and the chart variables of ``_chart_forms``.  The image
    carries ``params``, the pairs of the input points.
    """
    forms = _chart_forms(spec, weights, degree)
    return curve_from_lists(projective_compose(forms, args), params)


@cache
def _chart_forms(spec, weights, degree: int) -> tuple:
    """The chart [1 : spec.components()] of ``make_variety`` homogenized to
    ``degree``, with one weight per chart variable and a new leading variable.

    Built once per (spec, weights, degree) per process and shared by
    every fit; the cache is unbounded, since its keys are the specs a
    process fits.
    """
    return tuple(c.homogenize(degree, weights) for c in make_variety(spec).components)


def _lift(h: QuadraticForm, points) -> tuple:
    """The quadric x0 x1 + h(x2, ..) = 0, the normal form of rank h.rank + 2,
    and its points (1, -h(s), s)."""
    lifted = [(Fraction(1), -h.eval(s)) + s for s in points]
    return QuadraticForm(h.rank + 2, h.nvars + 2), lifted


def _isqrt_fraction(value: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _zero_poly_check(variety: Parametrization, substitution) -> bool:
    """All components of degree >= 2 vanish identically under a substitution."""
    for comp in variety.components[1:]:
        if comp.total_degree() >= 2 and not comp.compose(substitution).is_zero():
            return False
    return True


_QUADRIC_SAMPLES = 5  # zeros of q drawn for a quadric witness


def _quadric_zero_samples(form: QuadraticForm, rng: random.Random):
    """Rational points of q(s) = 0 through the hyperbolic presentation."""
    out = []
    guard = 0
    while len(out) < _QUADRIC_SAMPLES and guard < 100 * _QUADRIC_SAMPLES:
        guard += 1
        s = [rand_rational(rng) for _ in range(form.nvars)]
        if form.rank == 1:
            s[0] = Fraction(0)
        else:
            # q = x0 x1 + h(x2, ...): solve for x0 and for x1 in turn, so
            # that both planes of a rank-2 form are sampled
            solved = len(out) % 2
            other = 1 - solved
            if s[other] == 0:
                continue
            s[solved] = Fraction(0)
            s[solved] = -form.eval(s) / s[other]
        if form.eval(s) == 0:
            out.append(tuple(s))
    return out


def _quadric_component_contained(variety: Parametrization, form, seed: int):
    """Whether {t = 0, q(s) = 0} lies on the variety at sampled zeros of q.

    Returns the verdict and the number of zeros sampled.
    """
    samples = _quadric_zero_samples(form, random.Random(seed))
    contained = all(
        all(
            c.eval((Fraction(0),) + s) == 0
            for c in variety.components[1:]
            if c.total_degree() >= 2
        )
        for s in samples
    )
    return contained, len(samples)


def _quadric_witness(spec, seed: int, measured: int, line: bool) -> tuple:
    """The contact-dimension witness of a family over the form q of ``spec``.

    The variety must contain the component {t = 0, q(s) = 0}, checked at
    zeros of q drawn from ``seed``, and with ``line`` also the line {s = 0};
    it is special when it does and the measured dimension is below r.
    """
    r = spec.r
    variety = make_variety(spec)
    details = {}
    line_ok = True
    if line:
        t = Polynomial.variable(1, 0)
        line_ok = _zero_poly_check(variety, [t] + [Polynomial.zero(1)] * r)
        details["line_component_contained"] = line_ok
    quad_ok, count = _quadric_component_contained(variety, spec.form(), seed)
    details["quadric_component_contained"] = quad_ok
    details["quadric_samples"] = count
    details["components"] = (["{s = 0}"] if line else []) + ["{t = 0, q(s) = 0}"]
    verdict = "special" if (line_ok and quad_ok and measured < r) else "standard-compatible"
    return "contact-dimension", measured, r, verdict, details


@dataclass(frozen=True)
class Veronese:
    dim: int
    order: int
    family = "Veronese"
    sampler = staticmethod(rand_distinct_points)

    def __post_init__(self):
        if self.dim < 1 or self.order < 1:
            raise SpecError("Veronese needs dim >= 1 and order >= 1")

    def declared(self) -> ClassParams:
        return ClassParams(self.dim - 1, 2, self.order)

    def components(self) -> list:
        return _monomials(self.dim, veronese_exponents(self.dim, self.order))

    def fit(self, points) -> RationalCurve:
        u, v = points
        if u == v:
            raise GeneralPositionError("the two parameter points coincide")
        args = [[1]] + [[ui, vi - ui] for ui, vi in zip(u, v)]
        return _through_chart(self, (1,) * self.dim, self.order, args, [(0, 1), (1, 1)])


@dataclass(frozen=True)
class StandardScroll:
    """The monomial model of A(rho, chi) over the scroll ``a``."""

    a: ScrollSpec
    rho: int
    chi: int
    family = "StandardScroll"
    sampler = staticmethod(rand_points_distinct_first_coord)

    def declared(self) -> ClassParams:
        return ClassParams(self.a.r, self.a.n, self.rho * (self.a.n - 1) + self.chi)

    def components(self) -> list:
        index_set = build_A(self.a, self.rho, self.chi)
        return _monomials(index_set.nvars, index_set.sorted_indices())

    def fit(self, points) -> RationalCurve:
        samples = [(p[0], tuple(p[1:])) for p in points]
        # the chart forms are homogeneous of degree rho in (x0, s) under the
        # weights (0, 1, .., 1), so one common scale of P_0 .. P_r scales
        # every component alike
        p0, *prest = fit_scroll_section(self.a, samples)
        args = [p0, [0, 1]] + prest
        params = [(t, 1) for t, _ in samples]
        return _through_chart(self, (0,) + (1,) * self.a.r, self.rho, args, params)

    def witness(self) -> tuple:
        r = self.declared().r
        index_set = build_A(self.a, self.rho, self.chi)
        measured = contact_locus_dim_monomial(
            index_set.sorted_indices(), index_set.nvars, self.rho
        )
        details = {"contact_order": self.rho}
        verdict = "standard-compatible" if measured == r else "special"
        return "contact-dimension", measured, r, verdict, details


@dataclass(frozen=True)
class Scroll:
    """The scroll itself, which is its standard model A(1, 0): it shares that
    model's class, components and fitter, and fits through its own chart."""

    a: ScrollSpec
    family = "Scroll"
    rho, chi = 1, 0
    sampler = staticmethod(rand_points_distinct_first_coord)
    declared = StandardScroll.declared
    components = StandardScroll.components
    fit = StandardScroll.fit


@dataclass(frozen=True)
class ConeStandard:
    r: int
    q: int
    family = "ConeStandard"
    sampler = staticmethod(rand_points)

    def declared(self) -> ClassParams:
        return ClassParams(self.r, 5, self.q)

    def components(self) -> list:
        index_set = build_A_cone(self.r, self.q)
        return _monomials(index_set.nvars, index_set.sorted_indices())

    def fit(self, points) -> RationalCurve:
        """The conic through the plane points (1, t1, t2), with each s_j
        interpolated along it as S_j / x0^2.

        S_j is the quartic whose binary form takes the value s_j(p) X0^2 at
        the parameter pair of each of the five points p, X0 the conic's
        first component read as a binary form of degree 2 at that pair.  By
        Lagrange on binary forms, S_j is the sum over the pairs (s_i, u_i)
        of that value times the product of u_k t - s_k over k != i, divided
        by the product of u_k s_i - s_k u_i; a pair may be (1 : 0).
        """
        r = self.r
        plane_pts = [(Fraction(1), p[0], p[1]) for p in points]
        conic = rnc_through_points(2, plane_pts)
        values = conic.witness_values()
        # holds by construction: the frame sends each parameter to its point
        for value, pt in zip(values, plane_pts):
            if not _is_multiple(value, clear_denominators(pt)[0]):
                raise InvariantError("conic parametrization missed a point")
        # the pairs as eval_homogeneous cleared them for the values
        pairs = [clear_denominators(pair)[0] for pair in conic.params]
        lists = _products_but_one(pairs)
        dens = [
            math.prod(u * si - s * ui for k, (s, u) in enumerate(pairs) if k != i)
            for i, (si, ui) in enumerate(pairs)
        ]
        spolys = []
        for j in range(2, r + 1):
            coeffs, den = clear_denominators(
                [p[j] * v[0] ** 2 / d for p, v, d in zip(points, values, dens)]
            )
            spolys.append([Fraction(c, den) for c in _combine_ints(coeffs, lists)])
        args = conic.integer_lists() + spolys
        return _through_chart(self, (1, 1) + (2,) * (r - 1), self.q // 2, args, conic.params)


@dataclass(frozen=True)
class QuadricVeronese:
    r: int
    rho: int
    rank: int
    family = "QuadricVeronese"
    sampler = staticmethod(rand_points)

    def __post_init__(self):
        # the classification wants rank >= 5; full rank in P^{r+2} is r+3
        if not 5 <= self.rank <= self.r + 3:
            raise SpecError(f"quadric rank {self.rank} outside [5, r+3]")
        if self.rho < 1:
            raise SpecError("rho must be >= 1")

    def declared(self) -> ClassParams:
        return ClassParams(self.r, 3, 2 * self.rho)

    def form(self) -> QuadraticForm:
        """The form h with ambient quadric U_0 U_1 + h(U_2..U_{r+2})."""
        return QuadraticForm(self.rank - 2, self.r + 1)

    def components(self) -> list:
        nv = self.r + 1
        # graph chart of the quadric: U_1 = -h(s), U_{1+j} = s_j
        u = [-self.form().poly()] + [Polynomial.variable(nv, j) for j in range(nv)]
        block_a, block_b = quadric_veronese_blocks(self.r, self.rho)
        comps = [power_product(u, beta) for beta in block_a]
        comps += [Polynomial.monomial(nv, gamma) for gamma in block_b]
        return comps

    def fit(self, points) -> RationalCurve:
        """Plane section of the quadric pushed through the order-rho system.

        The curve-through-points construction for this family is not spelled
        out in the classification; the route here (plane through the three
        quadric points, conic in that plane, pushforward) is the natural
        reading of the degree-2rho section count and is certified after the
        fact by the degree/span/incidence checks.
        """
        form, lifted = _lift(self.form(), points)
        a, b = (form.polar(lifted[0], x) for x in lifted[1:])
        conic = conic_on_quadric(form, lifted, [(-a, b), (0, 1), (1, 0)])
        lists = conic.integer_lists()  # U_0, U_1 .. U_{r+2} along the conic
        if not lists[0]:
            raise GenericityError("conic lies in the hyperplane at infinity")
        powers = [[[1], x] for x in lists]
        comps = [_power_product_ints(powers, e) for e in _conic_exponents(self.r, self.rho)]
        return curve_from_lists(comps, conic.params)


@dataclass(frozen=True)
class SegreSpecial:
    r: int
    mu: int
    family = "SegreSpecial"
    sampler = staticmethod(rand_points_distinct_first_coord)

    def __post_init__(self):
        # the form below has rank mu - 2, which must be >= 1
        if self.mu < 3 or self.mu > self.r + 2:
            raise SpecError(f"quadric rank {self.mu} outside [3, r+2]")

    def declared(self) -> ClassParams:
        return ClassParams(self.r, 3, 3)

    def form(self) -> QuadraticForm:
        return QuadraticForm(self.mu - 2, self.r)

    def components(self) -> list:
        nv = self.r + 1  # variables (t, s_1..s_r)
        t = Polynomial.variable(nv, 0)
        s = [Polynomial.variable(nv, 1 + j) for j in range(self.r)]
        qpoly = self.form().poly().compose(s)
        return [t] + s + [t * sj for sj in s] + [qpoly, t * qpoly]

    def fit(self, points) -> RationalCurve:
        r = self.r
        taus = [p[0] for p in points]
        if len(set(taus)) != 3:
            raise GeneralPositionError("tau values must be distinct")
        # the ambient quadric U_0 U_{r+1} = q(U_1..U_r) is the lift's
        # x0 x1 + q(x2..) = 0 in the coordinates x = (U_0, -U_{r+1}, U_1..U_r)
        form, lifted = _lift(self.form(), [p[1:] for p in points])
        pairs = [(tau, 1) for tau in taus]
        x0, x1, *xs = conic_on_quadric(form, lifted, pairs).integer_lists()
        g = [x0, *xs, [-c for c in x1]]
        tg = [[0] + x if x else x for x in g]  # t g, a shifted list
        # chart order [1, t, s, t s, q, t q] over g = (g0, gs, gq)
        comps = g[:1] + tg[:1] + g[1 : r + 1] + tg[1 : r + 1] + g[r + 1 :] + tg[r + 1 :]
        return curve_from_lists(comps, pairs)

    def witness(self) -> tuple:
        return _quadric_witness(self, 11, max(1, self.r - 1), line=True)


@dataclass(frozen=True)
class CubicSpecial:
    r: int
    mu_prime: int
    family = "CubicSpecial"
    sampler = staticmethod(rand_points)

    def __post_init__(self):
        if self.r < 2:
            raise SpecError("CubicSpecial needs r >= 2")
        if not 1 <= self.mu_prime <= self.r:
            raise SpecError(f"quadric rank {self.mu_prime} outside [1, r]")

    def declared(self) -> ClassParams:
        return ClassParams(self.r, 4, 5)

    def form(self) -> QuadraticForm:
        return QuadraticForm(self.mu_prime, self.r)

    def components(self) -> list:
        nv = self.r + 1
        t = Polynomial.variable(nv, 0)
        s = [Polynomial.variable(nv, 1 + j) for j in range(self.r)]
        qpoly = self.form().poly().compose(s)
        return (
            [t, t**2, t**3]
            + s
            + [t * sj for sj in s]
            + [t**2 * sj for sj in s]
            + [qpoly, t * qpoly]
        )

    def fit(self, points) -> RationalCurve:
        r = self.r
        # the cleared lifted points are the frame of their P^3: point i is e_i
        lifted = [clear_denominators((1,) + p)[0] for p in points]
        if integer_rank(lifted, r + 2) != 4:
            raise GenericityError("the four points do not span a P^3")
        # the points of the span with T0 = T1 = 0, by their frame coordinates
        kernel, _ = _kernel_ints(list(zip(*lifted))[:2], 4)
        if len(kernel) != 2:
            raise GenericityError("span meets {T0 = T1 = 0} in the wrong dimension")
        # the line's echelon basis w1, w2, each beside its frame coordinates
        line, _ = rref([_accumulate(c, lifted, r + 2) + c for c in kernel])
        (w1, c1), (w2, c2) = ((row[: r + 2], row[r + 2 :]) for row in line)
        qf = self.form()
        a, b, c = qf.eval(w1[2:]), qf.polar(w1[2:], w2[2:]), qf.eval(w2[2:])
        if a == 0:
            if b == 0:
                raise GeneralPositionError("double intersection with the quadric")
            roots = [(Fraction(1), Fraction(0)), (-c, b)]
        else:
            disc = b * b - 4 * a * c
            if disc == 0:
                raise GeneralPositionError("double intersection with the quadric")
            root = _isqrt_fraction(disc)
            if root is None:
                raise SplittingFieldRequiredError(disc)
            roots = [((-b + root) / (2 * a), Fraction(1)), ((-b - root) / (2 * a), Fraction(1))]
        frame = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        quadric = [tuple(lam * x + mu * y for x, y in zip(c1, c2)) for lam, mu in roots]
        gamma3 = rnc_through_points(3, frame + quadric)
        ambient = [_combine_ints(row, gamma3.integer_lists()) for row in zip(*lifted)]
        # the last two of the six points are the quadric points, not input points
        return _through_chart(self, (1,) * (r + 1), 3, ambient, gamma3.params[:4])

    def witness(self) -> tuple:
        return _quadric_witness(self, 13, self.r - 1, line=False)


@dataclass(frozen=True)
class Veronese33:
    """The Veronese threefold v_3(P^3), a non-standard member of X_{3,6}(9)."""

    family = "Veronese33"
    sampler = staticmethod(rand_points)

    def declared(self) -> ClassParams:
        return ClassParams(2, 6, 9)

    def components(self) -> list:
        return Veronese(3, 3).components()

    def fit(self, points) -> RationalCurve:
        """Twisted cubic through the six lifted points, pushed through the cubics."""
        lifted = [(Fraction(1),) + p for p in points]
        gamma = rnc_through_points(3, lifted)
        return _through_chart(self, (1, 1, 1), 3, gamma.integer_lists(), gamma.params)

    def witness(self) -> tuple:
        variety = make_variety(self)
        rng = random.Random(17)
        point = tuple(rand_rational(rng) for _ in range(3))
        measured = regularity_order(variety, point)
        refs = {}
        scroll = ScrollSpec((2, 2, 1))
        for label, (rho, chi) in (("A(1,4)", (1, 4)), ("A(2,-1)", (2, -1))):
            model = make_variety(StandardScroll(scroll, rho, chi))
            origin = (Fraction(0),) * 3
            refs[label] = regularity_order(model, origin)
        reference = max(refs.values())
        details = {"standard_orders": refs, "scroll": list(scroll.degrees)}
        verdict = "special" if measured == 3 and all(v < 3 for v in refs.values()) else "standard-compatible"
        return "regularity-order", measured, reference, verdict, details


FAMILIES = {
    cls.family: cls
    for cls in (
        Veronese,
        Scroll,
        StandardScroll,
        ConeStandard,
        QuadricVeronese,
        SegreSpecial,
        CubicSpecial,
        Veronese33,
    )
}


def _known(spec):
    if FAMILIES.get(getattr(spec, "family", None)) is not type(spec):
        raise SpecError(f"unknown spec {spec!r}")
    return spec


def declared_class(spec) -> ClassParams:
    """The class (r, n, q) a catalog spec claims membership of."""
    return _known(spec).declared()


@cache
def make_variety(spec) -> Parametrization:
    """Explicit parametrization of a catalog spec, as an affine chart.

    The one place a chart's components are wrapped (and their generic
    rank checked); the variable count is that of the components, since
    specs such as Veronese(1, k) declare no valid class.

    The chart is built and checked once per spec per process: specs are
    frozen, hashable records, and equal specs share one returned
    ``Parametrization``, whose lazily filled state (span, partials,
    compiled layers) then fills once.  Callers must not mutate it.  The
    cache is unbounded, since its keys are the specs a process uses; a
    spec that raises is not cached.
    """
    comps = _known(spec).components()
    return Parametrization.from_affine(comps[0].nvars, comps)


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------


def json_int(value) -> int:
    """A JSON integer as it is; TypeError for a float, string, boolean or the rest."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_ints(value) -> tuple:
    """A JSON list of integers as a tuple; TypeError for anything else."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(map(json_int, value))


# field annotation of a spec record -> (decode from JSON, encode to JSON);
# the keys are annotation strings, as postponed evaluation leaves them
_CODECS = {
    "int": (json_int, int),
    "ScrollSpec": (lambda value: ScrollSpec(json_ints(value)), lambda a: list(a.degrees)),
}


def spec_to_json(spec) -> dict:
    params = {
        f.name: _CODECS[f.type][1](getattr(spec, f.name)) for f in fields(_known(spec))
    }
    return {"family": spec.family, "params": params}


def spec_from_json(doc) -> object:
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    family = doc.get("family")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("params must be an object")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise SpecError(f"unknown family {family!r}")
    missing = [f.name for f in fields(cls) if f.name not in params]
    if missing:
        raise SpecError(f"{family} spec missing params {missing}")
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise SpecError(f"{family} spec has unknown params {unknown}")
    try:
        return cls(**{f.name: _CODECS[f.type][0](params[f.name]) for f in fields(cls)})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad parameter value: {exc}") from exc
