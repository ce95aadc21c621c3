"""Exact construction and certification of rational normal curves.

The module holds the curve kernels that know no variety family:
certification, incidence, interpolation through d+3 points, scroll
sections and conics on quadrics.  The spec classes of ``catalog`` build
their curves from them, and ``sample_parameter_points`` and
``fit_rnc_through`` dispatch to a spec's own sampler and fitter.

The interpolation routine through d+3 points uses the classical frame
normalization: d+2 points go to the coordinate simplex and unit point,
the curve becomes x_i(t) = prod_{j != i} (t - b_j), and the nodes b_j are
read off the remaining point by exact ratio equations; their one inverse
also certifies general position.  The two leftover Moebius parameters are
fixed by an explicit choice that callers may vary to probe projective
uniqueness.

Every fitter knows the parameter at which its curve passes through each
input point, and the curve carries these pairs (``RationalCurve.params``).
Incidence checks them first, on integers, and falls back to the gcd of the
cross minors when none of them verifies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, zip_longest
from typing import Sequence

from .errors import (
    DegenerateCurveError,
    DimensionMismatchError,
    GeneralPositionError,
    GenericityError,
    InvariantError,
    RncGeomError,
    SpecError,
)
from .linalg import _inverse_ints, _kernel_ints, integer_rank
from .poly import (
    RationalCurve,
    _combine_ints,
    _gcd_ints,
    _mul_ints,
    clear_denominators,
    curve_from_lists,
    curve_normalize,
    eval_homogeneous,
    primitive_part,
)


@dataclass
class CurveCertificate:
    """Degree and span of a normalized curve; RNC means they coincide."""

    degree: int
    span_dim: int
    is_rnc: bool

    def to_json(self) -> dict:
        return {"degree": self.degree, "span_dim": self.span_dim, "is_rnc": self.is_rnc}


def certify_curve(curve: RationalCurve) -> CurveCertificate:
    """Exact degree and span of a curve; degree = span characterizes RNCs.

    The span is the rank of the integer coefficient matrix, which a full
    rank modulo a prime certifies without exact elimination (``integer_rank``).
    """
    c = curve_normalize(curve)
    degree = c.degree()
    if degree < 1:
        raise DegenerateCurveError("constant curve has no certificate")
    lists = c.integer_lists()
    rows = [[x[k] if k < len(x) else 0 for x in lists] for k in range(degree + 1)]
    span_dim = integer_rank(rows, c.ambient_dim + 1) - 1
    return CurveCertificate(degree, span_dim, degree == span_dim)


def _is_multiple(value, p) -> bool:
    """Whether the integer vector ``value`` is a nonzero multiple of ``p``."""
    m = next(i for i, x in enumerate(p) if x)
    return value[m] != 0 and all(value[m] * x == v * p[m] for v, x in zip(value, p))


def curve_contains_point(curve: RationalCurve, point, assume_normalized=False) -> bool:
    """Exact membership of a projective point in the image of the curve.

    The point is cleared of denominators.  A carried parameter pair whose
    value (``RationalCurve.witness_values``) is a nonzero multiple of the
    point certifies membership.  When no pair does, the answer comes from
    the gcd of the 2x2 cross minors against a nonzero coordinate of the
    point, built on the curve's integer lists: a common root, or a match
    with the value at infinity, certifies membership.

    The curve is normalized first, at once when it is already;
    ``assume_normalized`` raises ValueError when normalizing changes it.
    """
    c = curve_normalize(curve)
    if assume_normalized and c != curve:
        raise ValueError("curve is not normalized")
    p, _ = clear_denominators(point)
    if len(p) != c.ambient_dim + 1:
        raise DimensionMismatchError("point/curve ambient mismatch")
    if not any(p):
        raise ValueError("zero vector is not a projective point")
    if any(_is_multiple(value, p) for value in c.witness_values()):
        return True
    comps = c.integer_lists()
    m = next(i for i, x in enumerate(p) if x)
    minors = []
    for j, (pj, cj) in enumerate(zip(p, comps)):
        if j == m:
            continue
        minor = [p[m] * a - pj * b for a, b in zip_longest(cj, comps[m], fillvalue=0)]
        while minor and not minor[-1]:
            minor.pop()
        if minor:
            minors.append(primitive_part(minor))
    if not minors:
        return True
    g = minors[0]
    for minor in minors[1:]:
        g = _gcd_ints(g, minor)
        if len(g) == 1:
            break
    if len(g) > 1:
        return True
    inf = c.value_at_infinity()
    return all(p[m] * inf[j] - pj * inf[m] == 0 for j, pj in enumerate(p))


# ---------------------------------------------------------------------------
# interpolation through d+3 points
# ---------------------------------------------------------------------------


def rnc_through_points(
    d: int, points: Sequence, free_params=(Fraction(0), Fraction(-1))
) -> RationalCurve:
    """The unique degree-d rational normal curve through d+3 general points.

    ``free_params`` = (t_w, kappa) fixes the leftover Moebius freedom;
    any choice with kappa != 0 yields the same curve as a point set.

    Each point p_i is cleared to integers L_i p_i.  General position is
    read off B^-1, B the first d+1 cleared points as columns: with
    g_i = (lam_i, w_i) = B^-1 (p_{d+1}, p_{d+2}) for i <= d and
    g_{d+1} = (-1, 0), g_{d+2} = (0, -1), the points that omit p_a and
    p_b are independent iff det(g_a, g_b) != 0 (Gale duality).

    The curve carries the parameter (s : u), t = s/u, of each input
    point: the frame puts the simplex points at (b_i : 1), the unit point
    p_{d+1} at (1 : 0) and p_{d+2} at (t_w : 1).  Clearing p_j scales
    lam_j and w_j alike, so b_j = t_w - kappa (L_{d+2} / L_{d+1}) lam_j / w_j.

    The curve is built on integer lists.  With b_j = N_j / D_j, the product
    P_i of the factors D_j t - N_j over j != i is x_i times the product of
    those D_j, so the frame's column i, lam_i p_i, is scaled by D_i: the
    components then share one factor, which ``curve_from_lists`` strips.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) != d + 3:
        raise DimensionMismatchError(f"need {d + 3} points, got {len(pts)}")
    if any(len(p) != d + 1 for p in pts):
        raise DimensionMismatchError("points must have d+1 homogeneous coordinates")
    cleared = [clear_denominators(p) for p in pts]
    simplex = [ints for ints, _ in cleared[: d + 1]]
    try:
        inv, _ = _inverse_ints(list(zip(*simplex)))
    except RncGeomError:
        g = None  # B is singular: the first subset below is its columns
    else:
        lam, w = ([sum(a * x for a, x in zip(row, p)) for row in inv] for p, _ in cleared[d + 1 :])
        g = [*zip(lam, w), (-1, 0), (0, -1)]
    for subset in combinations(range(d + 3), d + 1):
        a, b = (i for i in range(d + 3) if i not in subset)
        if g is None or g[a][0] * g[b][1] == g[a][1] * g[b][0]:
            raise GeneralPositionError(
                f"points {list(subset)} span less than a P^{d}", witness=subset
            )

    t_w, kappa = (Fraction(x) for x in free_params)
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    ratio = kappa * cleared[d + 2][1] / cleared[d + 1][1]
    nodes = [t_w - ratio * Fraction(lj, wj) for lj, wj in zip(lam, w)]
    prods = _products_but_one([(b.numerator, b.denominator) for b in nodes])
    # the frame B diag(lam) sends p_{d+2} to the vector with entries w_j / lam_j
    comps = [
        _combine_ints([lj * b.denominator * x for lj, b, x in zip(lam, nodes, row)], prods)
        for row in zip(*simplex)
    ]
    one, zero = Fraction(1), Fraction(0)
    params = [(b, one) for b in nodes] + [(one, zero), (t_w, one)]
    return curve_from_lists(comps, params)


# ---------------------------------------------------------------------------
# scroll sections
# ---------------------------------------------------------------------------


def fit_scroll_section(a, samples: Sequence) -> list:
    """Section s_k = P_k(t)/P_0(t) through n sample points (t_i, s_i).

    The curve is the section of the scroll X_0 of degrees ``a`` (a
    ``catalog.ScrollSpec``) in P^{r+n-1} by the P^{n-1} that the samples
    span.  Sample i lifts to the chart coordinates t_i^j s_k (j <= a_k,
    s_0 = 1), and the kernel of the lifts is r forms, which read
    sum_k l_ik(t) s_k on the scroll.  P_k = (-1)^k det(l without column k),
    the signed maximal minors, has degree at most n-1-a_k.  Returns the
    integer coefficient lists (low degree first, padded to length n-a_k)
    of P_0 .. P_r, primitive together and with their last nonzero
    coefficient positive.
    """
    n, r = a.n, a.r
    samples = [(Fraction(t), tuple(Fraction(x) for x in s)) for t, s in samples]
    if len(samples) != n:
        raise DimensionMismatchError(f"need n = {n} samples")
    if any(len(s) != r for _, s in samples):
        raise DimensionMismatchError("sample s-part must have length r")
    if len({t for t, _ in samples}) != n:
        raise GeneralPositionError("sample parameters t_i must be distinct")

    top = a.degrees[0]
    lifts = []  # each scaled to integers: s by its lcm, t^j by den(t)^a_0
    for t, s in samples:
        xs, _ = clear_denominators((1,) + s)
        powers = [t.numerator**j * t.denominator ** (top - j) for j in range(top + 1)]
        lifts.append([x * powers[j] for x, ak in zip(xs, a.degrees) for j in range(ak + 1)])
    kernel, _ = _kernel_ints(lifts, r + n)
    if len(kernel) != r:
        raise GenericityError(f"the samples do not span a P^{n - 1}")
    starts = list(accumulate((ak + 1 for ak in a.degrees), initial=0))
    # the minors of rows 0..i of (l_ik) on each set of i+1 columns, each
    # expanded along row i: (r+1) 2^r products in all, not (r+1)!
    minors = {(): [1]}
    for i, form in enumerate(kernel):
        ell = [form[b:e] for b, e in zip(starts, starts[1:])]
        minors = {
            cols: _combine_ints(
                [(-1) ** (i + p) for p in range(i + 1)],
                [_mul_ints(ell[c], minors[cols[:p] + cols[p + 1 :]]) for p, c in enumerate(cols)],
            )
            for cols in combinations(range(r + 1), i + 1)
        }
    full = tuple(range(r + 1))
    lists = [[(-1) ** k * c for c in minors[full[:k] + full[k + 1 :]]] for k in full]
    last = next((x[-1] for x in reversed(lists) if x), 0)
    if not last:
        raise GenericityError("the minors of the section all vanish")
    unit = math.gcd(*(c for x in lists for c in x)) * (1 if last > 0 else -1)
    lists = [[c // unit for c in x] + [0] * (n - ak - len(x)) for x, ak in zip(lists, a.degrees)]
    # each value vector is P_0(t_i) .. P_r(t_i) times one nonzero integer
    values = eval_homogeneous(lists, [(t, 1) for t, _ in samples])
    for (_, s), (p0, *prest) in zip(samples, values):
        if any(x * p0 != pk for x, pk in zip(s, prest)):
            raise InvariantError("the section missed an interpolation condition")
        if p0 == 0:
            raise GenericityError("P_0 vanishes at a sample parameter")
    return lists


# ---------------------------------------------------------------------------
# conics on quadrics
# ---------------------------------------------------------------------------


def conic_on_quadric(form, points, pairs) -> RationalCurve:
    """Exact conic through three points of the quadric {q = 0}, within their
    plane, that reaches point i at the parameter pair (s_i : u_i), t = s/u.

    ``form`` is a quadratic form such as a ``catalog.QuadraticForm``:
    ``form.eval(p)`` is q(p), and ``form.polar(u, v)`` the symmetric bilinear
    q(u + v) - q(u) - q(v).  So nonzero pairwise polars also make the points
    independent: p3 = x p1 + y p2 gives 0 = q(p3) = x y polar(p1, p2).

    The conic is x(t) = sum_i lam_i p_i l_i(t), l_i the product of the
    u_k t - s_k over k != i.  Over the cyclic triples (m, j, k), b_m is the
    polar of p_j and p_k, d_m = s_j u_k - s_k u_j and lam_m = b_m d_j d_k;
    then q(x) = prod_k (u_k t - s_k) b_1 b_2 b_3 d_1 d_2 d_3 sum_m d_m (u_m t - s_m),
    and the sum is 0.  Scaling a point or a pair scales every term alike, so
    each is cleared of its own denominators and the sum taken on integers.
    """
    pts = [clear_denominators(p)[0] for p in points]
    if any(form.eval(p) for p in pts):
        raise GeneralPositionError("point does not lie on the quadric")
    cyclic = ((1, 2), (2, 0), (0, 1))  # (j, k) at position m
    b = [form.polar(pts[j], pts[k]).numerator for j, k in cyclic]  # integers
    if not all(b):
        raise GeneralPositionError("plane section is a degenerate conic")
    ints = [clear_denominators(pair)[0] for pair in pairs]
    d = [ints[j][0] * ints[k][1] - ints[k][0] * ints[j][1] for j, k in cyclic]
    if not all(d):
        raise GeneralPositionError("parameter pairs are not pairwise distinct")
    lam = [bm * d[j] * d[k] for bm, (j, k) in zip(b, cyclic)]
    prods = _products_but_one(ints)
    comps = [_combine_ints([c * x for c, x in zip(lam, coords)], prods) for coords in zip(*pts)]
    return curve_from_lists(comps, pairs)


def _products_but_one(pairs) -> list:
    """For each i, the product of u_k t - s_k over the integer pairs (s_k, u_k)
    with k != i, as an integer list (low degree first)."""
    out = []
    for i in range(len(pairs)):
        prod = [1]
        for k, (s, u) in enumerate(pairs):
            if k != i:
                prod = _mul_ints(prod, [-s, u])
        out.append(prod)
    return out


# ---------------------------------------------------------------------------
# curves of a spec's class through points
# ---------------------------------------------------------------------------
#
# The two dispatchers read a spec's class (r, n, q) (``declared()``), its
# parameter sampler (``sampler``) and its fitter (``fit``); the spec
# classes of ``catalog`` hold them.


def sample_parameter_points(spec, rng: random.Random):
    """Random parameter points matching the spec's class size n."""
    params = _declared(spec)
    return spec.sampler(rng, params.n, params.r + 1)


def fit_rnc_through(spec, points) -> RationalCurve:
    """Rational normal curve of the class degree through the given points.

    ``points`` are the n parameter points of Q^{r+1} of the spec's class
    (r, n, q), in the chart built by make_variety, converted and checked
    here for every fitter.  Genericity failures raise GenericityError so
    callers can resample.
    """
    params = _declared(spec)
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) != params.n or any(len(p) != params.r + 1 for p in pts):
        raise DimensionMismatchError(
            f"{spec.family} needs {params.n} parameter points in Q^{params.r + 1}"
        )
    return spec.fit(pts)


def _declared(spec):
    """The class (r, n, q) of a spec; SpecError for any other object."""
    if not all(hasattr(spec, name) for name in ("declared", "sampler", "fit")):
        raise SpecError(f"unknown spec {spec!r}")
    return spec.declared()
