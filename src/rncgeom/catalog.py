"""Closed-form dimension formulas and constructors for every variety family.

Each family is one small frozen spec class, listed in ``FAMILIES``; its
fields round trip through the JSON document format ``{"family": ...,
"params": {...}}`` shared by the CLI and the verification reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import DimensionMismatchError, SpecError
from .linalg import QMatrix
from .osculation import Parametrization
from .poly import Polynomial, compositions, grlex_key, power_product


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

    def eval(self, point) -> Fraction:
        """The value of ``poly()`` at a point, read off the normal form."""
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point length {len(point)} != {self.nvars} variables"
            )
        total = Fraction(0)
        for i in range(self.rank // 2):
            total += point[2 * i] * point[2 * i + 1]
        if self.rank % 2:
            total += point[self.rank - 1] ** 2
        return total

    def matrix(self) -> QMatrix:
        """Symmetric bilinear form matrix (rank equals the declared rank)."""
        m = [[Fraction(0)] * self.nvars for _ in range(self.nvars)]
        for i in range(self.rank // 2):
            m[2 * i][2 * i + 1] = Fraction(1, 2)
            m[2 * i + 1][2 * i] = Fraction(1, 2)
        if self.rank % 2:
            m[self.rank - 1][self.rank - 1] = Fraction(1)
        return QMatrix(m)


# ---------------------------------------------------------------------------
# variety specs: one record per family
# ---------------------------------------------------------------------------
#
# A spec class holds all the catalog knows of its family: the parameters
# (its dataclass fields, which are also the "params" of its JSON document),
# the class (r, n, q) it claims membership of (``declared``), the affine
# components of its chart (``components``, the one place a chart is
# written) and, for the quadric families, its quadratic form (``form``).
# The fitter of a family is its row in ``rnc``, its specialness witness
# (if any) its row in ``verify``.


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


def _monomials(nvars: int, exponents) -> list:
    return [Polynomial.monomial(nvars, e) for e in exponents]


@dataclass(frozen=True)
class Veronese:
    dim: int
    order: int
    family = "Veronese"

    def __post_init__(self):
        if self.dim < 1 or self.order < 1:
            raise SpecError("Veronese needs dim >= 1 and order >= 1")

    def declared(self) -> ClassParams:
        return ClassParams(self.dim - 1, 2, self.order)

    def components(self) -> list:
        return _monomials(self.dim, veronese_exponents(self.dim, self.order))


@dataclass(frozen=True)
class StandardScroll:
    """The monomial model of A(rho, chi) over the scroll ``a``."""

    a: ScrollSpec
    rho: int
    chi: int
    family = "StandardScroll"

    def declared(self) -> ClassParams:
        return ClassParams(self.a.r, self.a.n, self.rho * (self.a.n - 1) + self.chi)

    def components(self) -> list:
        index_set = build_A(self.a, self.rho, self.chi)
        return _monomials(index_set.nvars, index_set.sorted_indices())


@dataclass(frozen=True)
class Scroll:
    """The scroll itself, which is its standard model A(1, 0)."""

    a: ScrollSpec
    family = "Scroll"

    def standard(self) -> StandardScroll:
        return StandardScroll(self.a, 1, 0)

    def declared(self) -> ClassParams:
        return self.standard().declared()

    def components(self) -> list:
        return self.standard().components()


@dataclass(frozen=True)
class ConeStandard:
    r: int
    q: int
    family = "ConeStandard"

    def declared(self) -> ClassParams:
        return ClassParams(self.r, 5, self.q)

    def components(self) -> list:
        index_set = build_A_cone(self.r, self.q)
        return _monomials(index_set.nvars, index_set.sorted_indices())


@dataclass(frozen=True)
class QuadricVeronese:
    r: int
    rho: int
    rank: int
    family = "QuadricVeronese"

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


@dataclass(frozen=True)
class SegreSpecial:
    r: int
    mu: int
    family = "SegreSpecial"

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


@dataclass(frozen=True)
class CubicSpecial:
    r: int
    mu_prime: int
    family = "CubicSpecial"

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


@dataclass(frozen=True)
class Veronese33:
    """The Veronese threefold v_3(P^3), a non-standard member of X_{3,6}(9)."""

    family = "Veronese33"

    def declared(self) -> ClassParams:
        return ClassParams(2, 6, 9)

    def components(self) -> list:
        return Veronese(3, 3).components()


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
    try:
        return cls(**{f.name: _CODECS[f.type][0](params[f.name]) for f in fields(cls)})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad parameter value: {exc}") from exc
