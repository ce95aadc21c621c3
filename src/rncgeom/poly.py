"""Sparse multivariate polynomials over exact rationals.

A polynomial in ``d`` variables is a finite map from exponent tuples
(one non-negative int per variable) to ``Fraction``
coefficients.  Zero coefficients are never stored, so structural equality
is semantic equality.  The canonical term order everywhere is graded
lexicographic: higher total degree first, ties broken lexicographically
on the exponent tuple.

``RationalCurve`` holds the homogeneous components of a rational map
``P^1 -> P^N`` in one form: an integer coefficient list per component over
one denominator, primitive over 1 once normalized; its ``components`` as
``Polynomial``s are a view.  Every fitter builds its curve from integer
lists (``curve_from_lists``, ``_mul_ints``, ``_combine_ints``, and
``projective_compose``, which substitutes coefficient lists into forms),
and curves are evaluated on them (``eval_homogeneous``).  Univariate gcd
and exact division and the normalization of curves clear denominators and
run on integer coefficient lists as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateCurveError, DimensionMismatchError


def grlex_key(exponents):
    """Sort key realizing the graded-lex order (use with reverse=True)."""
    return (sum(exponents), exponents)


def compositions(total: int, parts: int) -> list:
    """All tuples of ``parts`` non-negative ints summing to ``total``, in lex order."""
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (head,) + rest
        for head in range(total + 1)
        for rest in compositions(total - head, parts - 1)
    ]


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coeff in dict(terms).items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars:
                    raise DimensionMismatchError(
                        f"exponent {expo} has length {len(expo)}, expected {nvars}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[expo] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise DimensionMismatchError(f"variable index {index} out of range")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {expo: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exponents): _as_fraction(coeff)})

    @classmethod
    def univariate(cls, coeffs: Sequence) -> "Polynomial":
        """Build a one-variable polynomial from coefficients, low degree first."""
        return cls(1, {(i,): _as_fraction(c) for i, c in enumerate(coeffs)})

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "Polynomial":
        """One-variable polynomial from ``Fraction`` coefficients, low degree
        first, stored as given, without the revalidation of ``univariate``."""
        out = cls(1)
        out._terms = {(i,): c for i, c in enumerate(coeffs) if c}
        return out

    # -- structure ----------------------------------------------------

    def items(self):
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def coefficient(self, exponents) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_text()!r})"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise DimensionMismatchError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for expo, coeff in other._terms.items():
            total = terms.get(expo, Fraction(0)) + coeff
            if total:
                terms[expo] = total
            else:
                terms.pop(expo, None)
        out = Polynomial(self.nvars)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial(self.nvars)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                total = terms.get(expo, Fraction(0)) + c1 * c2
                if total:
                    terms[expo] = total
                else:
                    terms.pop(expo, None)
        out = Polynomial(self.nvars)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, scalar) -> "Polynomial":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            return Polynomial.zero(self.nvars)
        out = Polynomial(self.nvars)
        out._terms = {e: c * scalar for e, c in self._terms.items()}
        return out

    # -- calculus and evaluation ---------------------------------------

    def partial(self, orders) -> "Polynomial":
        """Iterated partial derivative; ``orders[i]`` differentiations in x_i."""
        orders = tuple(int(o) for o in orders)
        if len(orders) != self.nvars:
            raise DimensionMismatchError(
                f"derivative multi-index length {len(orders)} != {self.nvars}"
            )
        if any(o < 0 for o in orders):
            raise ValueError("negative derivative order")
        terms = {}
        for expo, coeff in self._terms.items():
            if any(e < o for e, o in zip(expo, orders)):
                continue
            factor = 1
            for e, o in zip(expo, orders):
                # falling factorial e (e-1) ... (e-o+1)
                for j in range(o):
                    factor *= e - j
            new_expo = tuple(e - o for e, o in zip(expo, orders))
            terms[new_expo] = terms.get(new_expo, Fraction(0)) + coeff * factor
        return Polynomial(self.nvars, terms)

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point length {len(point)} != {self.nvars} variables"
            )
        values = [_as_fraction(p) for p in point]
        total = Fraction(0)
        for expo, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def compose(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute ``args[i]`` for variable i; args share a variable count."""
        if len(args) != self.nvars:
            raise DimensionMismatchError("one substitution polynomial per variable")
        if not args:
            raise DimensionMismatchError("compose needs at least one variable")
        m = args[0].nvars
        if any(a.nvars != m for a in args):
            raise DimensionMismatchError("substitution polynomials disagree on variables")
        # cache powers of each argument
        powers = [[Polynomial.one(m), a] for a in args]
        def power(i, e):
            col = powers[i]
            while len(col) <= e:
                col.append(col[-1] * col[1])
            return col[e]
        result = Polynomial.zero(m)
        for expo, coeff in self._terms.items():
            term = Polynomial.constant(m, coeff)
            for i, e in enumerate(expo):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def homogenize(self, degree: int, weights) -> "Polynomial":
        """Weighted homogenization in a new leading variable x_0.

        Sends x^e to x_0^(degree - w.e) x^e; a term of weighted degree
        w.e above ``degree`` raises ValueError.
        """
        if len(weights) != self.nvars:
            raise DimensionMismatchError("one weight per variable")
        terms = {}
        for expo, coeff in self._terms.items():
            lead = degree - sum(w * e for w, e in zip(weights, expo))
            if lead < 0:
                raise ValueError(f"term {expo} has weighted degree above {degree}")
            terms[(lead,) + expo] = coeff
        out = Polynomial(self.nvars + 1)
        out._terms = terms
        return out

    # -- text form -------------------------------------------------------

    def to_text(self, varnames=None) -> str:
        """Canonical text form: graded-lex ordered sum of ``coeff * x^e`` terms."""
        if varnames is None:
            varnames = [f"x{i + 1}" for i in range(self.nvars)]
        if not self._terms:
            return "0"
        chunks = []
        for expo, coeff in self.items():
            factors = []
            for name, e in zip(varnames, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = " * ".join(factors)
            elif factors:
                body = " * ".join([str(mag)] + factors)
            else:
                body = str(mag)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text


def power_product(factors: Sequence, exponents) -> Polynomial:
    """The product of ``f ** e`` over paired factors and exponents."""
    term = Polynomial.one(factors[0].nvars)
    for f, e in zip(factors, exponents):
        if e:
            term = term * f**e
    return term


def combine(coeffs: Sequence, polys: Sequence[Polynomial]) -> Polynomial:
    """The linear combination of ``polys`` with paired ``coeffs``."""
    terms = {}
    for coeff, poly in zip(coeffs, polys):
        coeff = _as_fraction(coeff)
        if coeff:
            for expo, c in poly._terms.items():
                terms[expo] = terms.get(expo, 0) + coeff * c
    out = Polynomial(polys[0].nvars)
    out._terms = {e: c for e, c in terms.items() if c}
    return out


# ---------------------------------------------------------------------------
# univariate gcd and exact division over Z
# ---------------------------------------------------------------------------


def integer_coefficients(polys: Sequence[Polynomial]) -> tuple:
    """``(lists, L)``: the coefficient list (low degree first) of L * p for
    each univariate p.

    L is the lcm of every coefficient denominator of ``polys``, so each
    list holds integers; the zero polynomial gives the empty list.
    """
    den = math.lcm(*(c.denominator for p in polys for c in p._terms.values()))
    out = []
    for p in polys:
        if p.nvars != 1:
            raise DimensionMismatchError("not univariate")
        coeffs = [0] * (max((e for (e,) in p._terms), default=-1) + 1)
        for (e,), c in p._terms.items():
            coeffs[e] = c.numerator * (den // c.denominator)
        out.append(coeffs)
    return out, den


def clear_denominators(values) -> tuple:
    """``(ints, den)`` with each value equal to its integer over ``den``.

    ``den`` is the lcm of the denominators; entries that are neither int
    nor Fraction go through ``Fraction`` first.
    """
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def primitive_part(coeffs: list) -> list:
    """An integer list divided by its content, the gcd of its entries."""
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else coeffs


def _divexact_ints(x: list, y: list) -> list:
    """Integer quotient x / y (low degree first); ValueError unless y divides x.

    For primitive y this is exact division over Q as well: by Gauss's
    lemma a quotient over Q of an integer list by a primitive one is an
    integer list.
    """
    n = len(y)
    rem = list(x)
    quotient = [0] * max(len(x) - n + 1, 0)
    for s in range(len(x) - n, -1, -1):
        lead = rem[s + n - 1]
        if lead:
            factor, r = divmod(lead, y[-1])
            if r:
                raise ValueError("division is not exact")
            quotient[s] = factor
            for i in range(n - 1):
                rem[s + i] -= factor * y[i]
    if any(rem[: n - 1]):
        raise ValueError("division is not exact")
    return quotient


def poly_gcd_univariate(a: Polynomial, b: Polynomial) -> Polynomial:
    """Canonical gcd: primitive integer coefficients, positive lead."""
    if a.nvars != 1 or b.nvars != 1:
        raise DimensionMismatchError("gcd requires univariate polynomials")
    x, y = map(primitive_part, integer_coefficients([a, b])[0])
    return Polynomial.from_coeffs([Fraction(c) for c in _gcd_ints(x, y)])


def _gcd_ints(x: list, y: list) -> list:
    """Canonical gcd of two primitive integer lists (low degree first, no
    trailing zeros).

    A primitive pseudo-remainder sequence over Z (Collins, J. ACM 14,
    1967; Brown, J. ACM 18, 1971).  A pseudo-division step replaces rem
    by (lc(y)/g) rem - (lead(rem)/g) t^s y with g = gcd(lc(y), lead(rem)),
    and each full remainder is divided by its content.  The result is
    primitive with a positive lead; gcd(0, 0) is the empty list.
    """
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        n, lc = len(y), y[-1]
        rem = x
        while len(rem) >= n:
            lead = rem[-1]
            g = math.gcd(lc, lead)
            p, q = lc // g, lead // g
            s = len(rem) - n
            rem = [p * c for c in rem[:s]] + [
                p * c - q * d for c, d in zip(rem[s:-1], y)
            ]
            while rem and not rem[-1]:
                rem.pop()
        x, y = y, primitive_part(rem)
    if y:  # a nonzero constant
        x = [1]
    if x and x[-1] < 0:
        x = [-c for c in x]
    return x


def _mul_ints(x: list, y: list) -> list:
    """Product of two integer coefficient lists (low degree first)."""
    if not x or not y:
        return []
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                out[k] += a * b
    return out


def _power_product_ints(powers: list, exponents, term=(1,)) -> list:
    """``term`` times the product of x ** e over paired columns and exponents.

    A column of ``powers`` is [[1], x, x^2, ...] for an integer list x, and
    grows on demand, so callers share each power across products.
    """
    term = list(term)
    for col, e in zip(powers, exponents):
        if e:
            while len(col) <= e:
                col.append(_mul_ints(col[-1], col[1]))
            term = _mul_ints(term, col[e])
    return term


def _combine_ints(coeffs: Sequence[int], lists: Sequence[list]) -> list:
    """The integer list sum of c x over paired integer coefficients and
    coefficient lists (low degree first), without trailing zeros."""
    out = [0] * max(map(len, lists), default=0)
    for c, x in zip(coeffs, lists):
        if c:
            for k, v in enumerate(x):
                out[k] += c * v
    while out and not out[-1]:
        out.pop()
    return out


def projective_compose(forms: Sequence[Polynomial], args: Sequence[list]) -> list:
    """The integer list of ``L^top K f(args)`` for each form f, without
    trailing zeros.

    ``args`` are coefficient lists (int or Fraction, low degree first), one
    per variable of the forms.  L clears every arg and K every coefficient
    of the forms, and a term x^e is scaled by L^(top - |e|), top the largest
    total degree |e|; as curve components the outputs give the map f(args),
    and ``curve_normalize`` strips L^top K.
    """
    if any(f.nvars != len(args) for f in forms):
        raise DimensionMismatchError("one substitution list per variable")
    den = math.lcm(*(c.denominator for x in args for c in x))
    scale = math.lcm(*(c.denominator for f in forms for c in f._terms.values()))
    top = max((sum(e) for f in forms for e in f._terms), default=0)
    powers = [[[1], [c.numerator * (den // c.denominator) for c in x]] for x in args]
    return [
        _combine_ints(
            [c.numerator * (scale // c.denominator) for c in f._terms.values()],
            [_power_product_ints(powers, e, [den ** (top - sum(e))]) for e in f._terms],
        )
        for f in forms
    ]


def poly_divexact_univariate(a: Polynomial, b: Polynomial) -> Polynomial:
    """The quotient a / b over Q; ValueError when b does not divide a."""
    (x, y), _ = integer_coefficients([a, b])
    if not y:
        raise ZeroDivisionError("polynomial division by zero")
    content = math.gcd(*y)
    quotient = _divexact_ints(x, [c // content for c in y])
    return Polynomial.from_coeffs([Fraction(c, content) for c in quotient])


# ---------------------------------------------------------------------------
# rational curves
# ---------------------------------------------------------------------------


def eval_homogeneous(lists: Sequence[list], pairs) -> list:
    """Integer value vectors of coefficient lists at homogeneous pairs.

    A pair (s : u) stands for t = s/u, and (1 : 0) for the point at
    infinity.  It is cleared to integers (S : U), and each list (low
    degree first), read as a form of the degree D of the longest list,
    gives sum_k c_k S^k U^(D-k); at (1 : 0) that is the leading vector.
    """
    top = max(len(x) for x in lists) - 1
    out = []
    for pair in pairs:
        (s, u), _ = clear_denominators(pair)
        weights = [s**k * u ** (top - k) for k in range(top + 1)]
        out.append([sum(c * w for c, w in zip(x, weights)) for x in lists])
    return out


class RationalCurve:
    """Rational map P^1 -> P^N given by N+1 univariate components.

    A curve is its integer coefficient lists (``integer_lists``, low degree
    first) over one positive denominator: 1 on a normalized curve, whose
    lists are primitive, and on a curve built from ``Polynomial``s the lcm
    of their coefficient denominators (``integer_coefficients``).
    Incidence, certification, evaluation and projection read nothing else;
    ``components`` is a view, the lists over the denominator as
    ``Polynomial``s, built on first read for reports and for callers that
    substitute into the components.

    ``params`` are homogeneous parameter pairs (s : u), t = s/u, one per
    point the curve was fitted through and in their order; they are claims
    that incidence checks (``rnc.curve_contains_point``), never trusts.
    Only ``curve_normalize`` marks a curve normalized; the constructor never
    does, and ``curve_from_lists`` builds a curve from integer lists through it.
    """

    __slots__ = ("_lists", "_den", "params", "_components", "_values", "_normalized")

    def __init__(self, components: Sequence[Polynomial], params=()):
        lists, den = integer_coefficients(tuple(components))
        if not any(lists):
            raise DegenerateCurveError("all curve components are zero")
        self._init(lists, den, params)

    def _init(self, lists, den, params, normalized=False):
        self._lists = lists
        self._den = den
        self.params = tuple((_as_fraction(s), _as_fraction(u)) for s, u in params)
        self._components = None
        self._values = None
        self._normalized = normalized

    @property
    def components(self) -> tuple:
        """The components as ``Polynomial``s: a view of the integer lists over
        the denominator, built on first read."""
        if self._components is None:
            self._components = tuple(
                Polynomial.from_coeffs([Fraction(c, self._den) for c in x]) for x in self._lists
            )
        return self._components

    @property
    def ambient_dim(self) -> int:
        return len(self._lists) - 1

    def degree(self) -> int:
        return max(len(x) for x in self._lists) - 1

    def eval(self, t) -> tuple:
        """The components at t: ``eval_homogeneous`` at (t : 1) cleared to
        (a : b), over the denominator times b^degree."""
        t = _as_fraction(t)
        (value,) = eval_homogeneous(self._lists, [(t, 1)])
        den = self._den * t.denominator ** self.degree()
        return tuple(Fraction(x, den) for x in value)

    def value_at_infinity(self) -> tuple:
        """Coefficient vector of t^degree across components."""
        d = self.degree()
        return tuple(Fraction(x[d] if len(x) > d else 0, self._den) for x in self._lists)

    def integer_lists(self) -> list:
        """The integer lists, shared (not to be changed); primitive for a
        normalized curve."""
        return self._lists

    def witness_values(self) -> list:
        """``eval_homogeneous`` of the integer lists at ``params``, computed
        once and shared (not to be changed)."""
        if self._values is None:
            self._values = eval_homogeneous(self._lists, self.params)
        return self._values

    def coefficient_vectors(self) -> list:
        """Exact coefficient lists (low degree first), one per component."""
        d = self.degree()
        return [
            [Fraction(x[k] if k < len(x) else 0, self._den) for k in range(d + 1)]
            for x in self._lists
        ]

    def __eq__(self, other):
        if not isinstance(other, RationalCurve):
            return NotImplemented
        return self._den == other._den and self._lists == other._lists

    def __repr__(self):
        body = ", ".join(c.to_text(["t"]) for c in self.components)
        return f"RationalCurve([{body}])"


def curve_normalize(curve: RationalCurve) -> RationalCurve:
    """Canonical form: gcd and content removed, first nonzero lead positive.

    A curve already marked normalized is returned as it is; the parameter
    pairs are kept, since the parameter does not change.  All-zero lists
    (as ``curve_from_lists`` may pass) raise DegenerateCurveError.
    """
    if curve._normalized:
        return curve
    lists = curve.integer_lists()
    g = None
    for x in lists:
        if not x:
            continue
        g = primitive_part(x) if g is None else _gcd_ints(g, primitive_part(x))
        if len(g) == 1:
            break
    if g is None:
        raise DegenerateCurveError("all curve components are zero")
    if len(g) > 1:
        lists = [_divexact_ints(x, g) if x else x for x in lists]
    content = math.gcd(*(c for x in lists for c in x))
    if next(x[-1] for x in lists if x) < 0:
        content = -content
    out = RationalCurve.__new__(RationalCurve)
    out._init([[c // content for c in x] for x in lists], 1, curve.params, True)
    return out


def curve_from_lists(lists: Sequence[list], params=()) -> RationalCurve:
    """The normalized curve whose components are the integer ``lists`` (low
    degree first, no trailing zeros), through ``curve_normalize``;
    DegenerateCurveError when there is none or every one is zero.
    """
    raw = RationalCurve.__new__(RationalCurve)
    raw._init(list(lists), 1, params)
    return curve_normalize(raw)
