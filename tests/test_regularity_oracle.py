"""``regularity_order`` against the loop it replaced.

The order-k osculator is spanned by the C(d+k, d) integer rows of orders
0..k, so k-regularity asks whether these rows have full rank.
``regularity_order`` stops once they outnumber the N+1 columns, without
building them, and below that ranks them with ``integer_rank``, which
certifies a full rank modulo a prime and ranks exactly only on a drop.
The reference is the earlier loop: the exact ``linalg.rank`` of the rows
of orders 0..k against ``math.comb`` at every k.  Both must give the same
order, or raise the same exception class and message.

The Veronese charts are regular at every point, so they run the modular
certificate alone; the scroll, cone and cubic charts drop rank at their
coordinate points, and the drawn maps (from ``test_verify.maps``) drop
rank everywhere or have base points, so those run the exact fallback.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import catalog, linalg
from rncgeom.catalog import ConeStandard, ScrollSpec, StandardScroll, Veronese
from rncgeom.linalg import _PRIME
from rncgeom.osculation import Parametrization, _rows_by_order, regularity_order
from rncgeom.poly import Polynomial
from rncgeom.sampling import rand_vector
from test_acceptance import MEMBERSHIP_CATALOG
from test_verify import maps


def reference_regularity_order(v, point):
    orders = _rows_by_order(v, point)
    rows = next(orders)
    for k, order_rows in enumerate(orders, start=1):
        rows.extend(order_rows)
        if linalg.rank(rows, v.ambient_dim + 1) != math.comb(v.nparams + k, v.nparams):
            return k - 1


def outcome(order_of, v, point):
    try:
        return order_of(v, point)
    except Exception as err:
        return type(err), str(err)


def coordinate_points(d):
    """The origin and, per axis, the points at 1, -1 and 2 on it."""
    return [(Fraction(0),) * d] + [
        tuple(Fraction(c * (i == j)) for j in range(d)) for i in range(d) for c in (1, -1, 2)
    ]


def exact_rank_calls(v, point) -> int:
    calls = []
    rank = linalg.rank

    def counting(rows, ncols=None):
        calls.append(len(rows))
        return rank(rows, ncols)

    with mock.patch.object(linalg, "rank", counting):
        regularity_order(v, point)
    return len(calls)


@pytest.mark.parametrize("spec", MEMBERSHIP_CATALOG, ids=repr)
def test_catalog_charts_at_coordinate_points(spec):
    v = catalog.make_variety(spec)
    for point in coordinate_points(v.nparams):
        assert outcome(regularity_order, v, point) == outcome(
            reference_regularity_order, v, point
        )


@st.composite
def maps_at_points(draw):
    d, comps = draw(maps())
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    point = draw(st.one_of(
        st.sampled_from(coordinate_points(d)),
        st.just(rand_vector(random.Random(0xA11CE), d)),  # a base point of "first"
        st.tuples(*[rational] * d),
    ))
    return Parametrization(d, comps, check=False), point


@settings(max_examples=200, deadline=None)
@given(maps_at_points())
def test_drawn_maps_with_base_points_and_rank_drops(case):
    v, point = case
    assert outcome(regularity_order, v, point) == outcome(reference_regularity_order, v, point)


class TestExactFallback:
    def test_veronese_is_certified_modulo_the_prime(self):
        v = catalog.make_variety(Veronese(3, 3))
        for point in coordinate_points(3):
            assert exact_rank_calls(v, point) == 0

    @pytest.mark.parametrize(
        "spec",
        [StandardScroll(ScrollSpec((2, 1)), 2, 1), ConeStandard(2, 6)],
        ids=repr,
    )
    def test_a_rank_drop_is_ranked_exactly(self, spec):
        v = catalog.make_variety(spec)
        point = coordinate_points(v.nparams)[0]
        assert exact_rank_calls(v, point) == 1
        assert regularity_order(v, point) == reference_regularity_order(v, point)

    def test_a_drop_modulo_the_prime_only(self):
        # (1 : t : p t^2) is a conic, regular to order 2, whose
        # last column vanishes modulo p
        t = Polynomial.variable(1, 0)
        v = Parametrization(1, [Polynomial.one(1), t, _PRIME * t**2])
        point = (Fraction(3, 2),)
        assert exact_rank_calls(v, point) == 1
        assert regularity_order(v, point) == reference_regularity_order(v, point) == 2
