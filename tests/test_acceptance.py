"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All checks are exact (tolerance zero); randomized
parts are seeded and resample on genericity failures.
"""

import functools
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from rncgeom import catalog, rnc, verify
from rncgeom.catalog import (
    ClassParams,
    ConeStandard,
    CubicSpecial,
    I_formula,
    QuadricVeronese,
    Scroll,
    ScrollSpec,
    SegreSpecial,
    StandardScroll,
    Veronese,
    Veronese33,
    binom,
    build_A,
    castelnuovo_bound,
    declared_class,
    pi,
)
from rncgeom.errors import GeneralPositionError
from rncgeom.gstructure import construct_structure, grn_relation, is_type_subspace
from rncgeom.linalg import QMatrix, nullspace, rank, span_of, try_direct_sum
from rncgeom.osculation import Parametrization, osculator, regularity_order
from rncgeom.poly import Polynomial, RationalCurve
from rncgeom.rnc import certify_curve, curve_contains_point, rnc_through_points
from rncgeom.sampling import rand_invertible_matrix, rand_vector


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


def balanced_scroll(r, n):
    total, parts = n - 1, r + 1
    base, extra = divmod(total, parts)
    return ScrollSpec(tuple(base + (1 if i < extra else 0) for i in range(parts)))


# ---------------------------------------------------------------------------
# 1. formula suite
# ---------------------------------------------------------------------------


@criterion(1, "formula suite")
def test_formula_suite():
    for r in range(1, 5):
        for n in range(2, 7):
            cone = ScrollSpec((n - 1,) + (0,) * r)
            shapes = {cone.degrees, balanced_scroll(r, n).degrees}
            for q in range(n - 1, 13):
                params = ClassParams(r, n, q)
                target = pi(r, n, q) + 1

                # (a) card A + 1 = pi + 1 on the Euclidean branch and,
                # when q = -1 mod n-1, on the (rho+1, -1) branch too
                for degrees in shapes:
                    a = ScrollSpec(degrees)
                    assert len(build_A(a, params.rho, params.chi)) + 1 == target
                    alt = params.alternate_branch()
                    if alt is not None:
                        assert len(build_A(a, alt[0], alt[1])) + 1 == target

                # (b) Castelnuovo-Harris identity
                d = q + r * (n - 1) + 2
                assert castelnuovo_bound(r, n, d) == target

            # (c) I(rho, chi) is maximal over chi exactly on {-1..n-2}.
            # The claim concerns general scrolls (a_0 < n-1), which exist
            # only for n >= 3; checked on the extreme and balanced shapes.
            if n >= 3:
                generals = {ScrollSpec((n - 2, 1) + (0,) * (r - 1)).degrees}
                balanced = balanced_scroll(r, n)
                if not balanced.is_cone:
                    generals.add(balanced.degrees)
                for degrees in generals:
                    general = ScrollSpec(degrees)
                    for q in range(n - 1, 13):
                        values = {}
                        for chi in range(-6, n + 5):
                            if (q - chi) % (n - 1):
                                continue
                            rho = (q - chi) // (n - 1)
                            if rho < 1:
                                continue
                            values[chi] = I_formula(general, rho, chi)
                        best = max(values.values())
                        winners = {chi for chi, v in values.items() if v == best}
                        expected = {chi for chi in values if -1 <= chi <= n - 2}
                        assert winners == expected and best == pi(r, n, q) + 1

        # (d) the quadric-system identity of the n = 3 classification
        for rho in range(1, 7):
            assert binom(r + 1 + rho, r + 1) + binom(r + rho, r + 1) - 1 == pi(
                r, 3, 2 * rho
            )


# ---------------------------------------------------------------------------
# 2. membership suite
# ---------------------------------------------------------------------------

MEMBERSHIP_CATALOG = [
    Veronese(2, 2),
    Veronese(2, 3),
    Veronese(3, 2),
    Veronese(3, 3),
    Scroll(ScrollSpec((1, 1))),
    Scroll(ScrollSpec((2, 1))),
    Scroll(ScrollSpec((1, 1, 1))),
    Scroll(ScrollSpec((2, 2))),
    Scroll(ScrollSpec((2, 1, 1))),
    Scroll(ScrollSpec((2, 2, 1))),
    StandardScroll(ScrollSpec((1, 1)), 2, 0),
    StandardScroll(ScrollSpec((1, 1)), 3, -1),
    StandardScroll(ScrollSpec((2, 1)), 1, 1),
    StandardScroll(ScrollSpec((1, 1, 1)), 2, 1),
    StandardScroll(ScrollSpec((2, 2, 1)), 1, 4),
    ConeStandard(1, 4),
    ConeStandard(1, 6),
    ConeStandard(2, 4),
    ConeStandard(2, 6),
    QuadricVeronese(3, 1, 5),
    QuadricVeronese(3, 2, 5),
    QuadricVeronese(3, 2, 6),
    SegreSpecial(2, 3),
    SegreSpecial(2, 4),
    SegreSpecial(3, 5),
    CubicSpecial(2, 2),
    CubicSpecial(3, 2),
    Veronese33(),
]


@criterion(2, "membership suite")
def test_membership_suite():
    assert len(MEMBERSHIP_CATALOG) >= 12
    for spec in MEMBERSHIP_CATALOG:
        report = verify.verify_membership(spec, trials=20, seed=2024)
        assert report.verdict == "pass", (spec, report.to_json())
        assert report.span_found == report.span_expected
        for trial in report.trials:
            assert trial["fit"] == "ok"
            assert trial["certificate"]["is_rnc"]
            assert trial["certificate"]["degree"] == declared_class(spec).q
            assert trial["incidence"]


# ---------------------------------------------------------------------------
# 3. osculation suite
# ---------------------------------------------------------------------------


@criterion(3, "osculation suite")
def test_osculation_suite():
    rng = random.Random(3)

    # Veroneses of order q are q- but not (q+1)-regular at 5 random points
    for d in (1, 2, 3):
        for q in (1, 2, 3):
            variety = catalog.make_variety(Veronese(d, q))
            for _ in range(5):
                point = rand_vector(rng, d)
                assert regularity_order(variety, point) == q

    # projective invariance of osculators under 10 random projectivities
    variety = catalog.make_variety(Veronese(2, 2))
    for _ in range(10):
        point = rand_vector(rng, 2)
        rep = osculator(variety, point, 2)
        # the draw's integer rows: the same projectivity as rows over its denominator
        g = QMatrix(rand_invertible_matrix(rng, variety.ambient_dim + 1)[0])
        moved = Parametrization(
            variety.nparams,
            [
                sum(
                    (
                        comp.scale(g.entries[i][j])
                        for j, comp in enumerate(variety.components)
                    ),
                    Polynomial.zero(variety.nparams),
                )
                for i in range(variety.ambient_dim + 1)
            ],
        )
        transported = span_of(
            [g.matvec(row) for row in rep.subspace.basis], variety.ambient_dim
        )
        assert osculator(moved, point, 2).subspace == transported

    # projection compatibility on 10 random (variety, center) pairs
    pool = [
        catalog.make_variety(s)
        for s in (
            Veronese(2, 2),
            Scroll(ScrollSpec((2, 1))),
            SegreSpecial(2, 4),
            StandardScroll(ScrollSpec((1, 1)), 2, 0),
        )
    ]
    from rncgeom.linalg import projection_from

    done = 0
    while done < 10:
        variety = pool[done % len(pool)]
        point = rand_vector(rng, variety.nparams)
        k = 1 + done % 2
        rep = osculator(variety, point, k)
        if rep.subspace.dim + 1 >= variety.ambient_dim:
            done += 1
            continue
        center = span_of(
            [rand_vector(rng, variety.ambient_dim + 1)], variety.ambient_dim
        )
        ok, _, _ = try_direct_sum([center, rep.subspace])
        if not ok:
            continue
        proj = projection_from(center)
        image = Parametrization(
            variety.nparams, proj.apply_polys(list(variety.components))
        )
        assert osculator(image, point, k).subspace == proj.image_of(rep.subspace)
        done += 1

    # direct-sum decompositions of <C> for every composition, degrees <= 6
    for degree in range(1, 7):
        curve = Parametrization.from_curve(
            RationalCurve(
                [Polynomial.univariate([0] * k + [1]) for k in range(degree + 1)]
            )
        )
        cache = {}

        def osc(t, order):
            key = (t, order)
            if key not in cache:
                cache[key] = osculator(curve, (t,), order).subspace
            return cache[key]

        points = []
        while len(points) < degree + 1:
            t = rand_vector(rng, 1)[0]
            if t not in points:
                points.append(t)
        for parts in range(1, degree + 2):
            for cuts in itertools.combinations(range(1, degree + 1), parts - 1):
                orders = []
                prev = 0
                for cut in list(cuts) + [degree + 1]:
                    orders.append(cut - prev - 1)
                    prev = cut
                subs = [osc(points[i], orders[i]) for i in range(len(orders))]
                ok, joined, _ = try_direct_sum(subs)
                assert ok and joined.dim == degree, (degree, orders)


# ---------------------------------------------------------------------------
# 4. projection suite
# ---------------------------------------------------------------------------


@criterion(4, "projection suite")
def test_projection_suite():
    standards = [
        spec
        for spec in MEMBERSHIP_CATALOG
        if isinstance(spec, (Scroll, StandardScroll, ConeStandard, QuadricVeronese))
        and declared_class(spec).n >= 3
    ]
    assert standards
    for spec in standards:
        report = verify.verify_veronese_projection(spec, trials=2, seed=4)
        assert report.verdict == "pass", (spec, report.to_json())
        for trial in report.trials:
            assert trial["image_span"]["found"] == trial["image_span"]["expected"]
            assert trial["projected_curve"]["is_rnc"]
            assert trial["projected_curve"]["degree"] == report.ponderation[-1]
            if "single_point_span" in trial:
                assert (
                    trial["single_point_span"]["found"]
                    == trial["single_point_span"]["expected"]
                )


# ---------------------------------------------------------------------------
# 5. specialness suite
# ---------------------------------------------------------------------------


@criterion(5, "specialness suite")
def test_specialness_suite():
    # Veronese(3,3) is 3-regular; both standard models of the class are not
    w = verify.specialness_witness(Veronese33())
    assert w.verdict == "special" and w.measured == 3
    assert all(order < 3 for order in w.details["standard_orders"].values())
    assert set(w.details["standard_orders"]) == {"A(1,4)", "A(2,-1)"}

    # Segre models: contact dimension max(1, r-1) < r, controls measure r
    for r in (2, 3):
        w = verify.specialness_witness(SegreSpecial(r, r + 2))
        assert w.verdict == "special"
        assert w.measured == max(1, r - 1) and w.standard_reference == r
        control = StandardScroll(ScrollSpec((1, 1) + (0,) * (r - 1)), 1, 1)
        cw = verify.specialness_witness(control)
        assert cw.verdict == "standard-compatible" and cw.measured == r
        assert w.measured < cw.measured

    # cubic models: contact dimension r-1 against a standard control
    w = verify.specialness_witness(CubicSpecial(2, 2))
    assert w.verdict == "special" and w.measured == 1
    control = StandardScroll(ScrollSpec((1, 1, 1)), 1, 2)
    cw = verify.specialness_witness(control)
    assert cw.verdict == "standard-compatible" and cw.measured == 2

    # scroll-model relations on the q = -1 mod n-1 branch
    assert verify.inequivalence_invariants(ScrollSpec((4, 0, 0, 0)), 2).relation == "equal-sets"
    assert verify.inequivalence_invariants(ScrollSpec((1, 1)), 2).relation == "swap-equivalent"
    sep = verify.inequivalence_invariants(ScrollSpec((2, 1, 1)), 2)
    assert sep.relation == "inequivalent"
    assert sep.details["codimension_ge_2"]
    assert sep.details["contact_dim_A(rho-1,n-2)"] == 2


# ---------------------------------------------------------------------------
# 6. tensor-structure suite
# ---------------------------------------------------------------------------


@criterion(6, "tensor-structure suite")
def test_tensor_structure_suite():
    for r in range(1, 5):
        for n in range(2, 5):
            dim = r * n
            for seed in range(10):
                rng = random.Random(600 + 37 * seed + 7 * r + n)

                def codim_r():
                    while True:
                        rows = [rand_vector(rng, dim) for _ in range(dim - r)]
                        if rank(rows, dim) == dim - r:
                            return rows

                structure = None
                for _ in range(10):
                    subs = [codim_r() for _ in range(n + 1)]
                    try:
                        structure = construct_structure(subs)
                        break
                    except GeneralPositionError:
                        continue
                assert structure is not None

                for alpha, sub in enumerate(subs):
                    t = is_type_subspace(structure, sub)
                    assert t is not None
                    if alpha >= 1:
                        expected = tuple(
                            F(1) if i == alpha - 1 else F(0) for i in range(n)
                        )
                        assert t == expected

                other = construct_structure(subs, rng=rng)
                assert grn_relation(structure, other) is not None

                t_rows = structure.type_subspace_rows(rand_vector(rng, n))
                u = rand_vector(rng, r)
                while all(x == 0 for x in u):
                    u = rand_vector(rng, r)
                u_rows = structure.left_type_subspace(u)
                meet = nullspace(list(t_rows) + list(u_rows), dim)
                assert len(meet) == (r - 1) * (n - 1)


# ---------------------------------------------------------------------------
# 7. interpolation suite
# ---------------------------------------------------------------------------


@criterion(7, "interpolation suite")
def test_interpolation_suite():
    for d in range(1, 6):
        for seed in range(20):
            rng = random.Random(700 + 31 * seed + d)
            while True:
                points = [
                    (F(1),) + rand_vector(rng, d) for _ in range(d + 3)
                ]
                try:
                    curve = rnc_through_points(d, points)
                    break
                except GeneralPositionError:
                    continue
            cert = certify_curve(curve)
            assert cert.degree == d and cert.span_dim == d and cert.is_rnc
            for p in points:
                assert curve_contains_point(curve, p, assume_normalized=True)
            # projective uniqueness across internal free-parameter choices
            other = rnc_through_points(
                d, points, free_params=(F(seed % 5), F(seed % 3 + 1))
            )
            for t in (F(0), F(1), F(-2), F(1, 3)):
                assert curve_contains_point(other, curve.eval(t))


# ---------------------------------------------------------------------------
# 8. CLI determinism and exit codes
# ---------------------------------------------------------------------------


def _run_cli(argv):
    from rncgeom.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@criterion(8, "cli determinism")
def test_cli_determinism():
    spec = json.dumps(
        {"family": "StandardScroll", "params": {"a": [1, 1], "rho": 2, "chi": 0}}
    )
    argv = ["verify", "--spec", spec, "--trials", "4", "--seed", "99", "--format", "json"]
    code1, out1 = _run_cli(argv)
    code2, out2 = _run_cli(argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert json.loads(out1)["verdict"] == "pass"

    # exit-code contract: pass, forced fail (wrong declared q), malformed
    fail_spec = json.dumps(
        {
            "family": "Scroll",
            "params": {"a": [1, 1]},
            "declare": {"r": 1, "n": 3, "q": 6},
        }
    )
    code, out = _run_cli(["verify", "--spec", fail_spec, "--trials", "1", "--format", "json"])
    assert code == 1 and json.loads(out)["verdict"] == "fail"

    code, _ = _run_cli(["verify", "--spec", '{"family": "What"}'])
    assert code == 64

    code, _ = _run_cli(["verify", "--spec", "{broken json"])
    assert code == 64
