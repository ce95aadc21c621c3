"""The benchmark's workloads: job classes, seeded inputs and exact-output checks.

A workload is a list of job classes, each with a weight (jobs per round).
Every class owns a pool of input sets, generated with the standard library
from the class key and the pool index alone.  The run seed sets the order in
which each class walks through a shuffled pool (no input repeats until the
pool is used up) and the order of jobs within a round.  The pool is finite so
that every input has a reference digest of its exact output, recorded at the
seed commit in ``reference.json`` (see ``record.py``).

A job's result is checked twice: by the mathematical facts it must satisfy
(verdicts, certificates, incidences, dimensions) and by the SHA-256 digest
of its exact output against the reference.

The library is always reached through module attributes
(``rncgeom.rnc.rnc_through_points``, never a name bound here), so that the
traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import rncgeom
from rncgeom import catalog, gstructure, linalg, osculation, rnc, verify
from rncgeom.errors import DimensionMismatchError, GeneralPositionError

# Heights of rncgeom.sampling (NUMERATOR_RANGE, DENOMINATORS), copied so that
# generating inputs runs no code of the library under test.
NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)

MAX_REDRAWS = 8  # redraws of a degenerate draw before the job counts as failed
# Job sizes keep about ten jobs or more beyond each workload's tail
# percentile even when the host runs twice as slow (run.py reports the count).
MEMBERSHIP_TRIALS = 3
PROJECTION_TRIALS = 2  # as in the acceptance projection suite
REGULARITY_POINTS = 5  # as in the acceptance osculation suite
UNIQUENESS_PARAMS = (Fraction(2), Fraction(3))  # second Moebius choice, acceptance-style

# Copy of MEMBERSHIP_CATALOG in tests/test_acceptance.py: all 8 families, q = 2..9.
MEMBERSHIP_SPECS = [
    {"family": "Veronese", "params": {"dim": 2, "order": 2}},
    {"family": "Veronese", "params": {"dim": 2, "order": 3}},
    {"family": "Veronese", "params": {"dim": 3, "order": 2}},
    {"family": "Veronese", "params": {"dim": 3, "order": 3}},
    {"family": "Scroll", "params": {"a": [1, 1]}},
    {"family": "Scroll", "params": {"a": [2, 1]}},
    {"family": "Scroll", "params": {"a": [1, 1, 1]}},
    {"family": "Scroll", "params": {"a": [2, 2]}},
    {"family": "Scroll", "params": {"a": [2, 1, 1]}},
    {"family": "Scroll", "params": {"a": [2, 2, 1]}},
    {"family": "StandardScroll", "params": {"a": [1, 1], "rho": 2, "chi": 0}},
    {"family": "StandardScroll", "params": {"a": [1, 1], "rho": 3, "chi": -1}},
    {"family": "StandardScroll", "params": {"a": [2, 1], "rho": 1, "chi": 1}},
    {"family": "StandardScroll", "params": {"a": [1, 1, 1], "rho": 2, "chi": 1}},
    {"family": "StandardScroll", "params": {"a": [2, 2, 1], "rho": 1, "chi": 4}},
    {"family": "ConeStandard", "params": {"r": 1, "q": 4}},
    {"family": "ConeStandard", "params": {"r": 1, "q": 6}},
    {"family": "ConeStandard", "params": {"r": 2, "q": 4}},
    {"family": "ConeStandard", "params": {"r": 2, "q": 6}},
    {"family": "QuadricVeronese", "params": {"r": 3, "rho": 1, "rank": 5}},
    {"family": "QuadricVeronese", "params": {"r": 3, "rho": 2, "rank": 5}},
    {"family": "QuadricVeronese", "params": {"r": 3, "rho": 2, "rank": 6}},
    {"family": "SegreSpecial", "params": {"r": 2, "mu": 3}},
    {"family": "SegreSpecial", "params": {"r": 2, "mu": 4}},
    {"family": "SegreSpecial", "params": {"r": 3, "mu": 5}},
    {"family": "CubicSpecial", "params": {"r": 2, "mu_prime": 2}},
    {"family": "CubicSpecial", "params": {"r": 3, "mu_prime": 2}},
    {"family": "Veronese33", "params": {}},
]

# The catalog specs of the standard families with n >= 3, as in the
# acceptance projection suite.
PROJECTION_FAMILIES = ("Scroll", "StandardScroll", "ConeStandard", "QuadricVeronese")

def spec_key(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(*NUMERATOR_RANGE), rng.choice(DENOMINATORS))


def rand_vector(rng: random.Random, length: int) -> tuple:
    return tuple(rand_rational(rng) for _ in range(length))


def digest(payload) -> str:
    """First 16 hex digits of the SHA-256 of a canonical JSON form, or of bytes."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _fracs(rows) -> list:
    return [[str(x) for x in row] for row in rows]


@dataclass(frozen=True)
class JobClass:
    """One kind of job: ``make(index)`` builds pool input ``index``;
    ``run(inputs)`` calls the library and is the timed part; ``check(inputs,
    result)`` returns ``(digest, ok)``."""

    key: str
    weight: int
    make: Callable
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple
    pool: int  # input sets per class, enough that a run repeats none
    # job_ms.tail: the highest of p50/75/90/95/99 with at least ten jobs
    # beyond it at the baseline's job count (seed 2024, 36 s); fixed, so that
    # a faster or slower commit reports the same percentile
    tail_percentile: int


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _membership_class(doc) -> JobClass:
    spec = catalog.spec_from_json(doc)

    def run(seed):
        return verify.verify_membership(spec, trials=MEMBERSHIP_TRIALS, seed=seed)

    def check(seed, report):
        payload = report.to_json()
        q = payload["class"]["q"]
        ok = (
            payload["verdict"] == "pass"
            and report.span_found == report.span_expected
            and len(report.trials) == MEMBERSHIP_TRIALS
            and all(
                t["fit"] == "ok"
                and t["certificate"]["is_rnc"]
                and t["certificate"]["degree"] == q
                and t["incidence"]
                for t in report.trials
            )
        )
        return digest(payload), ok

    return JobClass(spec_key(doc), 1, lambda index: index, run, check)


# ---------------------------------------------------------------------------
# tensor structures
# ---------------------------------------------------------------------------


def _codim_subspaces(rng, r, n):
    dim = r * n
    return [[rand_vector(rng, dim) for _ in range(dim - r)] for _ in range(n + 1)]


def _tensor_class(r: int, n: int, weight: int) -> JobClass:
    key = f"r={r} n={n} dim={r * n}"
    dim = r * n

    def make(index):
        rng = random.Random(f"tensor:{key}:{index}")
        subs = _codim_subspaces(rng, r, n)
        t = rand_vector(rng, n)
        u = rand_vector(rng, r)
        while not any(u):
            u = rand_vector(rng, r)
        return {"index": index, "subs": subs, "t": t, "u": u, "mix_seed": rng.getrandbits(32)}

    def run(inp):
        subs = inp["subs"]
        redraws = 0
        while True:
            try:
                structure = gstructure.construct_structure(subs)
                break
            except (GeneralPositionError, DimensionMismatchError):
                # a degenerate draw: the library rejects it, the job redraws
                redraws += 1
                if redraws > MAX_REDRAWS:
                    raise
                rng = random.Random(f"tensor:{key}:{inp['index']}:redraw{redraws}")
                subs = _codim_subspaces(rng, r, n)
        types = [gstructure.is_type_subspace(structure, sub) for sub in subs]
        other = gstructure.construct_structure(subs, rng=random.Random(inp["mix_seed"]))
        relation = gstructure.grn_relation(structure, other)
        t_rows = structure.type_subspace_rows(inp["t"])
        u_rows = structure.left_type_subspace(inp["u"])
        meet = linalg.nullspace(list(t_rows) + list(u_rows), dim)
        return structure, types, relation, meet, redraws

    def check(inp, result):
        structure, types, relation, meet, redraws = result
        unit = [tuple(Fraction(int(i == a)) for i in range(n)) for a in range(n)]
        ok = (
            types[0] is not None
            and all(types[a + 1] == unit[a] for a in range(n))
            and relation is not None
            and len(meet) == (r - 1) * (n - 1)
        )
        payload = {
            "m": _fracs(structure.m.entries),
            "t": [None if t is None else [str(x) for x in t] for t in types],
            "relation": None
            if relation is None
            else [_fracs(relation[0].entries), _fracs(relation[1].entries)],
            "meet": _fracs(meet),
            "redraws": redraws,
        }
        return digest(payload), ok

    return JobClass(key, weight, make, run, check)


# ---------------------------------------------------------------------------
# interpolation and osculation
# ---------------------------------------------------------------------------


def _interp_points(rng, d):
    return [(Fraction(1),) + rand_vector(rng, d) for _ in range(d + 3)]


def _interp_class(d: int, weight: int) -> JobClass:
    key = f"rnc_through_points d={d}"

    def make(index):
        return {"index": index, "points": _interp_points(random.Random(f"interp:{key}:{index}"), d)}

    def run(inp):
        points = inp["points"]
        redraws = 0
        while True:
            try:
                curve = rnc.rnc_through_points(d, points)
                break
            except GeneralPositionError:
                redraws += 1
                if redraws > MAX_REDRAWS:
                    raise
                rng = random.Random(f"interp:{key}:{inp['index']}:redraw{redraws}")
                points = _interp_points(rng, d)
        cert = rnc.certify_curve(curve)
        incidence = [
            rnc.curve_contains_point(curve, p, assume_normalized=True) for p in points
        ]
        # projective uniqueness: another Moebius choice gives the same point set
        other = rnc.rnc_through_points(d, points, free_params=UNIQUENESS_PARAMS)
        same = [
            rnc.curve_contains_point(other, curve.eval(t))
            for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3))
        ]
        return curve, cert, incidence + same, redraws

    def check(inp, result):
        curve, cert, incidence, redraws = result
        ok = cert.degree == d and cert.span_dim == d and cert.is_rnc and all(incidence)
        payload = {
            "curve": _fracs(curve.coefficient_vectors()),
            "certificate": cert.to_json(),
            "incidence": incidence,
            "redraws": redraws,
        }
        return digest(payload), ok

    return JobClass(key, weight, make, run, check)


def _projection_class(doc) -> JobClass:
    spec = catalog.spec_from_json(doc)

    def run(seed):
        return verify.verify_veronese_projection(spec, trials=PROJECTION_TRIALS, seed=seed)

    def check(seed, report):
        payload = report.to_json()
        ok = payload["verdict"] == "pass" and len(report.trials) == PROJECTION_TRIALS
        return digest(payload), ok

    return JobClass("projection " + spec_key(doc), 1, lambda index: index, run, check)


def _regularity_class(dim: int, order: int) -> JobClass:
    key = f"regularity_order Veronese dim={dim} order={order}"
    spec = catalog.Veronese(dim, order)

    def make(index):
        rng = random.Random(f"osc:{key}:{index}")
        return [rand_vector(rng, dim) for _ in range(REGULARITY_POINTS)]

    def run(points):
        variety = catalog.make_variety(spec)
        return [osculation.regularity_order(variety, p) for p in points]

    def check(points, orders):
        return digest(orders), all(k == order for k in orders)

    return JobClass(key, 1, make, run, check)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _membership():
    return Workload(
        "membership",
        "the acceptance catalog of verify_membership: poly gcd through "
        "curve_contains_point and the rnc fitters on the critical path",
        tuple(_membership_class(doc) for doc in MEMBERSHIP_SPECS),
        pool=64,
        tail_percentile=95,
    )


def _tensor():
    # A round (about 11 s) has 14 light cases (up to 0.06 s), 8 of r=3 n=3
    # and r=2 n=4 (about 0.16 s), r=4 n=3 (0.4 s), 12 of r=3 n=4 (about
    # 0.57 s) and r=4 n=4 (about 2 s).  Over three rounds, job_ms.p50 falls
    # in the middle of the 0.16 s cases and the p90 tail inside the r=3 n=4
    # ones, eight jobs from the r=4 n=4 ones, not on a boundary between
    # classes of unlike cost.
    light = {(r, n): 2 for r in range(1, 5) for n in range(2, 5) if r * n <= 8}
    weights = {**light, (3, 3): 4, (2, 4): 4, (3, 4): 12}
    return Workload(
        "tensor",
        "tensor-structure cases, r <= 4, n <= 4: rref on dense matrices where "
        "coefficients grow, and no poly calls (the bypass for poly changes)",
        tuple(
            _tensor_class(r, n, weights.get((r, n), 1))
            for r in range(1, 5)
            for n in range(2, 5)
        ),
        pool=64,
        tail_percentile=90,
    )


def _interp_osc():
    projection = []
    for doc in MEMBERSHIP_SPECS:
        if doc["family"] in PROJECTION_FAMILIES:
            if catalog.declared_class(catalog.spec_from_json(doc)).n >= 3:
                projection.append(_projection_class(doc))
    return Workload(
        "interp_osc",
        "interpolation through d+3 points, osculating projections and "
        "regularity orders: many rref calls on matrices of at most 6 columns",
        tuple(_interp_class(d, 4) for d in range(1, 6))
        + tuple(projection)
        + tuple(_regularity_class(dim, order) for dim in (1, 2, 3) for order in (1, 2, 3)),
        pool=64,
        tail_percentile=95,
    )


WORKLOADS = {"membership": _membership, "tensor": _tensor, "interp_osc": _interp_osc}


def build(name: str) -> Workload:
    return WORKLOADS[name]()


def make_pool(workload: Workload) -> dict:
    """Inputs of every pool entry of every class: {class key: [input, ...]}."""
    return {cls.key: [cls.make(i) for i in range(workload.pool)] for cls in workload.classes}


def rounds(workload: Workload, seed: int):
    """Endless seeded sequence of rounds; a round is a shuffled list of
    ``(class, pool index)`` with each class repeated by its weight."""
    rng = random.Random(f"{workload.name}:{seed}")
    order = {cls.key: [] for cls in workload.classes}
    while True:
        jobs = []
        for cls in workload.classes:
            for _ in range(cls.weight):
                if not order[cls.key]:
                    order[cls.key] = rng.sample(range(workload.pool), workload.pool)
                jobs.append((cls, order[cls.key].pop()))
        rng.shuffle(jobs)
        yield jobs
