"""Batch command-line front end.

Subcommands: pi-table, enumerate, build, osculate, fit, verify, witness.
Identical inputs (flags, seed, spec file) produce byte-identical output;
reports carry a ``schema`` version field.  Exit codes: 0 pass, 1 fail,
2 inconclusive, 64 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import catalog, rnc, verify
from .catalog import (
    ClassParams,
    ConeStandard,
    StandardScroll,
    build_A,
    build_A_cone,
    castelnuovo_bound,
    declared_class,
    json_int,
    json_ints,
    pi,
    pi_formula,
    spec_from_json,
    spec_to_json,
)
from .errors import RncGeomError, SpecError, SplittingFieldRequiredError
from .osculation import osculator
from .rnc import certify_curve
from .sampling import MAX_RETRIES

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dump_json(payload) -> None:
    _emit(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _parse_range(text: str):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return range(int(lo), int(hi) + 1)
        value = int(text)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return range(value, value + 1)


def _load_spec(args) -> object:
    raw = args.spec
    if raw is None:
        raise SpecError("--spec is required")
    if raw.strip().startswith("{"):
        text = raw
    else:
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise SpecError(str(exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    spec = spec_from_json(doc)
    unknown = sorted(set(doc) - {"family", "params", "declare"})
    if unknown:
        raise SpecError(f"unknown spec document keys {unknown}")
    declare = None
    if "declare" in doc:
        d = doc["declare"]
        try:
            declare = ClassParams(json_int(d["r"]), json_int(d["n"]), json_int(d["q"]))
            unknown = sorted(set(d) - {"r", "n", "q"})
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad declare block: {exc}") from exc
        if unknown:
            raise SpecError(f"bad declare block: unknown keys {unknown}")
    return spec, declare


def _parse_point(text: str):
    try:
        return tuple(Fraction(chunk.strip()) for chunk in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pi_table(args) -> int:
    rows = []
    for r in _parse_range(args.r):
        for n in _parse_range(args.n):
            for q in _parse_range(args.q):
                if q < n - 1:
                    continue
                value = pi(r, n, q)
                genus = castelnuovo_bound(r, n, q + r * (n - 1) + 2) - 1
                rows.append({"r": r, "n": n, "q": q, "pi": value, "castelnuovo": genus})
    if args.format == "json":
        _dump_json({"schema": verify.SCHEMA_VERSION, "kind": "pi-table", "rows": rows})
    else:
        _emit(f"{'r':>3} {'n':>3} {'q':>4} {'pi':>8} {'castelnuovo':>12}")
        for row in rows:
            _emit(
                f"{row['r']:>3} {row['n']:>3} {row['q']:>4} "
                f"{row['pi']:>8} {row['castelnuovo']:>12}"
            )
    return EXIT_PASS


def cmd_enumerate(args) -> int:
    try:
        doc = json.loads(args.index_set)
        kind = doc.get("type", "scroll")
        if kind == "scroll":
            a = catalog.ScrollSpec(json_ints(doc["a"]))
            rho, chi = json_int(doc["rho"]), json_int(doc["chi"])
        elif kind == "cone":
            r, q = json_int(doc["r"]), json_int(doc["q"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from exc
    if kind == "scroll":
        index_set = build_A(a, rho, chi)
        expected = pi_formula(StandardScroll(a, rho, chi).declared())
        flags = {}
        if chi == -1 and a.is_cone:
            flags["cone_identity"] = index_set == build_A(a, rho - 1, a.n - 2)
    elif kind == "cone":
        index_set = build_A_cone(r, q)
        expected = pi_formula(ConeStandard(r, q).declared())
        flags = {}
    else:
        raise SpecError(f"unknown index-set type {kind!r}")
    payload = {
        "schema": verify.SCHEMA_VERSION,
        "kind": "enumerate",
        "indices": [list(i) for i in index_set.sorted_indices()],
        "cardinality": len(index_set),
        "pi": expected,
        "pi_matches": len(index_set) == expected,
        "flags": flags,
    }
    if args.format == "json":
        _dump_json(payload)
    else:
        for idx in index_set.sorted_indices():
            _emit(" ".join(str(e) for e in idx))
        _emit(f"cardinality {len(index_set)}  pi {expected}  match {payload['pi_matches']}")
        for key, value in sorted(flags.items()):
            _emit(f"{key}: {value}")
    return EXIT_PASS if payload["pi_matches"] else EXIT_FAIL


def cmd_build(args) -> int:
    spec, _ = _load_spec(args)
    variety = catalog.make_variety(spec)
    params = declared_class(spec)
    names = [f"s{i + 1}" for i in range(variety.nparams)]
    comps = [c.to_text(names) for c in variety.components]
    payload = {
        "schema": verify.SCHEMA_VERSION,
        "kind": "build",
        "spec": spec_to_json(spec),
        "class": {"r": params.r, "n": params.n, "q": params.q},
        "ambient_dim": variety.ambient_dim,
        "span_dim": variety.span().dim,
        "components": comps,
    }
    if args.format == "json":
        _dump_json(payload)
    else:
        _emit(f"class (r, n, q) = ({params.r}, {params.n}, {params.q})")
        _emit(f"ambient P^{variety.ambient_dim}, span dim {payload['span_dim']}")
        for i, text in enumerate(comps):
            _emit(f"[{i}] {text}")
    return EXIT_PASS


def cmd_osculate(args) -> int:
    spec, _ = _load_spec(args)
    variety = catalog.make_variety(spec)
    point = _parse_point(args.point)
    if args.order < 0:
        raise SpecError("order must be non-negative")
    if len(point) != variety.nparams:
        raise SpecError(f"point needs {variety.nparams} coordinates, got {len(point)}")
    report = osculator(variety, point, args.order)
    payload = {
        "schema": verify.SCHEMA_VERSION,
        "kind": "osculate",
        "spec": spec_to_json(spec),
        "point": [str(x) for x in point],
        "report": report.to_json(),
    }
    if args.format == "json":
        _dump_json(payload)
    else:
        _emit(
            f"order {report.order}: dim {report.subspace.dim}, "
            f"regular {report.is_regular} "
            f"(expected dim+1 = {report.expected_dim_plus_1})"
        )
    return EXIT_PASS


def cmd_fit(args) -> int:
    spec, _ = _load_spec(args)
    variety = catalog.make_variety(spec)
    params = declared_class(spec)
    rng = random.Random(args.seed)
    last_error = None
    for _ in range(MAX_RETRIES + 1):
        try:
            points = rnc.sample_parameter_points(spec, rng)
            curve = rnc.fit_rnc_through(spec, points)
            break
        except verify.RESAMPLE_ERRORS as exc:
            last_error = exc
    else:
        raise last_error
    cert = certify_curve(curve)
    incidence = all(rnc.curve_contains_point(curve, variety.eval(p)) for p in points)
    payload = {
        "schema": verify.SCHEMA_VERSION,
        "kind": "fit",
        "spec": spec_to_json(spec),
        "class": {"r": params.r, "n": params.n, "q": params.q},
        "points": [[str(x) for x in p] for p in points],
        "certificate": cert.to_json(),
        "incidence": incidence,
        "curve": [c.to_text(["t"]) for c in curve.components],
        "curve_coefficients": [
            [str(x) for x in row] for row in curve.coefficient_vectors()
        ],
    }
    if args.format == "json":
        _dump_json(payload)
    else:
        _emit(
            f"degree {cert.degree}, span {cert.span_dim}, rnc {cert.is_rnc}, "
            f"incidence {incidence}"
        )
        for i, text in enumerate(payload["curve"]):
            _emit(f"[{i}] {text}")
    return EXIT_PASS if cert.is_rnc and incidence else EXIT_FAIL


def cmd_verify(args) -> int:
    spec, declare = _load_spec(args)
    if args.trials < 1:
        raise SpecError("--trials must be at least 1")
    report = verify.verify_membership(
        spec, trials=args.trials, seed=args.seed, declare=declare
    )
    payload = report.to_json()
    if args.format == "json":
        _dump_json(payload)
    else:
        _emit(f"spec:    {json.dumps(payload['spec'], sort_keys=True)}")
        _emit(f"class:   {payload['class']}")
        _emit(f"span:    {payload['span']}")
        _emit(f"trials:  {len(payload['trials'])}")
        _emit(f"verdict: {payload['verdict']}")
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_witness(args) -> int:
    spec, _ = _load_spec(args)
    witness = verify.specialness_witness(spec)
    payload = witness.to_json()
    if args.format == "json":
        _dump_json(payload)
    else:
        _emit(
            f"{payload['witness']}: measured {payload['measured']} vs "
            f"standard {payload['standard_reference']} -> {payload['verdict']}"
        )
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rncgeom",
        description="Exact constructions and checks for rational normal "
        "curve geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec=True, seed=False, trials=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        if trials:
            p.add_argument("--trials", type=int, default=20, help="number of trials")
        p.add_argument(
            "--format", choices=("table", "json"), default="table", help="output format"
        )
        if spec:
            p.add_argument(
                "--spec",
                help="path to a JSON variety spec, or an inline JSON object",
            )

    p = sub.add_parser("pi-table", help="span-dimension and genus-bound table")
    add_common(p, spec=False)
    p.add_argument("--r", default="1:4")
    p.add_argument("--n", default="2:6")
    p.add_argument("--q", default="1:12")
    p.set_defaults(func=cmd_pi_table)

    p = sub.add_parser("enumerate", help="list a monomial index set")
    add_common(p, spec=False)
    p.add_argument(
        "--index-set",
        required=True,
        help='JSON like {"type":"scroll","a":[1,1],"rho":1,"chi":0} '
        'or {"type":"cone","r":2,"q":4}',
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("build", help="print a variety parametrization")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("osculate", help="osculating space at a parameter point")
    add_common(p)
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_osculate)

    p = sub.add_parser("fit", help="fit a rational normal curve through random points")
    add_common(p, seed=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="membership verification campaign")
    add_common(p, seed=True, trials=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="specialness witness for a spec")
    add_common(p)
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; map to the usage code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SpecError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SplittingFieldRequiredError as exc:
        # a real limit of the rational construction, as in the campaigns
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONCLUSIVE
    except RncGeomError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
