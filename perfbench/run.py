"""Benchmark of rncgeom: end-to-end metrics, exact-output checks, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload membership --seed 2024 --seconds 36 --trace 0

Workloads: membership, tensor, interp_osc (see ``workloads.py``).  The run
imports ``rncgeom`` from ``src/`` of the checkout and generates the inputs
from the seed, then runs whole rounds of jobs, one at a time in this single
process, until ``--seconds`` have passed (to the nearest round boundary).
Every job's exact output is checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics: throughput_jobs_per_s, job_ms.p50,
job_ms.tail (a percentile fixed per workload; the report line names it),
setup_s (the fastest of several set-ups in fresh processes, each from process
start to the first job, spread over the timed pass), peak_rss_mb and
failed_ratio.  ``--trace 1`` runs the same rounds untraced and then traced,
with wrappers installed from outside on every layer (``tracing.py``), and
prints the per-layer metrics.  Spans and per-job records go to
``perfbench/out/``.

Seeds: the recorded baseline (``BENCH_baseline.json``) uses seed 2024, and
seed 2025 is held out to confirm later claims.  The numbers move with the
seed, so two commits are only ever compared on the same seed.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when any job failed its check.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("membership", "tensor", "interp_osc")
BASELINE_SEED = 2024
HELD_OUT_SEED = 2025
SETUP_SAMPLES = 6
IMPORT_SAMPLES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


@dataclass
class Pass:
    """One timed pass: the rounds it ran and, per job, its seconds and verdict."""

    rounds: list
    jobs: list  # (class key, pool index)
    seconds: list
    oks: list
    wall: float

    def dump(self):
        return [[key, index, t, ok]
                for (key, index), t, ok in zip(self.jobs, self.seconds, self.oks)]


class Runner:
    """Runs jobs of one workload and checks each against its reference digest."""

    def __init__(self, pool, reference):
        self.pool = pool
        self.reference = reference
        self.failures = []

    def run_job(self, cls, index):
        """Returns ``(seconds, ok)``."""
        inputs = self.pool[cls.key][index]
        t0 = time.perf_counter()
        try:
            result = cls.run(inputs)
        except Exception as exc:  # an undocumented exception fails the job
            elapsed = time.perf_counter() - t0
            self._fail(cls, index, f"{type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = time.perf_counter() - t0
        got, ok = cls.check(inputs, result)
        expected = self.reference[cls.key][index]
        if not ok:
            self._fail(cls, index, "output violates its mathematical check")
        elif got != expected:
            self._fail(cls, index, f"digest {got} != reference {expected}")
            ok = False
        return elapsed, ok

    def _fail(self, cls, index, why):
        self.failures.append({"class": cls.key, "pool_index": index, "why": why})

    def timed_pass(self, rounds, seconds=None, tracer=None, between=None) -> Pass:
        """Run whole rounds: all of a list, or from an iterator until
        ``seconds`` have passed, to the round boundary nearest to ``seconds``.
        ``between(elapsed)`` runs after each job; its time is left out of the
        pass."""
        done = Pass([], [], [], [], 0.0)
        t0 = time.perf_counter()
        aside = 0.0
        for jobs in rounds:
            for cls, index in jobs:
                if tracer is not None:
                    tracer.job = len(done.jobs)
                elapsed, ok = self.run_job(cls, index)
                done.jobs.append((cls.key, index))
                done.seconds.append(elapsed)
                done.oks.append(ok)
                if between is not None:
                    t1 = time.perf_counter()
                    between(t1 - t0 - aside)
                    aside += time.perf_counter() - t1
            done.rounds.append(jobs)
            elapsed = time.perf_counter() - t0 - aside
            if seconds is not None and elapsed * (1 + 0.5 / len(done.rounds)) >= seconds:
                break
        done.wall = time.perf_counter() - t0 - aside
        return done


def subprocess_seconds(argv, ready_line=False):
    """Wall time of a child process: to its first output line, or to its exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        code = proc.wait()
        if not ready_line:
            elapsed = time.perf_counter() - t0
    if code != 0 or (ready_line and line.strip() != b"ready"):
        raise RuntimeError(f"{argv} exited with {code}")
    return elapsed


def setup_sample(args):
    """Time from the start of a fresh process to its inputs being ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    return subprocess_seconds(argv, ready_line=True)


def measure_import():
    """Start of ``python -c "import rncgeom"`` minus start of ``python -c pass``."""
    def median_of(code):
        return statistics.median(
            subprocess_seconds([sys.executable, "-c", code]) for _ in range(IMPORT_SAMPLES)
        )

    return median_of("import rncgeom") - median_of("pass")


def job_mix(workload, rounds_done):
    counts = {}
    for jobs in rounds_done:
        for cls, _ in jobs:
            counts[cls.key] = counts.get(cls.key, 0) + 1
    return {"pool": workload.pool,
            "classes": {cls.key: {"weight": cls.weight, "jobs": counts.get(cls.key, 0)}
                        for cls in workload.classes}}


def check_untraced():
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer wrappers installed in a timed pass: {leftover}")


def end_to_end(args, runner, workload):
    samples = []

    def sample_setup(elapsed):
        # Set-up samples spread over the pass: a busy host can run 2x slower
        # for seconds at a time, and the fastest of samples spread over the
        # whole run is steadier than the median of samples taken back to back.
        if len(samples) < SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
            samples.append(setup_sample(args))

    check_untraced()
    timed = runner.timed_pass(
        workloads.rounds(workload, args.seed), seconds=args.seconds, between=sample_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(args))
    setup_s = min(samples)
    ordered = sorted(t * 1000 for t in timed.seconds)
    tail_p = workload.tail_percentile
    failed = timed.oks.count(False)
    metrics = {
        "throughput_jobs_per_s": (len(ordered) / timed.wall, "1/s"),
        "job_ms.p50": (statistics.median(ordered), "ms"),
        "job_ms.tail": (percentile(ordered, tail_p), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "failed_ratio": failed / len(ordered),
        "tail_percentile": tail_p,
        "jobs_beyond_tail": len(ordered) - math.ceil(tail_p / 100 * len(ordered)),
        "jobs": len(ordered),
        "setup_samples_s": samples,
        "rounds": len(timed.rounds),
        "timed_wall_s": timed.wall,
        "job_mix": job_mix(workload, timed.rounds),
        "job_records": write_out(args, "jobs", json.dumps({"timed": timed.dump()})),
    }
    return metrics, details, len(ordered), failed


def per_layer(args, runner, workload):
    """Untraced pass, then the same rounds traced."""
    check_untraced()
    plain = runner.timed_pass(workloads.rounds(workload, args.seed), seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.timed_pass(plain.rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    check_untraced()
    passes = {"untraced": plain, "traced": traced}

    metrics = layer_metrics(tracer, traced.wall)
    metrics["trace.overhead_ratio"] = (
        (len(traced.seconds) / traced.wall) / (len(plain.seconds) / plain.wall), "ratio")
    metrics["cli.import_s"] = (measure_import(), "s")
    oks = [ok for p in passes.values() for ok in p.oks]
    details = {
        "jobs_traced": len(traced.seconds),
        "rounds": len(plain.rounds),
        "traced_wall_s": traced.wall,
        "untraced_wall_s": plain.wall,
        "self_share_sum": sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share")),
        "job_mix": job_mix(workload, plain.rounds),
        "job_records": write_out(
            args, "jobs", json.dumps({k: p.dump() for k, p in passes.items()})),
        "spans": write_out(args, "spans", tracer.tsv()),
    }
    return metrics, details, len(oks), oks.count(False)


def write_out(args, kind, text):
    """Write a run's records under perfbench/out/, gzipped; return the path."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{kind}-{args.workload}-seed{args.seed}-trace{args.trace}.gz"
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write(text)
    return str(path.relative_to(ROOT))


def layer_metrics(tracer, wall):
    self_s = tracer.self_times()
    calls, selfs, errors = {}, {}, {}
    for i, nid in enumerate(tracer.name):
        calls[nid] = calls.get(nid, 0) + 1
        selfs[nid] = selfs.get(nid, 0.0) + self_s[i]
        errors[nid] = errors.get(nid, 0) + tracer.error[i]
    by_name = {tracer.names[nid]: nid for nid in calls}

    def count(span):
        return calls.get(by_name.get(span), 0)

    def own(span):
        return selfs.get(by_name.get(span), 0.0)

    layer_self = {layer: 0.0 for layer in tracing.TARGETS}
    for nid, s in selfs.items():
        layer_self[tracer.names[nid].split(".")[0]] += s
    stats = tracer.stats
    rref_calls = count("linalg.rref")
    construct = count("gstructure.construct_structure")
    attempts = verify_attempts(tracer)
    trials = stats.get("verify.trials", 0)
    m = {
        "linalg.rref.calls": (rref_calls, "count"),
        "linalg.rref.self_s": (own("linalg.rref"), "s"),
        "linalg.rref.ms_per_call": (1000 * own("linalg.rref") / rref_calls if rref_calls else 0.0, "ms"),
        "linalg.rref.max_cols": (stats.get("rref.max_cols", 0), "count"),
        "linalg.rref.max_bits": (stats.get("rref.max_bits", 0), "bits"),
        "linalg.inverse.calls": (count("linalg.QMatrix.inverse"), "count"),
        "poly.gcd.calls": (count("poly.poly_gcd_univariate"), "count"),
        "poly.gcd.self_s": (own("poly.poly_gcd_univariate"), "s"),
        "poly.gcd.max_degree": (stats.get("gcd.max_degree", 0), "count"),
        "poly.gcd.max_bits": (stats.get("gcd.max_bits", 0), "bits"),
        "poly.mul.calls": (count("poly.Polynomial.__mul__"), "count"),
        "poly.mul.self_s": (own("poly.Polynomial.__mul__"), "s"),
        "poly.eval.self_s": (own("poly.Polynomial.eval"), "s"),
        "poly.partial.self_s": (own("poly.Polynomial.partial"), "s"),
        "rnc.fit.calls": (count("rnc.fit_rnc_through"), "count"),
        "rnc.fit.self_s": (own("rnc.fit_rnc_through"), "s"),
        "rnc.contains.calls": (count("rnc.curve_contains_point"), "count"),
        "rnc.contains.self_s": (own("rnc.curve_contains_point"), "s"),
        "rnc.through_points.calls": (count("rnc.rnc_through_points"), "count"),
        "rnc.certify.calls": (count("rnc.certify_curve"), "count"),
        "verify.attempts": (attempts, "count"),
        "verify.resamples": (attempts - trials, "count"),
        "verify.useful_ratio": (stats.get("verify.useful", 0) / attempts if attempts else 0.0, "ratio"),
        "gstructure.construct.calls": (construct, "count"),
        "gstructure.is_type.calls": (count("gstructure.is_type_subspace"), "count"),
        "gstructure.grn.calls": (count("gstructure.grn_relation"), "count"),
        "gstructure.retry_ratio": (
            errors.get(by_name.get("gstructure.construct_structure"), 0) / construct
            if construct else 0.0, "ratio"),
        "osculation.osculator.calls": (count("osculation.osculator"), "count"),
        "osculation.projection_map.calls": (count("osculation.osculating_projection_map"), "count"),
        "catalog.make_variety.calls": (count("catalog.make_variety"), "count"),
        "trace.spans": (len(tracer.name), "count"),
    }
    for layer in tracing.TARGETS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.self_share"] = (layer_self[layer] / wall, "ratio")
    return m


def verify_attempts(tracer):
    """Calls of rnc.sample_parameter_points made inside a verify campaign."""
    sample = tracer.ids.get("rnc.sample_parameter_points")
    campaigns = {tracer.ids[k] for k in tracer.ids if k.startswith("verify.")}
    attempts = 0
    for i, nid in enumerate(tracer.name):
        if nid != sample:
            continue
        p = tracer.parent[i]
        while p >= 0 and tracer.name[p] not in campaigns:
            p = tracer.parent[p]
        attempts += p >= 0
    return attempts


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(args):
    if Path(workloads.rncgeom.__file__).resolve().parent != SRC / "rncgeom":
        sys.stderr.write(f"error: imported rncgeom from {workloads.rncgeom.__file__}\n")
        return 2
    workload = workloads.build(args.workload)
    pool = workloads.make_pool(workload)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup_in_run_s = time.perf_counter() - START
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle).get(workload.name, {})
    if any(len(reference.get(cls.key, ())) != workload.pool for cls in workload.classes):
        sys.stderr.write(f"error: {REFERENCE} does not cover the {workload.name} pool\n")
        return 2
    runner = Runner(pool, reference)

    measure = per_layer if args.trace else end_to_end
    metrics, details, attempted, failed = measure(args, runner, workload)

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "baseline_seed": BASELINE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "setup_in_run_s": setup_in_run_s,
        "units": {k: unit for k, (_, unit) in metrics.items()},
        "failures": runner.failures[:20],
        **details,
    }
    for key, (value, unit) in metrics.items():
        print(f"{workload.name:>10} {key:<34} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{workload.name:>10} {'failed_ratio':<34} {details['failed_ratio']:>14.6g} ratio")
        print(f"{workload.name:>10} job_ms.tail is p{details['tail_percentile']} "
              f"of {details['jobs']} jobs")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    ARGS = parse_args()
    if not (SRC / "rncgeom" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rncgeom sources at {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    sys.exit(main(ARGS))
