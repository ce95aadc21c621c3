"""Record a BENCH file: every workload at one seed, end to end and traced.

Run from the root of a checkout:

    python3 perfbench/baseline.py LABEL [SEED] [SECONDS]

writes ``perfbench/BENCH_<LABEL>.json`` holding, per workload and trace mode,
the report line and the result line that ``run.py`` printed.  The seed
defaults to the baseline seed 2024; seed 2025 is held out.  Numbers move with
the seed and with the host, so compare only files of one seed made on one
machine; a claimed gain still needs paired runs of both commits.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BASELINE_SEED, HERE, WORKLOADS


def main(label, seed=str(BASELINE_SEED), seconds="36"):
    doc = {"label": label, "seed": int(seed), "seconds": float(seconds), "runs": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", trace],
                capture_output=True, text=True, check=False, cwd=HERE.parent,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            doc["runs"][f"{workload}/trace{trace}"] = {"report": report, "result": result}
            print(f"{workload} trace {trace}: {result['attempted']} jobs checked", flush=True)
    path = HERE / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
