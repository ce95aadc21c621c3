"""Record the reference digests of every pool input into perfbench/reference.json.

Run from the root of a checkout, on the commit whose outputs are the
reference (a change that claims a speedup must reproduce them byte for byte):

    python3 perfbench/record.py [workload ...]

Every job must also pass its mathematical check; recording stops otherwise.
Named workloads are re-recorded, the others are kept from the existing file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

REFERENCE = HERE / "reference.json"


def record(name: str) -> dict:
    workload = workloads.build(name)
    pool = workloads.make_pool(workload)
    digests = {}
    for cls in workload.classes:
        t0 = time.perf_counter()
        row = []
        for index, inputs in enumerate(pool[cls.key]):
            got, ok = cls.check(inputs, cls.run(inputs))
            if not ok:
                raise SystemExit(f"{name} {cls.key} pool input {index} fails its check")
            row.append(got)
        digests[cls.key] = row
        print(f"{name:>10} {time.perf_counter() - t0:8.2f}s {cls.key}", flush=True)
    return digests


def main(names):
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        doc[name] = record(name)
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
