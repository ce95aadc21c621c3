"""The demos run as scripts and print the same bytes as before.

Each demo is started in its own interpreter with ``PYTHONPATH=src``; the
first 16 hex digits of the SHA-256 of its stdout are compared with the
values recorded when the demo's output was last reviewed.  A change that
alters an exact result shows here as a changed digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_dimension_formulas.py": "ce143edbe4983894",
    "02_osculating_spaces.py": "264c4b4b9b1b50cc",
    "03_curve_fitting.py": "5b1c068704779e81",
    "04_osculating_projections.py": "82b72457d8a78043",
    "05_special_varieties.py": "aef867a5fdca04df",
    "06_tensor_structures.py": "42b9226b1863371d",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_prints_its_recorded_bytes(name):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == DIGESTS[name]
