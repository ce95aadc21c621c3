"""Whole-package checks: no stripped invariants, and the benchmark's tracer fits."""

import ast
import importlib.util
from pathlib import Path

import rncgeom
import rncgeom.verify  # noqa: F401  (the tracer wraps this layer too)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(rncgeom.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert; invariants must raise typed errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_restores_them():
    # the benchmark's traced pass wraps every name in tracing.TARGETS;
    # a renamed target fails install() here rather than only in that pass
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
