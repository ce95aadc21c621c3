"""Exact fitter outputs against the benchmark's reference digests.

Runs pool inputs 0-3 of every job class of the ``membership``,
``interp_osc`` and ``tensor`` workloads of ``perfbench/`` and compares
the digest of each exact output with ``perfbench/reference.json``.  The
benchmark directory is only read: its modules are loaded without
writing bytecode.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    name = "perfbench_workloads"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _wrong_digests(workload, indices):
    workloads = _load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    wrong = []
    for cls in workloads.build(workload).classes:
        for index in indices:
            inputs = cls.make(index)
            got, ok = cls.check(inputs, cls.run(inputs))
            if not ok or got != reference[workload][cls.key][index]:
                wrong.append((cls.key, index, got, ok))
    return wrong


@pytest.mark.parametrize("workload", ["membership", "interp_osc", "tensor"])
def test_pool_input_zero_reproduces_reference(workload):
    assert _wrong_digests(workload, [0]) == []


def test_tensor_pool_inputs_one_to_three_reproduce_reference():
    assert _wrong_digests("tensor", [1, 2, 3]) == []


@pytest.mark.parametrize("workload", ["membership", "interp_osc"])
def test_pool_inputs_one_to_three_reproduce_reference(workload):
    assert _wrong_digests(workload, [1, 2, 3]) == []
