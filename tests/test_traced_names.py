"""Every name the benchmark's tracer wraps must still exist in the package,
and every layer a benchmark workload requires must still be called.

``perfbench/child.py`` wraps each ``TRACED`` target in place, so a
refactor that drops or renames one, or stops calling a required layer
through it, fails a traced benchmark run. These tests read the benchmark's
tables, resolve each target the way the tracer does, and run the traced
child on a small input of each workload. Nothing under ``perfbench/`` is
written.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHILD = BENCH / "child.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_target_resolves_to_a_callable():
    table = _traced_table()
    assert table
    missing = []
    for layer, targets in table.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {target}")
    assert missing == []


def _bench_run(monkeypatch):
    """``perfbench/run.py`` loaded by path, with the benchmark's own modules
    dropped from ``sys.modules`` again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    before = set(sys.modules)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]
    return module


@pytest.mark.parametrize(
    "workload, argv, calls",
    [
        # One prufer_decode, the spectrum's spot check; the sandwich check
        # sums the greedy tree verify already holds. Neither visits the
        # trees one by one.
        ("verify-class", ["verify", "-d", "3,2,2,1,1,1"],
         {"tree_core.prufer_decode": 1, "oracle.sombor_spectrum": 1}),
        # 12 classes, one of them with two values: every class still goes
        # through the wrapped spectrum and verify, and decodes its first
        # tree once in its spectrum's spot check, however many share a
        # profile count; the multi-value class's sandwich decodes none.
        ("verify-sweep", ["verify", "--sweep", "--max-n", "6"],
         {"tree_core.prufer_decode": 12, "oracle.sombor_spectrum": 12,
          "oracle.verify_greedy_minimum": 12}),
        # Four switches: one scan per switch plus the final empty one. The
        # first is a LEVEL_CASE_NONPARENT switch and the other three are
        # same-level ones. bfs_levels runs once, for the start tree's first
        # scan: both kinds of switch hand the scan's state on with a proof
        # that their result is a tree, and no traversal. The scores are
        # built once by descend, whose scans find them in that state, and
        # once by the CLI for the start pSO. A LabeledTree is constructed
        # for the sampled start and for the greedy target; a switch builds
        # its successor from the four neighbour rows it changes instead.
        ("descend-random", ["descend", "--random", "-d", "4,3,3,2,1,1,1,1,1,1",
                            "--seed", "7", "--trace-json", "{tmp}/trace.json"],
         {"switching.find_violation": 5, "switching.apply_switch": 4,
          "tree_core.bfs_levels": 1, "indices.score_assignment": 2,
          "tree_core.LabeledTree": 2}),
    ],
    ids=["verify-class", "verify-sweep", "descend-random"],
)
def test_traced_child_calls_every_required_layer(monkeypatch, tmp_path, workload, argv, calls):
    run = _bench_run(monkeypatch)
    spec = {
        "argv": [arg.format(tmp=tmp_path) for arg in argv],
        "trace": True,
        "required": run.WORKLOADS[workload].required,
    }
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    # exit TRACE_SETUP_EXIT names a required layer that was never called
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    for layer, expected in calls.items():
        assert result["layers"][f"{layer}.calls"] == expected, layer
