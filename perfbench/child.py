"""One benchmark invocation, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/child.py '<spec JSON>'

The spec holds ``argv`` (the program's arguments), ``trace`` (install the
layer spans) and ``required`` (layers that must be called). The child
imports the package from the checkout's ``src``, builds the parser, notes
the monotonic clock (the parent turns that into set-up time), then times
``sombortrees.cli.main(argv)`` with stdout captured, between two runs of a
fixed reference loop that gauge the machine's speed at that moment. It
prints one JSON object.
"""

import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRACE_SETUP_EXIT = 70
REFERENCE_ROUNDS = 3000

# Layer name -> the places its callers look it up.
TRACED = {
    "tree_core.prufer_decode": ["sombortrees.oracle:prufer_decode"],
    "tree_core.LabeledTree": ["sombortrees.tree_core:LabeledTree.__init__"],
    "tree_core.bfs_levels": ["sombortrees.tree_core:LabeledTree.bfs_levels"],
    "indices.sombor": ["sombortrees.oracle:sombor", "sombortrees.switching:sombor",
                       "sombortrees.cli:sombor"],
    "indices.pseudo_sombor": ["sombortrees.oracle:pseudo_sombor",
                              "sombortrees.switching:pseudo_sombor",
                              "sombortrees.cli:pseudo_sombor"],
    "indices.score_assignment": ["sombortrees.oracle:score_assignment",
                                 "sombortrees.switching:score_assignment",
                                 "sombortrees.cli:score_assignment"],
    "indices.compute_q": ["sombortrees.oracle:compute_q"],
    "greedy.build_greedy": ["sombortrees.oracle:build_greedy",
                            "sombortrees.switching:build_greedy",
                            "sombortrees.cli:build_greedy"],
    "degseq.parse_degree_sequence": ["sombortrees.cli:parse_degree_sequence"],
    "switching.find_violation": ["sombortrees.switching:find_violation"],
    "switching.apply_switch": ["sombortrees.switching:apply_switch"],
    "switching.descend": ["sombortrees.cli:descend"],
    "oracle.sombor_spectrum": ["sombortrees.oracle:sombor_spectrum"],
    "oracle.verify_greedy_minimum": ["sombortrees.cli:verify_greedy_minimum"],
}


class OracleSpans:
    """Observations inside ``verify_greedy_minimum``: class trees verified,
    distinct spectrum values, and the sandwich pass, timed from the return
    of ``sombor_spectrum`` to the return of the report."""

    def __init__(self):
        self.class_trees = 0
        self.distinct_values = 0
        self.sandwich_s = 0.0
        self._spectrum_end = None

    def spectrum_returned(self, spectrum, start, end):
        self.distinct_values += spectrum.distinct_count
        self._spectrum_end = end

    def report_returned(self, report, start, end):
        self.class_trees += report.tree_count
        if self._spectrum_end is not None and self._spectrum_end >= start:
            self.sandwich_s += end - self._spectrum_end
        self._spectrum_end = None


def install_tracing(tracer, oracle_spans):
    options = {
        "switching.find_violation": {"keep_samples": True},
        "oracle.sombor_spectrum": {"on_return": oracle_spans.spectrum_returned},
        "oracle.verify_greedy_minimum": {"on_return": oracle_spans.report_returned},
    }
    for name, targets in TRACED.items():
        tracer.install(name, targets, **options.get(name, {}))


def layer_values(tracer, oracle_spans) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, keyed by metric name."""
    layers = tracer.layers
    values = {}
    for name, layer in layers.items():
        values[f"{name}.calls"] = layer.calls
        values[f"{name}.s"] = layer.total_s
        values[f"{name}.self_s"] = layer.self_s
    decoded = layers["tree_core.prufer_decode"].calls
    values["oracle.decode_ratio"] = (
        decoded / oracle_spans.class_trees if oracle_spans.class_trees else 0.0
    )
    values["oracle.distinct_values"] = oracle_spans.distinct_values
    values["oracle.sandwich_pass_s"] = oracle_spans.sandwich_s
    return values


def reference_loop() -> float:
    """Fixed pure-Python work of the kind the CLI does (small dicts,
    sorting, float sums), independent of ``sombortrees``; return its time."""
    start = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_ROUNDS):
        table = {}
        for j in range(16):
            table[(i * 7 + j * 5) % 23] = j
        total += math.fsum(math.hypot(a, b) for a, b in sorted(table.items()))
    return time.perf_counter() - start


def main(spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from sombortrees import cli

    cli.build_parser()
    ready = time.monotonic()
    result = {"ready": ready}

    entry = cli.main
    if spec["trace"]:
        from tracer import Tracer, TraceSetupError

        tracer, oracle_spans = Tracer(), OracleSpans()
        try:
            install_tracing(tracer, oracle_spans)
        except TraceSetupError as exc:
            print(f"trace setup: {exc}", file=sys.stderr)
            return TRACE_SETUP_EXIT
        entry = tracer.wrap("cli", cli.main)

    reference_before = reference_loop()
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            exit_code = entry(spec["argv"])
        except Exception:  # an escaped exception is a failed invocation, not a harness error
            traceback.print_exc()
            exit_code = -1
    result["main_s"] = time.perf_counter() - start
    result["exit_code"] = exit_code
    result["stdout"] = captured.getvalue()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["reference_s"] = (reference_before + reference_loop()) / 2

    if spec["trace"]:
        try:
            tracer.require_called(spec["required"])
        except TraceSetupError as exc:
            print(f"trace check: {exc}", file=sys.stderr)
            return TRACE_SETUP_EXIT
        result["layers"] = layer_values(tracer, oracle_spans)
        result["find_violation_samples"] = tracer.layers[
            "switching.find_violation"].samples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
