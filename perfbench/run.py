"""sombortrees benchmark: closed loop, one client, one fresh child process
per invocation of the real CLI path.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload verify-class --seed 0 --seconds 36 --trace 0

The seed fixes the workload's inputs (argvs). With ``--trace 0`` a run
repeats them round-robin for about ``--seconds`` and reports the
end-to-end metrics. With ``--trace 1`` it runs pairs of an untraced and a
traced invocation of the first input, requires their stdout (and descent
trace) to be byte-identical, and reports the per-layer metrics of the
traced ones.
Every output is checked against references computed by ``checker``. The
last stdout line is the JSON result; a results file with the machine, the
seed, every workload's argv and all samples goes to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
from child import TRACE_SETUP_EXIT
from tracer import percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

HARD_LIMIT_S = 170.0  # start no invocation that could end after this
# Times are scaled to a machine on which child.reference_loop takes this
# long: the speed of a shared machine drifts by tens of percent over
# minutes, and the reference loop timed around each invocation divides
# that drift out.
REFERENCE_S = 0.025
SWEEP_MAX_N = 9

VERIFY_CLASS = (4, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1)
DESCEND_DEGREES = (4,) * 10 + (3,) * 10 + (2,) * 30 + (1,) * 32
# Start trees per descend-random run: the step count varies by +-13% between
# start trees, so a run averages over several.
DESCEND_INPUTS = 8
# ``descend --random`` on DESCEND_DEGREES from seed 0: its step count and the
# sha256 of its --trace-json. A change to the descent that keeps its result
# must keep these bytes.
DESCEND_PIN = {
    "steps": 400,
    "trace_sha256": "880a970782f4b42f05c9944a7048a2c2e8303e9783c6d6bbf280783a5071a135",
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    required: tuple[str, ...]  # layers the traced run must see called
    inputs: int = 1  # distinct argvs per run, taken round-robin
    needs_tail: bool = False  # traced run must yield a reportable find_violation p99

    def argv(self, seed: int, item: int, trace_path: str) -> list[str]:
        """The argv of input ``item`` (0 <= item < inputs) of a run with ``seed``."""
        if self.name == "verify-class":
            tokens = [str(d) for d in VERIFY_CLASS]
            if seed:
                random.Random(seed).shuffle(tokens)
            return ["verify", "-d", ",".join(tokens)]
        if self.name == "verify-sweep":
            return ["verify", "--sweep", "--max-n", str(SWEEP_MAX_N)]
        return ["descend", "--random", "-d", checker.render(DESCEND_DEGREES),
                "--seed", str(seed * self.inputs + item), "--trace-json", trace_path]

    def check(self, stdout: str, exit_code: int, trace_bytes):
        """Return (trees examined, steps, steps per kind) or raise CheckError."""
        if self.name == "verify-class":
            trees = checker.check_verify(stdout, exit_code, [VERIFY_CLASS],
                                         several_values=[VERIFY_CLASS])
            return trees, 0, {}
        if self.name == "verify-sweep":
            expected = checker.realizable_sequences(SWEEP_MAX_N)
            return checker.check_verify(stdout, exit_code, expected, SWEEP_MAX_N), 0, {}
        steps = checker.check_descend(stdout, exit_code, DESCEND_DEGREES)
        if trace_bytes is None:
            raise checker.CheckError("descend wrote no trace file")
        kinds = checker.step_kinds(trace_bytes.decode(), steps)
        return steps + 1, steps, kinds


_VERIFY_LAYERS = (
    "cli", "tree_core.prufer_decode", "tree_core.LabeledTree", "indices.sombor",
    "indices.pseudo_sombor", "indices.score_assignment", "indices.compute_q",
    "greedy.build_greedy", "oracle.verify_greedy_minimum", "oracle.sombor_spectrum",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-class",
            "one 15,120-tree class with 20 values: both enumeration passes run; "
            "per-tree decode, LabeledTree and index work dominate",
            _VERIFY_LAYERS + ("degseq.parse_degree_sequence",),
        ),
        Workload(
            "verify-sweep",
            "45 classes up to n = 9, some single-valued: per-class overhead "
            "and table rendering weigh more than on verify-class",
            _VERIFY_LAYERS,
        ),
        Workload(
            "descend-random",
            "switching descent at n = 82 from a sampled tree: find_violation "
            "dominates and no verify code runs",
            ("cli", "tree_core.prufer_decode", "tree_core.LabeledTree",
             "tree_core.bfs_levels", "indices.sombor", "indices.pseudo_sombor",
             "indices.score_assignment", "greedy.build_greedy",
             "degseq.parse_degree_sequence", "switching.find_violation",
             "switching.apply_switch", "switching.descend"),
            inputs=DESCEND_INPUTS,
            needs_tail=True,
        ),
    )
}

VIOLATION_KINDS = ("LEVEL_CASE_PARENT", "LEVEL_CASE_NONPARENT",
                   "LEVEL_CASE_GRANDCHILD", "SAME_LEVEL")

# End-to-end metric -> unit.
END_TO_END = {"wall_s": "s", "trees_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, the end-to-end metric it should move, on which
# workloads). Metrics the traced child reports are medians over the traced
# invocations; the percentiles, step kinds and overhead are derived here.
_VERIFY = "verify-class, verify-sweep"
_DESCEND = "descend-random"
_ALL = "verify-class, verify-sweep, descend-random"
PER_LAYER = {
    "tree_core.prufer_decode.calls": ("count", "trees_per_s", _VERIFY),
    "tree_core.prufer_decode.s": ("s", "trees_per_s", _VERIFY),
    "tree_core.prufer_decode.self_s": ("s", "trees_per_s", _VERIFY),
    "tree_core.LabeledTree.calls": ("count", "trees_per_s", _VERIFY),
    "tree_core.LabeledTree.s": ("s", "trees_per_s", _VERIFY),
    "indices.sombor.calls": ("count", "trees_per_s", _ALL),
    "indices.sombor.s": ("s", "trees_per_s", _ALL),
    "indices.pseudo_sombor.calls": ("count", "trees_per_s", _ALL),
    "indices.pseudo_sombor.s": ("s", "trees_per_s", _ALL),
    "oracle.verify_greedy_minimum.calls": ("count", "trees_per_s", _VERIFY),
    "oracle.verify_greedy_minimum.s": ("s", "trees_per_s", _VERIFY),
    "oracle.verify_greedy_minimum.self_s": ("s", "trees_per_s", _VERIFY),
    "oracle.sombor_spectrum.s": ("s", "trees_per_s", _VERIFY),
    "oracle.sandwich_pass_s": ("s", "trees_per_s", _VERIFY),
    "oracle.decode_ratio": ("ratio", "trees_per_s", _VERIFY),
    "oracle.distinct_values": ("count", "trees_per_s", _VERIFY),
    "greedy.build_greedy.calls": ("count", "wall_s", "verify-sweep"),
    "greedy.build_greedy.s": ("s", "wall_s", "verify-sweep"),
    "indices.compute_q.calls": ("count", "wall_s", "verify-sweep"),
    "degseq.parse_degree_sequence.s": ("s", "wall_s", "verify-sweep"),
    "cli.self_s": ("s", "wall_s", "verify-sweep"),
    "switching.find_violation.calls": ("count", "trees_per_s", _DESCEND),
    "switching.find_violation.s": ("s", "trees_per_s", _DESCEND),
    "switching.find_violation.p50_us": ("us", "trees_per_s", _DESCEND),
    "switching.find_violation.p99_us": ("us", "trees_per_s", _DESCEND),
    "switching.apply_switch.calls": ("count", "trees_per_s", _DESCEND),
    "switching.apply_switch.s": ("s", "trees_per_s", _DESCEND),
    "switching.descend.self_s": ("s", "trees_per_s", _DESCEND),
    "tree_core.bfs_levels.calls": ("count", "trees_per_s", _DESCEND),
    "tree_core.bfs_levels.s": ("s", "trees_per_s", _DESCEND),
    "indices.score_assignment.calls": ("count", "trees_per_s", _DESCEND),
    "indices.score_assignment.s": ("s", "trees_per_s", _DESCEND),
    **{f"switching.steps.{kind}": ("count", "none", _DESCEND) for kind in VIOLATION_KINDS},
    "trace.overhead_frac": ("frac", "none", _ALL),
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "python": sys.version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
    }


def summary(values) -> dict:
    """Samples with their count, minimum, median and the highest percentile
    that has at least ten samples beyond it."""
    out = {"n": len(values), "min": min(values), "median": statistics.median(values)}
    for p in (99, 90, 75, 50):
        value = percentile(values, p)
        if value is not None:
            out[f"p{p}"] = value
            break
    out["samples"] = list(values)
    return out


class Runner:
    def __init__(self, workload: Workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []
        OUT.mkdir(exist_ok=True)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, spec: dict) -> dict:
        """Run one child to completion; return its JSON with ``setup_s``."""
        spawned = time.monotonic()
        with subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
            except BaseException as exc:
                proc.kill()
                proc.communicate()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise HarnessError("an invocation ran past the time limit") from None
                raise
        if proc.returncode == TRACE_SETUP_EXIT:
            raise HarnessError(err.strip())
        if proc.returncode != 0:
            raise HarnessError(f"benchmark child exited with {proc.returncode}: {err.strip()}")
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result

    def invoke(self, item: int, trace: bool) -> dict:
        """One checked invocation of input ``item``: the child's result plus
        ``item``, ``trees``, ``steps``, ``kinds``, ``trace_bytes`` and ``ok``."""
        trace_path = OUT / f"trace-{os.getpid()}.json"
        trace_path.unlink(missing_ok=True)
        spec = {"argv": self.workload.argv(self.seed, item, str(trace_path)), "trace": trace,
                "required": self.workload.required}
        result = self.spawn(spec)
        result["item"] = item
        self.attempted += 1
        result["trace_bytes"] = trace_path.read_bytes() if trace_path.exists() else None
        trace_path.unlink(missing_ok=True)
        result["ok"] = False
        try:
            result["trees"], result["steps"], result["kinds"] = self.workload.check(
                result["stdout"], result["exit_code"], result["trace_bytes"])
            if self.workload.name == "descend-random" and self.seed == item == 0:
                self.check_pin(result)
        except checker.CheckError as exc:
            self.fail(str(exc))
            return result
        result["ok"] = True
        return result

    def check_pin(self, result: dict) -> None:
        digest = hashlib.sha256(result["trace_bytes"]).hexdigest()
        if result["steps"] != DESCEND_PIN["steps"] or digest != DESCEND_PIN["trace_sha256"]:
            raise checker.CheckError(
                f"seed-0 descent gave {result['steps']} steps, trace sha256 {digest}; "
                f"pinned {DESCEND_PIN['steps']}, {DESCEND_PIN['trace_sha256']}")

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def repeat(self, seconds: float, once, at_least: int, ready=lambda results: True) -> list:
        """Call ``once(i)`` for i = 0, 1, ... at least ``at_least`` times and
        until ``ready(results)``, then again while the next call is expected
        to end within ``seconds`` of the first. Stops early only when the
        run's time limit is near."""
        results, loop_start = [], time.monotonic()
        while True:
            before = time.monotonic()
            results.append(once(len(results)))
            last = time.monotonic() - before
            elapsed = time.monotonic() - loop_start
            if self.remaining() < 2 * last:
                return results
            if len(results) >= at_least and ready(results) and elapsed + last > seconds:
                return results

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced invocations; end-to-end metrics (the medians over the
        invocations, times scaled by ``REFERENCE_S / reference_s``) and
        their summaries, which keep the unscaled times too."""
        inputs = self.workload.inputs
        runs = self.repeat(seconds, lambda i: self.invoke(i % inputs, trace=False), 2 * inputs)
        good = [r for r in runs if r["ok"]]
        if not good:
            raise HarnessError("no invocation passed its output check")

        def scale(r):
            return REFERENCE_S / r["reference_s"]

        samples = {
            "wall_s": [r["main_s"] * scale(r) for r in runs],
            "trees_per_s": [r["trees"] / (r["main_s"] * scale(r)) for r in good],
            "setup_s": [r["setup_s"] * scale(r) for r in runs],
            "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in runs],
            "unscaled_wall_s": [r["main_s"] for r in runs],
            "unscaled_setup_s": [r["setup_s"] for r in runs],
            "reference_s": [r["reference_s"] for r in runs],
        }
        if self.workload.name == "descend-random":
            samples["steps_per_s"] = [r["steps"] / (r["main_s"] * scale(r)) for r in good]
        summaries = {name: summary(v) for name, v in samples.items()}
        metrics = {name: summaries[name]["median"] for name in END_TO_END}
        return metrics, summaries

    def traced_pair(self, _index: int) -> tuple[dict, dict]:
        plain = self.invoke(0, trace=False)
        traced = self.invoke(0, trace=True)
        if plain["ok"] and traced["ok"] and (
            plain["stdout"] != traced["stdout"]
            or plain["trace_bytes"] != traced["trace_bytes"]
            or plain["exit_code"] != traced["exit_code"]
        ):
            traced["ok"] = False
            self.fail("traced output differs from untraced output")
        return plain, traced

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        """Pairs of untraced and traced invocations; per-layer metrics."""
        def violation_samples(pairs):
            return [s for _, t in pairs for s in t["find_violation_samples"]]

        def tail_ready(pairs):
            return (not self.workload.needs_tail
                    or percentile(violation_samples(pairs), 99) is not None)

        pairs = self.repeat(seconds, self.traced_pair, 2, tail_ready)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        samples = violation_samples(pairs)
        tails = {p: percentile(samples, p) for p in (50, 99)}
        if self.workload.needs_tail and tails[99] is None:
            raise HarnessError(f"{len(samples)} find_violation samples leave no p99")
        metrics = {}
        for name, (unit, _moves, _on) in PER_LAYER.items():
            if name in traced[0]["layers"]:
                middle = statistics.median_low if unit == "count" else statistics.median
                metrics[name] = middle(t["layers"][name] for t in traced)
        for p, value in tails.items():
            metrics[f"switching.find_violation.p{p}_us"] = 0.0 if value is None else value * 1e6
        kinds = traced[0]["kinds"] if traced[0]["ok"] else {}
        for kind in VIOLATION_KINDS:
            metrics[f"switching.steps.{kind}"] = kinds.get(kind, 0)
        plain_walls = [p["main_s"] for p in plain]
        traced_walls = [t["main_s"] for t in traced]
        metrics["trace.overhead_frac"] = min(traced_walls) / min(plain_walls) - 1
        summaries = {
            "untraced_wall_s": summary(plain_walls),
            "traced_wall_s": summary(traced_walls),
            "find_violation_samples": len(samples),
        }
        return metrics, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "sombortrees" / "cli.py").is_file():
        print(f"error: no sombortrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(WORKLOADS[args.workload], args.seed, started)
    try:
        if args.trace:
            metrics, summaries = runner.measure_traced(args.seconds)
        else:
            metrics, summaries = runner.measure(args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {n: v[0] for n, v in PER_LAYER.items()} if args.trace else END_TO_END
    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "why": runner.workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "argv": {name: [w.argv(args.seed, item, "<trace.json>") for item in range(w.inputs)]
                 for name, w in WORKLOADS.items()},
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "summaries": summaries,
        "per_layer_moves": {n: {"moves": v[1], "on": v[2]} for n, v in PER_LAYER.items()},
    }
    out_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")
    print(f"results: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
