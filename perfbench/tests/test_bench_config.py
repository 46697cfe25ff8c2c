"""BENCHMARK.json agrees with the harness, and inputs follow from the seed."""

import json
from pathlib import Path

import checker
import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: spec[0] for name, spec in run.PER_LAYER.items()
    }
    assert SPEC["paths"] == [run.BENCH.name]


def test_seed_zero_gives_the_default_inputs():
    verify, sweep, descend = (run.WORKLOADS[n] for n in run.WORKLOADS)
    assert verify.argv(0, 0, "t") == ["verify", "-d", "4,3,3,2,2,1,1,1,1,1,1"]
    assert sweep.argv(5, 0, "t") == ["verify", "--sweep", "--max-n", "9"]
    assert descend.argv(0, 0, "t")[4:] == ["--seed", "0", "--trace-json", "t"]


def test_descend_runs_take_disjoint_start_trees():
    descend = run.WORKLOADS["descend-random"]
    seeds = [descend.argv(s, i, "t")[5] for s in range(10) for i in range(descend.inputs)]
    assert len(set(seeds)) == len(seeds) == 10 * descend.inputs


def test_verify_class_seed_only_reorders_the_degrees():
    verify = run.WORKLOADS["verify-class"]
    assert verify.argv(7, 0, "t") == verify.argv(7, 0, "u")
    text = verify.argv(7, 0, "t")[2]
    assert text != checker.render(run.VERIFY_CLASS)
    assert sorted(text.split(","), reverse=True) == checker.render(run.VERIFY_CLASS).split(",")


def test_summary_reports_the_highest_percentile_with_ten_samples_beyond():
    few = run.summary([4, 0, 2, 1, 3])
    assert (few["n"], few["min"], few["median"]) == (5, 0, 2)
    assert not any(key.startswith("p") for key in few)
    assert run.summary(list(range(20)))["p50"] == 9
    assert run.summary(list(range(100)))["p90"] == 89
