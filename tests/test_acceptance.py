"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

from sombortrees.cli import main
from sombortrees.degseq import DegreeSequence
from sombortrees.greedy import build_greedy
from sombortrees.indices import pseudo_sombor, score_assignment, sombor
from sombortrees.oracle import (
    compute_q,
    count_trees,
    enumerate_trees,
    realizable_sequences,
    sample_tree,
    sombor_spectrum,
    verify_greedy_minimum,
)
from sombortrees.switching import SwitchError, SwitchPlan, SwitchSign, apply_switch, descend, switch_sign
from sombortrees.tree_core import PruferCode, prufer_decode, prufer_encode

SRC = Path(__file__).resolve().parent.parent / "src"

FIGURE_SEQUENCE = "4,3,3,2,1,1,1,1,1,1"
FIGURE_EDGES = (
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9), (4, 10),
)


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] acceptance {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, f"acceptance criterion {number} failed: {description} {detail}"


def test_criterion_1_figure_reproduction(capsys):
    code = main(["greedy", "-d", FIGURE_SEQUENCE, "--format", "edges"])
    out = capsys.readouterr().out
    expected = "".join(f"{u} {v}\n" for u, v in FIGURE_EDGES)
    edges_ok = code == 0 and out == expected

    seq = DegreeSequence((4, 3, 3, 2, 1, 1, 1, 1, 1, 1))
    build_greedy(seq)  # warm caches before timing
    best = min(
        (lambda t0: (build_greedy(seq), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    with capsys.disabled():
        _report(
            1,
            "greedy CLI emits the ten-vertex reference edge set in under 1 ms",
            edges_ok and best < 1e-3,
            f"construction {best * 1e6:.1f} us",
        )


def test_criterion_2_minimum_sweep(capsys):
    failures = []
    checked = 0
    for seq in realizable_sequences(9):
        report = verify_greedy_minimum(seq)
        checked += 1
        if not (report.minimum_attained and abs(report.greedy_so - report.z1) <= 1e-9):
            failures.append(seq.render())
    with capsys.disabled():
        _report(
            2,
            "greedy tree attains min Sombor value for every realizable sequence, 2 <= n <= 9",
            checked == 45 and not failures,
            f"{checked} sequences" + (f"; failures {failures}" if failures else ""),
        )


def test_criterion_3_score_monotonicity(capsys):
    rng = random.Random(31)
    bad = 0
    trees_checked = 0
    for seq in realizable_sequences(8):
        n = seq.n
        q_samples = [rng.uniform(1e-12, 1.0 / (2 * n)) for _ in range(19)] + [1.0 / (2 * n)]
        for tree in enumerate_trees(seq):
            trees_checked += 1
            for q in q_samples:
                scores = score_assignment(tree, q)
                if not scores.strictly_decreasing or scores.values[-1] < 0.5 - 1e-12:
                    bad += 1
    with capsys.disabled():
        _report(
            3,
            "scores strictly decrease and the last stays >= 1/2 for q in (0, 1/(2n)]",
            bad == 0,
            f"{trees_checked} trees x 20 q values",
        )


def test_criterion_4_sandwich_bound(capsys):
    violations = []
    classes = 0
    for seq in realizable_sequences(8):
        spectrum = sombor_spectrum(seq)
        if spectrum.z2 is None:
            continue
        classes += 1
        q = compute_q(seq, spectrum)
        half_gap = (spectrum.z2 - spectrum.z1) / 2
        scores = score_assignment(build_greedy(seq), q.value)
        for tree in enumerate_trees(seq):
            so = sombor(tree)
            pso = pseudo_sombor(tree, scores)
            if not (so - pso > 1e-12 and pso - (so - half_gap) > 1e-12):
                violations.append(seq.render())
                break
    with capsys.disabled():
        _report(
            4,
            "pseudo index sits strictly inside the half-gap sandwich at the exact q",
            classes > 0 and not violations,
            f"{classes} multi-value classes" + (f"; failed {violations}" if violations else ""),
        )


def test_criterion_5_argmin_transfer(capsys):
    offenders = []
    for seq in realizable_sequences(8):
        spectrum = sombor_spectrum(seq)
        q = compute_q(seq, spectrum)
        scores = score_assignment(build_greedy(seq), q.value)
        records = [
            (pseudo_sombor(tree, scores), sombor(tree)) for tree in enumerate_trees(seq)
        ]
        best_pso = min(r[0] for r in records)
        for pso, so in records:
            if pso <= best_pso + 1e-12 and abs(so - spectrum.z1) > 1e-9:
                offenders.append(seq.render())
                break
    with capsys.disabled():
        _report(
            5,
            "every pseudo-index argmin tree is a Sombor argmin tree (n <= 8)",
            not offenders,
            f"failed {offenders}" if offenders else "",
        )


def test_criterion_6_switch_sign_oracle(capsys):
    rng = random.Random(1961)
    target = 10_000
    checked = 0
    mismatches = 0
    while checked < target:
        n = rng.randint(4, 9)
        tree = prufer_decode(
            PruferCode(n, tuple(rng.randint(1, n) for _ in range(n - 2)))
        )
        (a, b), (c, d) = rng.sample(list(tree.edges), 2)
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) != 4:
            continue
        plan = SwitchPlan(a, b, c, d)
        try:
            switched = apply_switch(tree, plan)
        except SwitchError:
            continue
        scores = score_assignment(tree, 1.0 / (2 * n))
        sign, _ = switch_sign(tree, plan, scores)
        diff = pseudo_sombor(tree, scores) - pseudo_sombor(switched, scores)
        expected = SwitchSign.DECREASE if diff > 0 else SwitchSign.INCREASE if diff < 0 else SwitchSign.TIE
        if sign is not expected or sign is SwitchSign.TIE:
            mismatches += 1
        checked += 1
    with capsys.disabled():
        _report(
            6,
            "reported switch sign matches the directly computed pseudo-index change",
            mismatches == 0,
            f"{checked} random valid switches, {mismatches} mismatches",
        )


def test_criterion_7_descent_terminates_at_greedy(capsys):
    failures = []
    descents = 0
    for seq in realizable_sequences(8):
        greedy_tree = build_greedy(seq)
        q = 1.0 / (2 * seq.n)
        class_size = count_trees(seq)
        for tree in enumerate_trees(seq):
            terminal, trace = descend(tree, q)
            descents += 1
            if terminal != greedy_tree or len(trace.steps) > class_size:
                failures.append(seq.render())
                break
    rng = random.Random(409)
    for n in (10, 11, 12):
        for seq in (s for s in realizable_sequences(n) if s.n == n):
            greedy_tree = build_greedy(seq)
            q = 1.0 / (2 * n)
            for _ in range(100):
                terminal, _ = descend(sample_tree(seq, rng), q)
                descents += 1
                if terminal != greedy_tree:
                    failures.append(seq.render())
                    break
    with capsys.disabled():
        _report(
            7,
            "descent reaches the greedy tree from every start with strictly falling pseudo index",
            not failures,
            f"{descents} descents" + (f"; failed {failures}" if failures else ""),
        )


def test_criterion_8_prufer_oracle(capsys):
    codec_ok = True
    total_codes = 0
    for n in range(2, 8):
        seen = set()
        for code_tuple in product(range(1, n + 1), repeat=n - 2):
            code = PruferCode(n, code_tuple)
            tree = prufer_decode(code)
            seen.add(tree.edges)
            if prufer_encode(tree) != code or prufer_decode(prufer_encode(tree)) != tree:
                codec_ok = False
            total_codes += 1
        if len(seen) != n ** (n - 2):
            codec_ok = False
    counts_ok = True
    for seq in realizable_sequences(9):
        if sum(1 for _ in enumerate_trees(seq)) != count_trees(seq):
            counts_ok = False
    with capsys.disabled():
        _report(
            8,
            "codec identities over all codes (n <= 7) and class sizes match the closed form (n <= 9)",
            codec_ok and counts_ok,
            f"{total_codes} codes",
        )


def test_criterion_9_byte_identical_reruns(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    commands = [
        ["greedy", "-d", FIGURE_SEQUENCE, "--format", "json"],
        ["verify", "--sweep", "--max-n", "7"],
        ["descend", "--random", "-d", FIGURE_SEQUENCE, "--seed", "7"],
        ["index", "--q", "auto"],
    ]
    all_same = True
    for argv in commands:
        if argv[0] == "index":
            import tempfile

            with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as handle:
                handle.write("".join(f"{u} {v}\n" for u, v in FIGURE_EDGES))
                argv = ["index", handle.name, "--q", "auto"]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "sombortrees", *argv],
                capture_output=True,
                env=env,
            )
            for _ in range(2)
        ]
        if not (
            runs[0].stdout == runs[1].stdout
            and runs[0].stderr == runs[1].stderr
            and runs[0].returncode == runs[1].returncode
        ):
            all_same = False
    with capsys.disabled():
        _report(
            9,
            "identical flags and seed reproduce byte-identical output",
            all_same,
            f"{len(commands)} commands x 2 runs",
        )
