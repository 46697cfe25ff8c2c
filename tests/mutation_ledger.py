"""Mutation ledger: small faults put into ``src/``, each with the tests that
must catch it.

Run from the repository root::

    python tests/mutation_ledger.py

For every entry of ``LEDGER`` the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, replaces the entry's ``old``
text, which must occur exactly once in its file, with ``new``, and runs
``pytest -x -q`` on the entry's nodes there. The entry holds when pytest
reports a failed test (exit code 1). The run exits 1 when any entry does
not hold: its nodes all pass, cannot be collected or time out, or its
``old`` text is missing or ambiguous, so a refactor that moves the code
must move the entry too.

``EQUIVALENT`` lists mutants no test can catch, each with the reason. Their
``old`` text is checked the same way; no tests run for them.

pytest does not collect this file, as its name does not start with
``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

LEDGER = [
    {
        "name": "scan state's accepted contract key without q",
        "path": "src/sombortrees/switching.py",
        "old": "key = (type(q), q)",
        "new": "key = ()",
        "nodes": ["tests/test_switching.py::test_contract_memo_keeps_no_verdict_across_trees_or_q"],
    },
    {
        "name": "switched tree without its connectivity check",
        "path": "src/sombortrees/switching.py",
        "old": "if len(info.order) < tree.n:",
        "new": "if False:",
        "nodes": ["tests/test_switching.py::test_apply_switch_rejects_non_tree_result"],
    },
    {
        "name": "suffix minimum over the last children",
        "path": "src/sombortrees/switching.py",
        "old": "if len(row) > 1 and row[1] < least:\n                least = row[1]",
        "new": "if len(row) > 1 and row[-1] < least:\n                least = row[-1]",
        "nodes": ["tests/test_switching.py::test_find_violation_matches_reference_along_descent[0]"],
    },
    {
        "name": "suffix minimum one parent short",
        "path": "src/sombortrees/switching.py",
        "old": "0, len(group) - 1",
        "new": "0, len(group) - 2",
        "nodes": ["tests/test_switching.py::test_find_violation_matches_reference_along_descent[0]"],
    },
    {
        "name": "running pSO off by one grid step per switch",
        "path": "src/sombortrees/switching.py",
        "old": "pso += _switch_gain(pso_grid, violation.plan)",
        "new": "pso += _switch_gain(pso_grid, violation.plan) + 1",
        "nodes": ["tests/test_switching.py::test_find_violation_matches_reference_along_descent[0]"],
    },
    {
        "name": "certificate without the ulp margin of its least sum",
        "path": "src/sombortrees/oracle.py",
        "old": "if low > u and",
        "new": "if low > 0 and",
        "nodes": ["tests/test_oracle.py::test_sandwich_verdict_where_pso_can_pass_so"],
    },
    {
        "name": "certificate with one ulp of margin below the half gap",
        "path": "src/sombortrees/oracle.py",
        "old": "high + 2 * int(u) <",
        "new": "high + int(u) <",
        "nodes": ["tests/test_oracle.py::test_certificate_keeps_two_ulps_below_the_half_gap"],
    },
    {
        "name": "certificate's greatest sum from the least terms",
        "path": "src/sombortrees/oracle.py",
        "old": "low, high = sum(map(min, spans)), sum(map(max, spans))",
        "new": "low, high = sum(map(min, spans)), sum(map(min, spans))",
        "nodes": ["tests/test_oracle.py::test_certificate_declines_an_oversized_q"],
    },
    {
        "name": "sandwich spot check without pseudo_sombor",
        "path": "src/sombortrees/oracle.py",
        "old": "and pso_grid.value(tree_pso) == pseudo_sombor(tree, scores)",
        "new": "",
        "nodes": ["tests/test_oracle.py::test_sandwich_spot_check_catches_a_wrong_pseudo_value"],
    },
    {
        "name": "subdivided edge without its -h(2,2)",
        "path": "src/sombortrees/oracle.py",
        "old": "h(a, two) + h(two, b) - h(two, two)",
        "new": "h(a, two) + h(two, b)",
        "nodes": ["tests/test_cli.py::test_verify_golden"],
    },
    {
        "name": "C(m, k - 1) ways to lay m 2s on k edges",
        "path": "src/sombortrees/oracle.py",
        "old": "math.comb(m - 1, k - 1)",
        "new": "math.comb(m, k - 1)",
        "nodes": ["tests/test_oracle.py::test_value_counts_total_the_class_size"],
    },
    {
        "name": "grid term with the larger label's weight first",
        "path": "src/sombortrees/indices.py",
        "old": "math.hypot(w[a], w[b]) if a < b else math.hypot(w[b], w[a])",
        "new": "math.hypot(w[b], w[a]) if a < b else math.hypot(w[a], w[b])",
        "nodes": ["tests/test_oracle.py::test_grid_term_takes_the_smaller_labels_weight_first"],
    },
    {
        "name": "descent that may stop short of the greedy tree",
        "path": "src/sombortrees/switching.py",
        "old": "if current != target:",
        "new": "if False:",
        "nodes": ["tests/test_switching.py::test_descend_refuses_to_stop_short_of_the_greedy_tree"],
    },
    {
        "name": "descent step without its pSO check",
        "path": "src/sombortrees/switching.py",
        "old": "if not pso_next < pso_current:",
        "new": "if False:",
        "nodes": ["tests/test_switching.py::test_descend_refuses_a_switch_that_does_not_lower_pso"],
    },
    {
        "name": "descent end without its running-sum check",
        "path": "src/sombortrees/switching.py",
        "old": "if (so_current, pso_current) != (sombor(current), pseudo_sombor(current, scores)):",
        "new": "if False:",
        "nodes": ["tests/test_switching.py::test_descend_checks_its_running_sums_on_the_terminal_tree"],
    },
    {
        "name": "size text without its upward correction",
        "path": "src/sombortrees/oracle.py",
        "old": "elif 10 ** (k + 1) <= total:",
        "new": "elif False:",
        "nodes": ["tests/test_oracle.py::test_size_text_bounds_long_sizes"],
    },
    {
        "name": "forced leaves' row kept with a negative entry",
        "path": "src/sombortrees/oracle.py",
        "old": "if min(row) >= 0:",
        "new": "if True:",
        "nodes": ["tests/test_oracle.py::test_profile_counts_match_the_decoder_pass",
                  "tests/test_properties.py::test_profile_counts_add_up"],
    },
    {
        "name": "forced leaves' row without its multinomial",
        "path": "src/sombortrees/oracle.py",
        "old": "ways = trees * (math.factorial(total) // math.prod(map(math.factorial, row)))",
        "new": "ways = trees",
        "nodes": ["tests/test_oracle.py::test_profile_counts_match_the_decoder_pass",
                  "tests/test_properties.py::test_profile_counts_add_up"],
    },
    {
        "name": "forced leaves' row without its digits",
        "path": "src/sombortrees/oracle.py",
        "old": "forced = profile + sum(c * p for c, p in zip(row, row_places))",
        "new": "forced = profile",
        "nodes": ["tests/test_oracle.py::test_profile_counts_match_the_decoder_pass",
                  "tests/test_properties.py::test_profile_counts_add_up"],
    },
    {
        "name": "profile count without its cache",
        "path": "src/sombortrees/oracle.py",
        "old": "@functools.cache\n",
        "new": "",
        "nodes": ["tests/test_cli.py::test_verify_sweep_runs_one_pass_per_sequence_without_its_2s"],
    },
    {
        "name": "traversal that visits the root again",
        "path": "src/sombortrees/tree_core.py",
        "old": "if level[v] < 0:",
        "new": "if level[v] <= 0:",
        "nodes": ["tests/test_tree_core.py::test_bfs_levels_figure_tree"],
    },
    {
        "name": "switched tree that keeps its predecessor's edges",
        "path": "src/sombortrees/tree_core.py",
        "old": "tree._edges = None",
        "new": "tree._edges = self._edges",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "edges read off the rows in both directions",
        "path": "src/sombortrees/tree_core.py",
        "old": "for v in adj[u] if v > u)",
        "new": "for v in adj[u])",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "edges read off the rows without label 1's",
        "path": "src/sombortrees/tree_core.py",
        "old": "for u in range(1, self.n + 1) for v in adj[u]",
        "new": "for u in range(2, self.n + 1) for v in adj[u]",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "same-level partner's first child read as its parent",
        "path": "src/sombortrees/switching.py",
        "old": "if len(row) > 1 and gamma > row[1]:",
        "new": "if len(row) > 1 and gamma > row[0]:",
        "nodes": ["tests/test_switching.py::test_find_violation_matches_reference_along_descent[0]"],
    },
    {
        "name": "recycled child taken one level up",
        "path": "src/sombortrees/switching.py",
        "old": "if level[v] > level[alpha])",
        "new": "if level[v] < level[alpha])",
        "nodes": ["tests/test_switching.py::test_every_degree_ordered_tree_up_to_9_descends_along_the_reference"],
    },
    {
        "name": "same-level pass started at the root's level",
        "path": "src/sombortrees/switching.py",
        "old": "scan.same_level, scan.at = True, 1",
        "new": "scan.same_level, scan.at = True, 0",
        "nodes": ["tests/test_switching.py::test_descend_single_vertex"],
    },
    {
        "name": "plan label above n raised as an IndexError",
        "path": "src/sombortrees/switching.py",
        "old": "and 1 <= a <= n\n",
        "new": "and 1 <= a\n",
        "nodes": ["tests/test_switching.py::test_apply_switch_matches_rebuilt_tree_exhaustive"],
    },
    {
        "name": "level pass resumed one level past the witness level",
        "path": "src/sombortrees/switching.py",
        "old": "scan.at = j\n                return _level_violation(",
        "new": "scan.at = j + 1\n                return _level_violation(",
        "nodes": ["tests/test_switching.py::test_every_degree_ordered_tree_up_to_9_descends_along_the_reference"],
    },
    {
        "name": "same-level pass resumed one level past the switch",
        "path": "src/sombortrees/switching.py",
        "old": "= j, least_after, i, k",
        "new": "= j + 1, None, i, k",
        "nodes": ["tests/test_switching.py::test_every_degree_ordered_tree_up_to_9_descends_along_the_reference"],
    },
    {
        "name": "state handed on for a plan that is not the tree's own",
        "path": "src/sombortrees/switching.py",
        "old": "own = found is not None and (plan is found.plan or plan == found.plan)",
        "new": "own = found is not None",
        "nodes": ["tests/test_switching.py::test_a_plan_the_scan_did_not_return_hands_on_no_state"],
    },
    {
        "name": "same-level step proved by a traversal",
        "path": "src/sombortrees/switching.py",
        "old": "    if not own:\n",
        "new": "    if not own or found.kind is ViolationKind.SAME_LEVEL:\n",
        "nodes": ["tests/test_switching.py::test_a_descent_traverses_once"],
    },
    {
        "name": "hand-on that leaves the state on its predecessor",
        "path": "src/sombortrees/switching.py",
        "old": "tree._scan = scan.violation = None",
        "new": "pass",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "same-level scan resumed at the parent after a",
        "path": "src/sombortrees/switching.py",
        "old": "= j, least_after, i, k",
        "new": "= j, least_after, i + 1, k",
        "nodes": ["tests/test_switching.py::test_find_violation_matches_reference_exhaustive"],
    },
    {
        "name": "re-level that traverses the predecessor's rows",
        "path": "src/sombortrees/switching.py",
        "old": "_relevel(scan, successor._adj, plan)",
        "new": "_relevel(scan, tree._adj, plan)",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "re-level started one row past the witness level",
        "path": "src/sombortrees/switching.py",
        "old": "by_level, j = scan.level, scan.by_level, scan.at\n",
        "new": "by_level, j = scan.level, scan.by_level, scan.at + 1\n",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "re-level that leaves its new rows unsorted",
        "path": "src/sombortrees/switching.py",
        "old": "        row.sort()\n        by_level.append(row)\n",
        "new": "        by_level.append(row)\n",
        "nodes": ["tests/test_switching.py::test_handed_on_state_matches_the_successors_traversal_along_descent"],
    },
    {
        "name": "re-level without its count of reached labels",
        "path": "src/sombortrees/switching.py",
        "old": "    if unreached:\n",
        "new": "    if False:\n",
        "nodes": ["tests/test_switching.py::test_nonparent_hand_on_refuses_alpha_inside_betas_subtree"],
    },
    {
        "name": "re-level that moves the cursor past the witness level",
        "path": "src/sombortrees/switching.py",
        "old": "    del by_level[j:]\n",
        "new": "    del by_level[j:]\n    scan.at = j + 1\n",
        "nodes": ["tests/test_switching.py::test_every_degree_ordered_tree_up_to_9_descends_along_the_reference"],
    },
    {
        "name": "trace writer that lays out the empty trace on two lines",
        "path": "src/sombortrees/cli.py",
        "old": 'return "[]"',
        "new": 'return "[\\n]"',
        "nodes": ["tests/test_cli.py::test_trace_writer_matches_json_dumps_with_indent_2"],
    },
]

EQUIVALENT = [
    {
        "name": "level pass with the first beta >= alpha for the first beta > alpha",
        "path": "src/sombortrees/switching.py",
        "old": "i = bisect_right(row, least_below[j])",
        "new": "i = bisect_left(row, least_below[j])",
        "why": "alpha, the least label below level j (n + 1 when there is none),"
               " never lies on level j's row, so both searches stop at the same beta.",
    },
    {
        "name": "same-level suffix minima recomputed short of parent b",
        "path": "src/sombortrees/switching.py",
        "old": "first, end = scan.first, scan.dirty\n",
        "new": "first, end = scan.first, scan.dirty - 2\n",
        "why": "a same-level switch only raises the group's suffix minima, so an entry"
               " left unrecomputed is a lower bound; the table only filters candidate"
               " parents, and the pass confirms each one against the parents after it.",
    },
    {
        "name": "same-level suffix minima over the parents themselves",
        "path": "src/sombortrees/switching.py",
        "old": "if len(row) > 1 and row[1] < least:\n                least = row[1]",
        "new": "if len(row) > 1 and row[0] < least:\n                least = row[0]",
        "why": "the row of a parent on level j starts with its own parent on level"
               " j - 1, below every first child, so each entry is a lower bound; the table only"
               " filters candidate parents, and the pass confirms each one against"
               " the parents after it, so only the time changes.",
    },
    {
        "name": "switched tree that derives its edges on every read",
        "path": "src/sombortrees/tree_core.py",
        "old": "            self._edges = tuple((u, v)",
        "new": "            return tuple((u, v)",
        "why": "a tree's rows never change once it is made, so every derivation"
               " yields equal edges; only the time of a read differs.",
    },
    {
        "name": "edges read off the rows short of label n's",
        "path": "src/sombortrees/tree_core.py",
        "old": "for u in range(1, self.n + 1) for v",
        "new": "for u in range(1, self.n) for v",
        "why": "every neighbour of label n is smaller, so the v > u filter keeps"
               " nothing of row n.",
    },
]


def _run(entry: dict) -> tuple[bool, str]:
    """Whether the entry's nodes catch its mutant, and the first failure
    or what went wrong."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        base = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, base / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", base)
        path = base / entry["path"]
        path.write_text(path.read_text().replace(entry["old"], entry["new"]))
        env = {**os.environ, "PYTHONPATH": str(base / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *entry["nodes"]]
        try:
            proc = subprocess.run(command, cwd=base, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 1:
        failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
        return True, failed[0] if failed else "caught"
    if proc.returncode == 0:
        return False, "not caught: every named test passes"
    return False, f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    failures = 0
    for entry in EQUIVALENT + LEDGER:
        start = time.perf_counter()
        count = (ROOT / entry["path"]).read_text().count(entry["old"])
        if count != 1:
            held, detail = False, f"old text occurs {count} times in {entry['path']}"
        elif entry in EQUIVALENT:
            held, detail = True, "equivalent, not run"
        else:
            held, detail = _run(entry)
        failures += not held
        print(f"{'ok' if held else 'FAIL'}  {entry['name']}: {detail}"
              f" ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(LEDGER) + len(EQUIVALENT) - failures} of {len(LEDGER) + len(EQUIVALENT)}"
          " entries hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
