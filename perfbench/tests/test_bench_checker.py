"""The output checker: its references agree with the package, it accepts
real CLI output and it rejects each kind of wrong output."""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

import checker
from checker import CheckError
from sombortrees import build_greedy, cli, count_trees, realizable_sequences, sombor

SMALL = (3, 2, 2, 1, 1, 1)
DESCEND = (3, 3, 3, 2, 2, 1, 1, 1, 1, 1)  # n = 10


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def render_table(rows, trailer=()):
    header = list(rows[0])
    lines = ["  ".join(header)]
    lines += ["  ".join(row[h] for h in header) for row in rows]
    return "\n".join(lines + list(trailer)) + "\n"


def test_references_match_the_package():
    sequences = list(realizable_sequences(9))
    assert checker.realizable_sequences(9) == [s.degrees for s in sequences]
    for seq in sequences:
        assert checker.tree_count(seq.degrees) == count_trees(seq)
        tree = build_greedy(seq)
        edges = checker.greedy_edges(seq.degrees)
        assert edges == list(tree.edges)
        assert checker.sombor_value(seq.degrees, edges) == sombor(tree)


def test_sweep_sequence_count():
    assert len(checker.realizable_sequences(10)) == 67


def test_accepts_verify_class_output():
    stdout, code = run_cli(["verify", "-d", checker.render(SMALL)])
    assert checker.check_verify(stdout, code, [SMALL]) == 12


def test_accepts_sweep_output():
    stdout, code = run_cli(["verify", "--sweep", "--max-n", "6"])
    expected = checker.realizable_sequences(6)
    total = checker.check_verify(stdout, code, expected, sweep_max_n=6)
    assert total == sum(checker.tree_count(s) for s in expected)


def drop_argmin(rows):
    return [{k: v for k, v in row.items() if k != "argmin"} for row in rows]


def test_table_parsed_by_header_name():
    stdout, code = run_cli(["verify", "-d", checker.render(SMALL)])
    rows, _ = checker.parse_table(stdout)
    degrees_last = [dict(reversed(list(row.items()))) for row in drop_argmin(rows)]
    with pytest.raises(CheckError):  # the table must start with its degrees
        checker.check_verify(render_table(degrees_last), code, [SMALL])
    reordered = [{"degrees": r["degrees"], **dict(reversed(list(r.items())))}
                 for r in drop_argmin(rows)]
    assert checker.check_verify(render_table(reordered), code, [SMALL]) == 12


def test_sweep_without_argmin_column():
    stdout, code = run_cli(["verify", "--sweep", "--max-n", "6"])
    rows, trailer = checker.parse_table(stdout)
    expected = checker.realizable_sequences(6)
    total = checker.check_verify(render_table(drop_argmin(rows), trailer), code, expected, 6)
    assert total == sum(checker.tree_count(s) for s in expected)


@pytest.mark.parametrize(
    "column, value",
    [("min", "no"), ("sandwich", "no"), ("sandwich", "-"), ("trees", "11"),
     ("greedy_SO", "1.0"), ("z1", "1.0"), ("n", "7")],
)
def test_rejects_bad_verify_row(column, value):
    stdout, code = run_cli(["verify", "-d", checker.render(SMALL)])
    rows, _ = checker.parse_table(stdout)
    rows[0][column] = value
    with pytest.raises(CheckError):
        checker.check_verify(render_table(rows), code, [SMALL])


def test_sandwich_must_match_z2():
    stdout, code = run_cli(["verify", "-d", checker.render(SMALL)])
    rows, _ = checker.parse_table(stdout)
    single = [dict(rows[0], z2="-", sandwich="-")]
    assert checker.check_verify(render_table(single), code, [SMALL]) == 12
    with pytest.raises(CheckError, match="several values"):
        checker.check_verify(render_table(single), code, [SMALL], several_values=[SMALL])
    stdout, code = run_cli(["verify", "--sweep", "--max-n", "5"])
    rows, trailer = checker.parse_table(stdout)
    assert all(row["z2"] == "-" for row in rows)
    rows[-1]["sandwich"] = "yes"
    with pytest.raises(CheckError, match="sandwich"):
        checker.check_verify(render_table(rows, trailer), code,
                             checker.realizable_sequences(5), sweep_max_n=5)


def test_rejects_missing_sweep_row_and_bad_summary():
    stdout, code = run_cli(["verify", "--sweep", "--max-n", "6"])
    expected = checker.realizable_sequences(6)
    rows, trailer = checker.parse_table(stdout)
    with pytest.raises(CheckError):
        checker.check_verify(render_table(rows[1:], trailer), code, expected, sweep_max_n=6)
    with pytest.raises(CheckError):
        checker.check_verify(render_table(rows, ["failures: 0"]), code, expected, sweep_max_n=6)


def test_rejects_nonzero_exit():
    stdout, _ = run_cli(["verify", "-d", checker.render(SMALL)])
    with pytest.raises(CheckError):
        checker.check_verify(stdout, 1, [SMALL])


def descent(tmp_path, seed=3):
    trace = tmp_path / "trace.json"
    stdout, code = run_cli(["descend", "--random", "-d", checker.render(DESCEND),
                            "--seed", str(seed), "--trace-json", str(trace)])
    return stdout, code, trace.read_text()


def test_accepts_descend_output(tmp_path):
    stdout, code, trace = descent(tmp_path)
    steps = checker.check_descend(stdout, code, DESCEND)
    assert steps >= 2
    kinds = checker.step_kinds(trace, steps)
    assert kinds == Counter(step["kind"] for step in json.loads(trace))


def test_rejects_non_greedy_terminal_tree(tmp_path):
    stdout, code, _ = descent(tmp_path)
    head, _ = stdout.split("terminal edges:\n")
    path = "".join(f"{u} {u + 1}\n" for u in range(1, len(DESCEND)))
    with pytest.raises(CheckError, match="greedy"):
        checker.check_descend(head + "terminal edges:\n" + path, code, DESCEND)


def test_rejects_non_decreasing_pso(tmp_path):
    stdout, code, _ = descent(tmp_path)
    lines = stdout.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("step 1:"))
    before = lines[first].split("pSO ")[1].split(" -> ")[0]
    lines[first] = lines[first].split(" -> ")[0] + f" -> {before}\n"
    with pytest.raises(CheckError, match="decrease"):
        checker.check_descend("".join(lines), code, DESCEND)


def test_rejects_broken_pso_chain(tmp_path):
    stdout, code, _ = descent(tmp_path)
    broken = stdout.replace("start pSO = ", "start pSO = 1", 1)
    with pytest.raises(CheckError):
        checker.check_descend(broken, code, DESCEND)


def test_rejects_trace_of_other_length(tmp_path):
    stdout, code, trace = descent(tmp_path)
    steps = checker.check_descend(stdout, code, DESCEND)
    with pytest.raises(CheckError):
        checker.step_kinds(trace, steps + 1)
    reordered = json.dumps(list(reversed(json.loads(trace))))
    with pytest.raises(CheckError):
        checker.step_kinds(reordered, steps)
    with pytest.raises(CheckError):
        checker.step_kinds(json.dumps([{}] * steps), steps)


def test_checker_does_not_import_the_package():
    source = Path(checker.__file__).read_text()
    assert "import sombortrees" not in source
    assert "from sombortrees" not in source
