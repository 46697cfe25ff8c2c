import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sombortrees import cli, oracle
from sombortrees.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

FIGURE_EDGE_TEXT = (
    "1 2\n1 3\n1 4\n1 5\n2 6\n2 7\n3 8\n3 9\n4 10\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_greedy_figure_edges(capsys):
    code, out, _ = run_cli(capsys, "greedy", "-d", "4,3,3,2,1,1,1,1,1,1", "--format", "edges")
    assert code == 0
    assert out == FIGURE_EDGE_TEXT


def test_greedy_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "greedy", "-d", "0")
    assert code == 0
    assert out == ""


def test_greedy_non_realizable_exit_3(capsys):
    code, _, err = run_cli(capsys, "greedy", "-d", "2,2,2")
    assert code == 3
    assert "no tree" in err


def test_greedy_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "greedy", "-d", "2,x,1")
    assert code == 2
    assert "non-integer" in err


def test_greedy_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "greedy", "-d", "2,2,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 4, "edges": [[1, 2], [1, 3], [2, 4]]}
    code, out, _ = run_cli(capsys, "greedy", "-d", "2,2,1,1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {") and "2 -- 4;" in out


def test_index_reads_edge_list(tmp_path, capsys):
    path = tmp_path / "figure.txt"
    path.write_text(FIGURE_EDGE_TEXT)
    code, out, _ = run_cli(capsys, "index", str(path))
    assert code == 0
    expected = 10 + 3 * math.sqrt(5) + math.sqrt(17) + 4 * math.sqrt(10)
    assert f"SO = {expected:.10g}" in out


def test_index_with_explicit_q(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("1 2\n")
    code, out, _ = run_cli(capsys, "index", str(path), "--q", "0.25")
    assert code == 0
    assert f"pSO = {math.sqrt(0.8125):.10g}" in out
    assert "0.9013878189" in out
    assert "  1    1  0.75" in out


def test_index_round_trips_greedy_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "greedy", "-d", "4,3,3,2,1,1,1,1,1,1", "--format", "json")
    assert code == 0
    path = tmp_path / "tree.json"
    path.write_text(out)
    code, direct, _ = run_cli(capsys, "index", str(path))
    assert code == 0
    edge_path = tmp_path / "tree.txt"
    edge_path.write_text(FIGURE_EDGE_TEXT)
    code, via_edges, _ = run_cli(capsys, "index", str(edge_path))
    assert code == 0
    assert direct == via_edges


def test_index_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "index", "/nonexistent/tree.txt")
    assert code == 2
    assert "cannot read" in err


def test_index_invalid_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    code, _, _ = run_cli(capsys, "index", str(path))
    assert code == 2


def test_index_bad_q_flag_exit_2(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("1 2\n")
    code, _, _ = run_cli(capsys, "index", str(path), "--q", "abc")
    assert code == 2


@pytest.mark.parametrize("q", ["nan", "inf", "-0.0", "0", "-1"])
def test_index_refuses_non_finite_q(tmp_path, capsys, q):
    # q is checked before the first line is printed.
    path = tmp_path / "path.txt"
    path.write_text("1 2\n2 3\n")
    code, out, err = run_cli(capsys, "index", str(path), "--q", q)
    assert code == 2
    assert out == ""
    assert "finite and positive" in err


@pytest.mark.parametrize("command", ["index", "descend"])
def test_deeply_nested_json_tree_exit_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text('{"n":2,"edges":' + "[" * 100_000)
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert "invalid JSON" in err
    assert "Traceback" not in err


def test_verify_single_sequence(capsys):
    code, out, _ = run_cli(capsys, "verify", "-d", "3,2,2,1,1,1")
    assert code == 0
    assert "14.84551617" in out
    assert "14.9946017" in out
    assert "yes" in out


def test_verify_trivial_class(capsys):
    code, out, _ = run_cli(capsys, "verify", "-d", "1,1")
    assert code == 0
    assert "1,1" in out


def test_verify_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--sweep", "--max-n", "6")
    assert code == 0
    assert "checked 12 degree sequences" in out
    assert "failures: 0" in out


def test_verify_sweep_requires_max_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--sweep")
    assert code == 2
    assert "--max-n" in err


@pytest.mark.parametrize("max_n", ["1", "0", "-5"])
def test_verify_sweep_refuses_max_n_below_two(capsys, max_n):
    code, out, err = run_cli(capsys, "verify", "--sweep", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err == f"error: --max-n must be at least 2, got {max_n}\n"


def test_verify_cap_exit_4(capsys):
    for cap in ("1", "0"):
        code, _, err = run_cli(capsys, "verify", "-d", "2,2,1,1", "--cap", cap)
        assert code == 4
        assert f"over the cap of {cap}" in err


def test_verify_cap_exit_4_on_a_class_too_large_to_print(capsys):
    # 2000! trees: 5,736 digits, past the 4,300 that Python turns into text.
    code, out, err = run_cli(capsys, "verify", "-d", ",".join(["2"] * 2000 + ["1", "1"]))
    assert (code, out) == (4, "")
    assert err.endswith(" holds at least 10^5735 trees, over the cap of 10000000\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("-d", "3,2,2,1,1,1"), ("--sweep", "--max-n", "6")])
def test_verify_refuses_negative_cap_before_sizing(capsys, monkeypatch, argv):
    sized = []
    count = oracle.count_trees
    monkeypatch.setattr(oracle, "count_trees", lambda seq: sized.append(seq) or count(seq))
    code, out, err = run_cli(capsys, "verify", *argv, "--cap", "-1")
    assert (code, out, sized) == (2, "", [])
    assert err == "error: --cap must be at least 0, got -1\n"


def test_verify_sweep_refuses_cap_before_verifying(capsys, monkeypatch):
    calls = []
    verify = cli.verify_greedy_minimum

    def counting_verify(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_greedy_minimum", counting_verify)
    code, out, err = run_cli(capsys, "verify", "--sweep", "--max-n", "9", "--cap", "100")
    assert code == 4
    assert calls == []
    assert out == ""
    assert err == "error: class of 2,2,2,2,2,1,1 holds 120 trees, over the cap of 100\n"


# 13 vertices, 19,958,400 trees: over the default cap.
OVER_DEFAULT_CAP = ",".join(["3"] + ["2"] * 9 + ["1"] * 3)


@pytest.mark.parametrize("cap, code", [("19958400", 0), ("19958399", 4)])
def test_verify_library_check_uses_the_given_cap(capsys, cap, code):
    # The pre-walk and verify_greedy_minimum each size the class; a library
    # check that fell back to the default cap would refuse this class.
    exit_code, out, err = run_cli(capsys, "verify", "-d", OVER_DEFAULT_CAP, "--cap", cap)
    assert exit_code == code
    if code == 0:
        header, row = out.splitlines()
        assert row.split()[header.split().index("trees")] == "19958400"
    else:
        assert out == ""
        assert "holds 19958400 trees, over the cap of 19958399" in err


def test_verify_non_realizable_exit_3(capsys):
    code, _, _ = run_cli(capsys, "verify", "-d", "3,1")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("-d", "4,3,3,2,2,1,1,1,1,1,1", "--tolerance", "2"),
        ("--sweep", "--max-n", "5", "--tolerance", "1e-9"),
    ],
    ids=["merging-class", "sweep"],
)
def test_verify_has_no_tolerance_flag(capsys, argv):
    # A tolerance wide enough to merge the spectrum into one value would
    # report the minimum attained without checking anything.
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tolerance" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "-d", "3,2,2,1,1,1", "--max-n", "5"), "--max-n applies only to --sweep"),
        (("descend", "TREE_FILE", "-d", "9,9,9"), "-d/--degrees applies only to --random"),
        (("descend", "TREE_FILE", "--seed", "5"), "--seed applies only to --random"),
    ],
    ids=["verify-max-n", "descend-degrees", "descend-seed"],
)
def test_flags_the_mode_ignores_are_refused(tmp_path, capsys, argv, message):
    path = tmp_path / "edge.txt"
    path.write_text("1 2\n")
    argv = [str(path) if arg == "TREE_FILE" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


OPTION_SURFACE = {
    "greedy": {"-d/--degrees", "--format"},
    "index": {"--q"},
    "verify": {"-d/--degrees", "--sweep", "--max-n", "--cap"},
    "descend": {"-d/--degrees", "--random", "--seed", "--q", "--trace-json"},
}


def test_option_surface(capsys):
    # Every option is a setting to test and document: adding one means
    # editing this table.
    surface = {}
    for command in OPTION_SURFACE:
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        options = surface[command] = set()
        for line in out.splitlines():
            match = re.match(r"\s+(-.*?)(?:\s{2,}|$)", line)
            if match:
                options.add("/".join(re.findall(r"(?:^|, )(-[\w-]+)", match.group(1))))
    assert surface == {
        command: options | {"-h/--help"} for command, options in OPTION_SURFACE.items()
    }


def _shift_up(fn):
    return lambda *args: math.nextafter(fn(*args), math.inf)


@pytest.mark.parametrize(
    "name, fake, degrees",
    [
        ("count_trees", lambda real: lambda seq: real(seq) + 1, "3,2,2,1,1,1"),
        ("sombor", _shift_up, "3,2,2,1,1,1"),
        ("pseudo_sombor", _shift_up, "3,2,2,1,1,1"),
        # One value, so no sandwich pass: only the spectrum's spot check
        # sees the shift.
        ("sombor", _shift_up, "2,2,1,1"),
    ],
    ids=["tree-count", "spectrum-spot-check", "sandwich-spot-check",
         "one-value-spectrum-spot-check"],
)
def test_verify_oracle_invariant_exit_5(capsys, monkeypatch, name, fake, degrees):
    monkeypatch.setattr(oracle, name, fake(getattr(oracle, name)))
    code, out, err = run_cli(capsys, "verify", "-d", degrees)
    assert code == 5
    assert out == ""
    assert err.startswith("internal invariant violated: ")
    assert "Traceback" not in err


# 103 vertices, 101 code entries, 10,100 trees in 20 values.
BROOM_103 = ("verify", "-d", ",".join(["100", "2", "2"] + ["1"] * 100))
BROOM_103_SHA = "54a4fc8af14126275a811e322654b1bbdcedc58dc0aff1c6b7ff430f037d5f05"
# 2,403 vertices, 2,401 code entries, 1,441,200 trees: codes that differ
# early, each ending in a long forced run of label 1.
BROOM_2403 = ("verify", "-d", ",".join(["1200", "2", "2"] + ["1"] * 1200))


SWEEP_9_SHA = "43603c72b5910f4362f64480a428a2b9e632a68736c9a681690d0d44f5c1ddb1"
SWEEP_12_SHA = "3ffdf35a70dfc4e2453176a26dcf19d8667445aceef1042331d31acf1b24e9d7"


@pytest.mark.parametrize(
    "argv, stdout_sha",
    [
        (
            ("verify", "-d", "4,3,3,2,2,1,1,1,1,1,1"),
            "b89bf5d879218cd3612a318b05748c0af7b73050e7f29668e2f1259390a18300",
        ),
        (
            ("verify", "-d", "0"),
            "04756621b2bb1c785cc4a90aafdaf7e4a37ffe0548279295e5348606fa19a178",
        ),
        (
            ("verify", "-d", "1,1"),
            "a3b96b0a8cf3b4d34db6c186c7734dea86e34286a5b4d69fe70cb1f3b6c7abd9",
        ),
        (
            ("verify", "--sweep", "--max-n", "8"),
            "a2896fc8f53d2dfed9ab096c62c40731f5701d7d909044a2676b05c0c5d0be22",
        ),
        (("verify", "--sweep", "--max-n", "9"), SWEEP_9_SHA),
        (
            ("verify", "--sweep", "--max-n", "10"),
            "3e1e6c6e7817808e66565d1a48f07d370ee0637b3d7b1c80ca7e94f328f6390b",
        ),
        (
            # A 1,501-vertex star: 1,500 equal sibling branches at the root.
            ("verify", "-d", ",".join(["1500"] + ["1"] * 1500)),
            "7132d84c329eae6721f276cd7b3164e0d147bc8ec805e6d2c88599e1317f32f0",
        ),
        (BROOM_103, BROOM_103_SHA),
        (("verify", "--sweep", "--max-n", "12"), SWEEP_12_SHA),
        (BROOM_2403, "5fdcd9fd78485dcaf1463cfb0432c58172c54ceabd5efb6e96eac1531567e779"),
        (
            ("greedy", "-d", "4,3,3,2,1,1,1,1,1,1", "--format", "dot"),
            "6d1bab77433c9ea8216b7f558a50fb5ac6e1f7413737ff2393c3d571c76b45dd",
        ),
    ],
    ids=["n11-class", "one-vertex", "one-edge", "sweep-8", "sweep-9", "sweep-10",
         "star-1501", "broom-103", "sweep-12", "broom-2403", "greedy-dot"],
)
def test_verify_golden(capsys, argv, stdout_sha):
    # Pins the exact bytes of verify, so a rewrite of the class walk or of
    # the index sums must reproduce every printed digit and verdict, and of
    # the annotated DOT rendering of the figure tree.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha



@pytest.mark.parametrize(
    "max_n, passes, stdout_sha",
    [(9, 15, SWEEP_9_SHA), (12, 42, SWEEP_12_SHA)],
    ids=["sweep-9", "sweep-12"],
)
def test_verify_sweep_runs_one_pass_per_sequence_without_its_2s(
    capsys, monkeypatch, max_n, passes, stdout_sha
):
    # Classes that differ only in their 2s share one decoder pass over the
    # sequence without them, and the table keeps its bytes.
    started = []
    real_pass = oracle._decoder_pass

    def decoder_pass(seq, start, join):
        started.append(seq.degrees)
        return real_pass(seq, start, join)

    monkeypatch.setattr(oracle, "_decoder_pass", decoder_pass)
    code, out, _ = run_cli(capsys, "verify", "--sweep", "--max-n", str(max_n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    reduced = {
        tuple(d for d in seq.degrees if d != 2) for seq in oracle.realizable_sequences(max_n)
    }
    assert sorted(started) == sorted(reduced) and len(started) == passes


def test_verify_stack_depth_does_not_grow_with_n(capsys):
    # verify needs under 30 frames above its caller on this class. A walk
    # that recursed once per code entry would need more than 100, and a
    # RecursionError would end verify with a traceback.
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        code, out, err = run_cli(capsys, *BROOM_103)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BROOM_103_SHA


def test_descend_fixed_point_from_file(tmp_path, capsys):
    path = tmp_path / "greedy.txt"
    path.write_text(FIGURE_EDGE_TEXT)
    code, out, _ = run_cli(capsys, "descend", str(path))
    assert code == 0
    assert "steps = 0" in out
    assert out.endswith(FIGURE_EDGE_TEXT)


def test_descend_shape_b_file(tmp_path, capsys):
    path = tmp_path / "shape_b.txt"
    path.write_text("1 2\n2 3\n3 4\n1 5\n1 6\n")
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "descend", str(path), "--trace-json", str(trace_path))
    assert code == 0
    assert "terminal edges:" in out
    terminal = out.split("terminal edges:\n", 1)[1]
    assert terminal == "1 2\n1 3\n1 4\n2 5\n3 6\n"
    steps = json.loads(trace_path.read_text())
    assert len(steps) >= 1
    assert steps[0]["pso_after"] < steps[0]["pso_before"]


def test_descend_random_reaches_figure_tree(capsys):
    code, out, _ = run_cli(
        capsys, "descend", "--random", "-d", "4,3,3,2,1,1,1,1,1,1", "--seed", "7"
    )
    assert code == 0
    assert out.endswith(FIGURE_EDGE_TEXT)


DESCEND_82 = ",".join(["4"] * 10 + ["3"] * 10 + ["2"] * 30 + ["1"] * 32)
DESCEND_162 = ",".join(["4"] * 20 + ["3"] * 20 + ["2"] * 60 + ["1"] * 62)


@pytest.mark.parametrize(
    "degrees, seed, stdout_sha, trace_sha",
    [
        (
            "4,3,3,2,1,1,1,1,1,1", 7,
            "3a0dc123dd9f848a15a7f3e3f7d7a33feb93986e3058f73e9e6e7f4fa6c4b01f",
            "b3a78c0e8df1ee0eeca319b78ce14436aa314ff78528a11f717213358a411fe3",
        ),
        (
            DESCEND_82, 0,
            "3d7a8cf5594c1c885c12f57be41fe249c11dab27203f7075ee84166645bec814",
            "880a970782f4b42f05c9944a7048a2c2e8303e9783c6d6bbf280783a5071a135",
        ),
        (
            DESCEND_162, 0,
            "3843416d535826ebbcf4e3315d62bf826a89a021d89de287b9a3c32eb77cf92c",
            "4cf16a998e0a8c96abaaa0520c1d524704506e7f6520b8b7c2516e8e47fbe054",
        ),
    ],
    ids=["n10-seed7", "n82-seed0", "n162-seed0"],
)
def test_descend_random_golden(tmp_path, capsys, degrees, seed, stdout_sha, trace_sha):
    # Pins the exact bytes of a descent, so a rewrite of the disorder scan
    # or of descend must reproduce every step and every printed digit.
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "descend", "--random", "-d", degrees, "--seed", str(seed),
        "--trace-json", str(trace_path),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == trace_sha


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_descend_unwritable_trace_exits_2_before_printing(tmp_path, capsys, where):
    trace_path = tmp_path if where == "directory" else tmp_path / "missing" / "trace.json"
    code, out, err = run_cli(
        capsys, "descend", "--random", "-d", "3,2,2,1,1,1", "--trace-json", str(trace_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write trace file {trace_path}: ")
    assert "Traceback" not in err


def test_descend_requires_some_input(capsys):
    code, _, err = run_cli(capsys, "descend")
    assert code == 2
    assert "tree file" in err


def test_descend_random_requires_degrees(capsys):
    code, _, _ = run_cli(capsys, "descend", "--random")
    assert code == 2


def test_descend_refuses_file_and_random(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("1 2\n")
    code, out, err = run_cli(capsys, "descend", str(path), "--random", "-d", "1,1")
    assert code == 2
    assert out == ""
    assert "not both" in err


def test_descend_rejects_bad_q(tmp_path, capsys):
    path = tmp_path / "edge.txt"
    path.write_text("1 2\n")
    code, _, _ = run_cli(capsys, "descend", str(path), "--q", "0.9")
    assert code == 2


@pytest.mark.parametrize("q", ["1e-300", "1e-17"])
def test_descend_refuses_q_too_small_to_separate_scores(tmp_path, capsys, q):
    path = tmp_path / "shape_b.txt"
    path.write_text("1 2\n2 3\n3 4\n1 5\n1 6\n")
    code, out, err = run_cli(capsys, "descend", str(path), "--q", q)
    assert code == 2
    assert out == ""
    assert "degree-ordered" in err


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # A fresh interpreter without ``site`` (whose .pth files may import
    # typing) and with this checkout's src first: every CLI process pays
    # for what importing the package pulls in.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import sombortrees.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _run_subprocess(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "sombortrees", *argv],
        capture_output=True,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("greedy", "-d", "4,3,3,2,1,1,1,1,1,1", "--format", "dot"),
        ("verify", "-d", "3,2,2,1,1,1"),
        ("descend", "--random", "-d", "4,3,3,2,1,1,1,1,1,1", "--seed", "7"),
    ],
    ids=["greedy-dot", "verify", "descend-random"],
)
def test_byte_identical_reruns(argv):
    first = _run_subprocess(*argv)
    second = _run_subprocess(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
