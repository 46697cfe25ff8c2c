"""Command-line frontend: greedy construction, index evaluation, switching
descent, and exhaustive minimality verification.

Exit codes are a stable contract: 0 success, 2 parse/input error,
3 non-realizable degree sequence, 4 resource cap exceeded, 5 internal
invariant failure. All configuration is taken from flags; no environment
variables are consulted.
"""

import argparse
import json
import random
import sys
from pathlib import Path

from .degseq import NotTreeRealizableError, parse_degree_sequence
from .greedy import build_greedy
from .indices import pseudo_sombor, score_assignment, sombor
from .oracle import (
    DEFAULT_TREE_CAP,
    OracleInvariantError,
    ResourceCapExceededError,
    _require_within_cap,
    format_report_table,
    realizable_sequences,
    sample_tree,
    verify_greedy_minimum,
)
from .switching import DescentInvariantError, DescentTrace, SwitchError, descend
from .tree_core import LabeledTree, TreeError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_REALIZABLE = 3
EXIT_RESOURCE_CAP = 4
EXIT_INTERNAL = 5


class CommandLineError(ValueError):
    """Bad flag combination or unreadable input."""


def _fmt(value: float) -> str:
    return format(value, ".10g")


# One trace step as ``json.dumps(..., indent=2)`` lays it out inside the list.
_STEP_JSON = (
    '  {{\n    "u": {},\n    "v": {},\n    "w": {},\n    "t": {},\n    "kind": "{}",\n'
    '    "pso_before": {!r},\n    "pso_after": {!r},\n    "so_before": {!r},\n'
    '    "so_after": {!r}\n  }}'
)


def _trace_json(trace: DescentTrace) -> str:
    """The bytes of ``json.dumps(trace.to_json(), indent=2)`` without the
    pure-Python encoder that ``indent`` forces. A label is an int, a kind
    an ASCII name and an index a finite float, which ``json`` writes as its
    ``repr``."""
    if not trace.steps:
        return "[]"
    return "[\n" + ",\n".join(
        _STEP_JSON.format(s.plan.u, s.plan.v, s.plan.w, s.plan.t, s.kind.value,
                          s.pso_before, s.pso_after, s.so_before, s.so_after)
        for s in trace.steps
    ) + "\n]"


def _q_flag(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a real number, got {text!r}"
        ) from None


def _resolve_q(flag, n: int) -> float:
    """Value of a parsed --q flag for an n-vertex tree."""
    return 1.0 / (2 * n) if flag == "auto" else flag


def _load_tree(path: str) -> LabeledTree:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CommandLineError(f"cannot read tree file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise TreeError(f"invalid JSON tree file {path}: {exc}") from exc
        return LabeledTree.from_json_dict(obj)
    return LabeledTree.from_edge_text(text)


def _render_tree(tree: LabeledTree, fmt: str) -> str:
    if fmt == "edges":
        return tree.to_edge_text()
    if fmt == "json":
        return json.dumps(tree.to_json_dict()) + "\n"
    return tree.to_dot()


def cmd_greedy(args) -> int:
    seq = parse_degree_sequence(args.degrees)
    sys.stdout.write(_render_tree(build_greedy(seq), args.format))
    return EXIT_OK


def cmd_index(args) -> int:
    tree = _load_tree(args.tree_file)
    if args.q is not None:
        # A bad q exits 2 before anything is printed.
        q_value = _resolve_q(args.q, tree.n)
        scores = score_assignment(tree, q_value)
    print(f"n = {tree.n}")
    print(f"SO = {_fmt(sombor(tree))}")
    if args.q is not None:
        origin = "auto: 1/(2n)" if args.q == "auto" else "given"
        print(f"q = {_fmt(q_value)} ({origin})")
        print(f"pSO = {_fmt(pseudo_sombor(tree, scores))}")
        print("  u  deg  score")
        for u in range(1, tree.n + 1):
            print(f"{u:>3}  {tree.degree(u):>3}  {_fmt(scores[u])}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.cap < 0:
        raise CommandLineError(f"--cap must be at least 0, got {args.cap}")
    if args.sweep:
        if args.max_n is None:
            raise CommandLineError("--sweep requires --max-n")
        if args.max_n < 2:
            raise CommandLineError(f"--max-n must be at least 2, got {args.max_n}")
        candidates = realizable_sequences(args.max_n)
    else:
        if args.max_n is not None:
            raise CommandLineError("--max-n applies only to --sweep")
        candidates = [parse_degree_sequence(args.degrees)]
    # Verification is all-or-nothing: refuse an over-cap class before verifying
    # any, and stop at the first, so a large --max-n never lists all its sequences.
    checked = []
    for seq in candidates:
        _require_within_cap(seq, args.cap)
        checked.append(seq)
    reports = [verify_greedy_minimum(seq, args.cap) for seq in checked]
    sys.stdout.write(format_report_table(reports))
    failures = sum(1 for r in reports if not r.minimum_attained)
    if args.sweep:
        print(
            f"checked {len(reports)} degree sequences with 2 <= n <= {args.max_n}; "
            f"failures: {failures}"
        )
    return EXIT_OK if failures == 0 else 1


def cmd_descend(args) -> int:
    if args.random and args.tree_file:
        raise CommandLineError("give either a tree file or --random, not both")
    if args.degrees is not None and not args.random:
        raise CommandLineError("-d/--degrees applies only to --random")
    if args.seed is not None and not args.random:
        raise CommandLineError("--seed applies only to --random")
    if args.random:
        if not args.degrees:
            raise CommandLineError("--random requires -d/--degrees")
        seq = parse_degree_sequence(args.degrees)
        tree = sample_tree(seq, random.Random(args.seed or 0))
    elif args.tree_file:
        tree = _load_tree(args.tree_file)
    else:
        raise CommandLineError("provide a tree file or --random with -d/--degrees")
    q_value = _resolve_q(args.q, tree.n)
    start_scores = score_assignment(tree, q_value)
    terminal, trace = descend(tree, q_value)
    if args.trace_json:
        try:
            Path(args.trace_json).write_text(_trace_json(trace) + "\n")
        except OSError as exc:
            raise CommandLineError(f"cannot write trace file {args.trace_json}: {exc}") from exc
    print(f"n = {tree.n}")
    print(f"q = {_fmt(q_value)}")
    print(f"start pSO = {_fmt(pseudo_sombor(tree, start_scores))}")
    for number, step in enumerate(trace.steps, start=1):
        print(
            f"step {number}: {step.kind.value} "
            f"u={step.plan.u} v={step.plan.v} w={step.plan.w} t={step.plan.t} "
            f"pSO {_fmt(step.pso_before)} -> {_fmt(step.pso_after)}"
        )
    print(f"steps = {len(trace.steps)}")
    print(f"terminal SO = {_fmt(sombor(terminal))}")
    print("terminal edges:")
    sys.stdout.write(terminal.to_edge_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sombortrees",
        description=(
            "Greedy trees for prescribed degree sequences: Sombor-type "
            "indices, switching descent, and exhaustive verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_greedy = sub.add_parser("greedy", help="build the greedy tree for a degree sequence")
    p_greedy.add_argument("-d", "--degrees", required=True, help="e.g. 4,3,3,2,1,1,1,1,1,1")
    p_greedy.add_argument("--format", choices=["edges", "json", "dot"], default="edges")
    p_greedy.set_defaults(func=cmd_greedy)

    p_index = sub.add_parser("index", help="Sombor index of a tree file (edge list or JSON)")
    p_index.add_argument("tree_file")
    p_index.add_argument(
        "--q",
        type=_q_flag,
        default=None,
        help="also print scores and the pseudo index; 'auto' uses 1/(2n)",
    )
    p_index.set_defaults(func=cmd_index)

    p_verify = sub.add_parser("verify", help="exhaustively verify greedy minimality")
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("-d", "--degrees")
    source.add_argument("--sweep", action="store_true", help="all realizable sequences up to --max-n")
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_verify.add_argument("--cap", type=int, default=DEFAULT_TREE_CAP,
                          help="labeled trees a class may hold (the spectrum's cost follows "
                               "the distinct degrees of the sequence without its 2s)")
    p_verify.set_defaults(func=cmd_verify)

    p_descend = sub.add_parser("descend", help="switch any tree down to the greedy tree")
    p_descend.add_argument("tree_file", nargs="?", default=None)
    p_descend.add_argument("--random", action="store_true",
                           help="start from a seeded uniform sample of the class of -d")
    p_descend.add_argument("-d", "--degrees", default=None)
    p_descend.add_argument("--seed", type=int, default=None,
                           help="seed of the --random sample (default 0)")
    p_descend.add_argument("--q", type=_q_flag, default="auto")
    p_descend.add_argument("--trace-json", dest="trace_json", default=None,
                           help="write the step trace to this path as JSON")
    p_descend.set_defaults(func=cmd_descend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NotTreeRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    except ResourceCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (DescentInvariantError, SwitchError, OracleInvariantError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
