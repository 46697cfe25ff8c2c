"""Output checks for the benchmark, with references computed here.

Nothing in this module imports ``sombortrees``: the tree counts, the greedy
tree, its Sombor value and the list of realizable sequences are derived
from the definitions, so a defect in the package cannot make its own
output look right.
"""

import json
import math
import re

DIGITS = 10  # significant digits the CLI prints for floats


class CheckError(AssertionError):
    """The program's output disagrees with the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def fmt(value: float) -> str:
    return format(value, f".{DIGITS}g")


def tree_count(degrees) -> int:
    """(n-2)! / prod((d-1)!) labeled trees with these vertex degrees."""
    n = len(degrees)
    if n == 1:
        return 1
    denominator = 1
    for d in degrees:
        denominator *= math.factorial(d - 1)
    return math.factorial(n - 2) // denominator


def greedy_edges(degrees) -> list[tuple[int, int]]:
    """Edges of the tree whose breadth-first order is 1..n: vertex 1 takes
    the next d_1 labels as children, every later vertex u the next d_u - 1."""
    n = len(degrees)
    edges = []
    next_label = 2
    for u in range(1, n + 1):
        children = degrees[u - 1] - (0 if u == 1 else 1)
        for _ in range(children):
            if next_label > n:
                break
            edges.append((u, next_label))
            next_label += 1
    if next_label != n + 1:
        raise ValueError(f"degrees {degrees} do not describe a tree")
    return sorted(edges)


def sombor_value(degrees, edges) -> float:
    """Sum of sqrt(deg(u)^2 + deg(v)^2) over the edges, correctly rounded."""
    return math.fsum(math.hypot(degrees[u - 1], degrees[v - 1]) for u, v in edges)


def realizable_sequences(max_n: int) -> list[tuple[int, ...]]:
    """Every non-increasing sequence of n positive degrees summing to
    2(n - 1), for 2 <= n <= max_n."""

    def extend(prefix, slots, remaining, cap):
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        for d in range(min(cap, remaining - (slots - 1)), 0, -1):
            if d * slots < remaining:
                break
            yield from extend(prefix + [d], slots - 1, remaining - d, d)

    found = []
    for n in range(2, max_n + 1):
        found.extend(extend([], n, 2 * (n - 1), n - 1))
    return found


def render(degrees) -> str:
    return ",".join(str(d) for d in degrees)


_DEGREES = re.compile(r"\d+(,\d+)*")


def parse_table(text: str) -> tuple[list[dict[str, str]], list[str]]:
    """Rows of the verify table keyed by header name, plus the lines that
    follow the table. No cell contains whitespace, so a row splits on it;
    the table ends at the first line that does not start with degrees."""
    lines = text.splitlines()
    if not lines:
        raise CheckError("empty verify output")
    header = lines[0].split()
    rows = []
    for index, line in enumerate(lines[1:], start=1):
        cells = line.split()
        if not cells or not _DEGREES.fullmatch(cells[0]):
            return rows, lines[index:]
        _require(len(cells) == len(header), f"row {line!r} does not fit the header")
        rows.append(dict(zip(header, cells)))
    return rows, []


def check_verify(stdout: str, exit_code: int, expected, sweep_max_n=None,
                 several_values=()) -> int:
    """Check a ``verify`` table against the reference for each expected
    degree sequence; return the number of class trees it verified.

    ``sandwich`` must be ``-`` exactly when ``z2`` is (the class holds a
    single value) and ``yes`` otherwise. The sequences in
    ``several_values`` are known to hold at least two values, so their
    rows must show a ``z2``."""
    _require(exit_code == 0, f"verify exited with {exit_code}")
    rows, trailer = parse_table(stdout)
    want = {render(seq): seq for seq in expected}
    seen = [row.get("degrees") for row in rows]
    _require(len(seen) == len(set(seen)), "a degree sequence appears twice")
    _require(set(seen) == set(want),
             f"table lists {len(seen)} sequences, expected {len(want)}")
    total = 0
    for row in rows:
        seq = want[row["degrees"]]
        count = tree_count(seq)
        reference = fmt(sombor_value(seq, greedy_edges(seq)))
        label = row["degrees"]
        _require(row.get("n") == str(len(seq)), f"{label}: n = {row.get('n')}")
        _require(row.get("min") == "yes", f"{label}: min = {row.get('min')}")
        single = row.get("z2") == "-"
        _require(not (single and seq in several_values),
                 f"{label}: z2 = -, but the class holds several values")
        _require(row.get("sandwich") == ("-" if single else "yes"),
                 f"{label}: sandwich = {row.get('sandwich')} with z2 = {row.get('z2')}")
        _require(row.get("trees") == str(count),
                 f"{label}: trees = {row.get('trees')}, reference {count}")
        _require(row.get("greedy_SO") == reference,
                 f"{label}: greedy_SO = {row.get('greedy_SO')}, reference {reference}")
        _require(row.get("z1") == reference,
                 f"{label}: z1 = {row.get('z1')}, reference {reference}")
        total += count
    if sweep_max_n is not None:
        summary = (f"checked {len(want)} degree sequences with 2 <= n <= "
                   f"{sweep_max_n}; failures: 0")
        _require(trailer == [summary], f"sweep summary {trailer!r}")
    else:
        _require(trailer == [], f"unexpected lines after the table: {trailer!r}")
    return total


_NUMBER = r"(-?\d+(?:\.\d+)?(?:e[-+]\d+)?)"  # a float as format(x, ".10g") prints it
_STEP = re.compile(
    rf"step (\d+): (\w+) u=(\d+) v=(\d+) w=(\d+) t=(\d+) pSO {_NUMBER} -> {_NUMBER}$"
)


def check_descend(stdout: str, exit_code: int, degrees) -> int:
    """Check a ``descend`` transcript: the printed pSO strictly decreases
    step by step, and the terminal tree is the reference greedy tree.
    Return the number of steps."""
    _require(exit_code == 0, f"descend exited with {exit_code}")
    lines = stdout.splitlines()
    _require(len(lines) >= 6, "descend output is truncated")
    _require(lines[0] == f"n = {len(degrees)}", f"first line {lines[0]!r}")
    _require(lines[2].startswith("start pSO = "), f"third line {lines[2]!r}")
    previous = lines[2][len("start pSO = "):]
    index = 3
    steps = 0
    while index < len(lines) and lines[index].startswith("step "):
        match = _STEP.match(lines[index])
        _require(match is not None, f"malformed step line {lines[index]!r}")
        number, before, after = int(match[1]), match[7], match[8]
        _require(number == steps + 1, f"step {number} out of sequence")
        _require(before == previous, f"step {number} starts at {before}, not {previous}")
        _require(float(after) < float(before),
                 f"step {number}: pSO {before} -> {after} does not decrease")
        previous = after
        steps += 1
        index += 1
    edges = greedy_edges(degrees)
    tail = lines[index:]
    _require(tail[:3] == [f"steps = {steps}",
                          f"terminal SO = {fmt(sombor_value(degrees, edges))}",
                          "terminal edges:"],
             f"descend summary {tail[:3]!r}")
    _require(tail[3:] == [f"{u} {v}" for u, v in edges],
             "terminal edges differ from the reference greedy tree")
    return steps


def step_kinds(trace_text: str, steps: int) -> dict[str, int]:
    """Check a ``--trace-json`` file against the transcript's step count and
    the strict pSO decrease; return the number of steps of each kind."""
    try:
        trace = json.loads(trace_text)
    except ValueError as exc:
        raise CheckError(f"trace is not JSON: {exc}") from None
    _require(isinstance(trace, list) and len(trace) == steps,
             f"trace holds {len(trace) if isinstance(trace, list) else '?'} steps, "
             f"transcript {steps}")
    kinds: dict[str, int] = {}
    try:
        for number, step in enumerate(trace, start=1):
            _require(step["pso_after"] < step["pso_before"],
                     f"trace step {number} does not lower pSO")
            if number > 1:
                _require(step["pso_before"] == trace[number - 2]["pso_after"],
                         f"trace step {number} does not start where step {number - 1} ended")
            kinds[step["kind"]] = kinds.get(step["kind"], 0) + 1
    except (KeyError, TypeError) as exc:
        raise CheckError(f"malformed trace step: {exc!r}") from None
    return kinds
