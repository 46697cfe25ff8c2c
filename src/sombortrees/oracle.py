"""Exhaustive enumeration of the trees with a fixed degree sequence, the
class's value spectrum and the score constant q picked from its gap, and
verification that the greedy tree attains the minimum Sombor index.

Enumeration walks the distinct permutations of the code multiset in which
label u occurs deg(u) - 1 times, decoding each permutation; that visits
every labeled tree of the class exactly once.

The spectrum and sandwich passes sum per-edge terms over each decoded edge
list without building a tree: every tree of the class shares the per-label
degrees, and ``math.fsum`` rounds exactly, so the sums carry the same bits
as ``sombor`` and ``pseudo_sombor`` of the tree. Each pass also takes the
class's first tree through ``prufer_decode`` and those two functions, and
raises ``OracleInvariantError`` unless both routes agree bit for bit.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .degseq import DegreeSequence, require_tree_realizable
from .greedy import build_greedy
from .indices import ScoreAssignment, pseudo_sombor, score_assignment, sombor
from .tree_core import LabeledTree, PruferCode, prufer_decode, prufer_edges

DEFAULT_TREE_CAP = 10_000_000
# Two index values closer than this are treated as the same element of the
# value spectrum (gap clustering).
DEFAULT_VALUE_TOLERANCE = 1e-9


class ResourceCapExceededError(RuntimeError):
    """The tree class is too large for exhaustive verification."""


class OracleInvariantError(RuntimeError):
    """The enumeration disagrees with itself: the class walk yielded a tree
    count other than the formula's, or its fast index sums differ from the
    slow path on the class's first tree."""


def count_trees(seq: DegreeSequence) -> int:
    """Number of labeled trees realizing the sequence:
    (n-2)! / prod((d_i - 1)!) for n >= 2, and 1 for the one-vertex tree."""
    require_tree_realizable(seq)
    if seq.n == 1:
        return 1
    denominator = 1
    for d in seq.degrees:
        denominator *= math.factorial(d - 1)
    return math.factorial(seq.n - 2) // denominator


def _require_within_cap(seq: DegreeSequence, cap: int) -> int:
    """Class size of the sequence; refuses classes holding more than
    ``cap`` trees."""
    total = count_trees(seq)
    if total > cap:
        raise ResourceCapExceededError(
            f"class of {seq.render()} holds {total} trees, over the cap of {cap}"
        )
    return total


def _code_multiset(seq: DegreeSequence) -> list[int]:
    """Label u repeated deg(u) - 1 times, in ascending order."""
    items: list[int] = []
    for label, d in enumerate(seq.degrees, start=1):
        items.extend([label] * (d - 1))
    return items


def _next_permutation(items: list[int]) -> bool:
    """Advance to the lexicographic successor in place; False at the end."""
    i = len(items) - 2
    while i >= 0 and items[i] >= items[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(items) - 1
    while items[j] <= items[i]:
        j -= 1
    items[i], items[j] = items[j], items[i]
    items[i + 1 :] = reversed(items[i + 1 :])
    return True


def _class_walk(seq: DegreeSequence) -> Iterator[list[tuple[int, int]]]:
    """Edge list of every tree of the class, as ``prufer_edges`` yields it,
    in the lexicographic order of the codes. The code multiset is valid by
    construction, so no ``PruferCode`` is built."""
    require_tree_realizable(seq)
    if seq.n == 1:
        yield []
        return
    items = _code_multiset(seq)
    while True:
        yield prufer_edges(items, seq.degrees)
        if not _next_permutation(items):
            return


def enumerate_trees(seq: DegreeSequence) -> Iterator[LabeledTree]:
    """Yield every labeled tree with deg(u) = d_u exactly once, in the
    lexicographic order of the underlying codes."""
    for edges in _class_walk(seq):
        yield LabeledTree(seq.n, edges)


def sample_tree(seq: DegreeSequence, rng: random.Random) -> LabeledTree:
    """Uniform sample from the tree class: shuffle the code multiset and
    decode (every distinct arrangement is equally likely)."""
    require_tree_realizable(seq)
    if seq.n == 1:
        return LabeledTree(1, [])
    items = _code_multiset(seq)
    rng.shuffle(items)
    return prufer_decode(PruferCode(seq.n, tuple(items)))


class _EdgeTerms(dict):
    """Edge (a, b) -> hypot(w_a, w_b), the edge's term in an index over the
    label weights w (degrees or scores). A term is computed on its first
    lookup, so the table holds only the edges the walk meets."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[float]):
        super().__init__()
        self.weights = weights

    def __missing__(self, edge: tuple[int, int]) -> float:
        a, b = edge
        term = self[edge] = math.hypot(self.weights[a - 1], self.weights[b - 1])
        return term


def _checked_walk(seq: DegreeSequence, scores: ScoreAssignment | None = None):
    """The class walk with its edge-term lookups, for degrees and (given
    scores) for scores. Rebuilds the class's first tree the slow way and
    raises ``OracleInvariantError`` unless its edges, Sombor value and
    (given scores) pseudo value equal the walk's."""
    so_term = _EdgeTerms(seq.degrees).__getitem__
    pso_term = _EdgeTerms(scores.values).__getitem__ if scores is not None else None
    walk = _class_walk(seq)
    first = next(walk)
    if seq.n == 1:
        tree = LabeledTree(1, [])
    else:
        tree = prufer_decode(PruferCode(seq.n, tuple(_code_multiset(seq))))
    if (
        tree.edges != tuple(sorted(first))
        or sombor(tree) != math.fsum(map(so_term, first))
        or scores is not None
        and pseudo_sombor(tree, scores) != math.fsum(map(pso_term, first))
    ):
        raise OracleInvariantError(
            f"class walk of {seq.render()} disagrees with prufer_decode on its first tree"
        )
    return chain((first,), walk), so_term, pso_term


def sombor_value_counts(seq: DegreeSequence) -> Counter:
    """Exact index value -> number of trees attaining it.

    Counter addition merges partial counts from any partition of the
    enumeration, in any order, without changing the final spectrum.
    """
    walk, term, _ = _checked_walk(seq)
    return Counter(math.fsum(map(term, edges)) for edges in walk)


def _sandwich_holds(seq: DegreeSequence, scores: ScoreAssignment, half_gap: float) -> bool:
    """Whether every tree of the class has SO - half_gap < pSO < SO; stops
    at the first tree that breaks it."""
    walk, so_term, pso_term = _checked_walk(seq, scores)
    for edges in walk:
        so = math.fsum(map(so_term, edges))
        if not (so - half_gap < math.fsum(map(pso_term, edges)) < so):
            return False
    return True


@dataclass(frozen=True)
class SpectrumSummary:
    """Distinct index values over one tree class, with multiplicities.

    Values are strictly increasing; multiplicities count the labeled trees
    attaining each.
    """

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        if not self.values:
            raise ValueError("spectrum must contain at least one value")
        if len(self.values) != len(self.multiplicities):
            raise ValueError("values and multiplicities differ in length")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("spectrum values must be strictly increasing")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")

    @property
    def z1(self) -> float:
        """Smallest value."""
        return self.values[0]

    @property
    def z2(self) -> float | None:
        """Second smallest value, or None when only one value exists."""
        return self.values[1] if len(self.values) >= 2 else None

    @property
    def tree_count(self) -> int:
        return sum(self.multiplicities)

    @property
    def distinct_count(self) -> int:
        return len(self.values)


def spectrum_from_counts(counts: Counter) -> SpectrumSummary:
    """Cluster exact values whose consecutive gap is at most
    ``DEFAULT_VALUE_TOLERANCE``; each cluster is represented by its smallest
    member."""
    if not counts:
        raise ValueError("no values to summarize")
    values: list[float] = []
    multiplicities: list[int] = []
    previous = None
    for value in sorted(counts):
        if previous is not None and value - previous <= DEFAULT_VALUE_TOLERANCE:
            multiplicities[-1] += counts[value]
        else:
            values.append(value)
            multiplicities.append(counts[value])
        previous = value
    return SpectrumSummary(tuple(values), tuple(multiplicities))


def sombor_spectrum(seq: DegreeSequence) -> SpectrumSummary:
    """Distinct Sombor values over the whole tree class, with multiplicities."""
    return spectrum_from_counts(sombor_value_counts(seq))


@dataclass(frozen=True)
class QConstant:
    """A tie-breaking constant together with the rule that produced it.

    ``branch`` is one of:
      * ``"spectrum-gap"``: min(1/(2n), (z2 - z1) / (4 n^3 sqrt(2))), from a
        spectrum with at least two distinct values;
      * ``"single-value"``: 1/(2n), from a one-value spectrum.
    """

    value: float
    branch: str


def compute_q(seq: DegreeSequence, spectrum: SpectrumSummary) -> QConstant:
    """Small positive constant used to perturb degrees into distinct scores.

    The spectrum-gap value is small enough that the pseudo index orders
    trees exactly like the plain index; 1/(2n) still keeps all scores
    positive and strictly decreasing for degree-ordered labelings.
    """
    n = seq.n
    if n < 2:
        raise ValueError("the score constant is defined for n >= 2 only")
    base = 1.0 / (2 * n)
    if spectrum.z2 is None:
        return QConstant(base, "single-value")
    gap = (spectrum.z2 - spectrum.z1) / (4 * n**3 * math.sqrt(2))
    return QConstant(min(base, gap), "spectrum-gap")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exhaustive minimality check for one degree sequence.

    ``minimum_attained`` is |SO(greedy) - z1| <= DEFAULT_VALUE_TOLERANCE.
    ``sandwich_holds`` reports whether every tree's pseudo index lies
    strictly between SO - (z2 - z1)/2 and SO; it is None when the class has
    a single value (no gap to measure) or n = 1.
    """

    seq: DegreeSequence
    tree_count: int
    z1: float
    z2: float | None
    greedy_so: float
    minimum_attained: bool
    sandwich_holds: bool | None
    q_used: QConstant | None


def verify_greedy_minimum(
    seq: DegreeSequence, cap: int = DEFAULT_TREE_CAP
) -> VerificationReport:
    """Exhaustively check that the greedy tree attains the smallest Sombor
    value of its class, and that every pseudo index respects the half-gap
    sandwich when at least two distinct values exist.

    Refuses classes larger than ``cap`` trees before any enumeration:
    verification is all-or-nothing, never truncated.
    """
    total = _require_within_cap(seq, cap)
    greedy_tree = build_greedy(seq)
    greedy_so = sombor(greedy_tree)
    # The one-vertex class holds one tree and has no score constant.
    z1, z2, q, sandwich = greedy_so, None, None, None
    if seq.n > 1:
        spectrum = sombor_spectrum(seq)
        if spectrum.tree_count != total:
            raise OracleInvariantError(
                f"enumeration yielded {spectrum.tree_count} trees, expected {total}"
            )
        q = compute_q(seq, spectrum)
        z1, z2 = spectrum.z1, spectrum.z2
    if z2 is not None:
        # Scores depend only on the per-label degrees, which every tree of
        # the class shares, so one assignment serves the whole pass.
        scores = score_assignment(greedy_tree, q.value)
        sandwich = _sandwich_holds(seq, scores, (z2 - z1) / 2)
    return VerificationReport(
        seq=seq,
        tree_count=total,
        z1=z1,
        z2=z2,
        greedy_so=greedy_so,
        minimum_attained=abs(greedy_so - z1) <= DEFAULT_VALUE_TOLERANCE,
        sandwich_holds=sandwich,
        q_used=q,
    )


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into parts at most ``max_part``, as
    non-increasing tuples in descending lex order."""
    if total == 0:
        yield ()
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def realizable_sequences(max_n: int) -> Iterator[DegreeSequence]:
    """All non-increasing tree-realizable degree sequences with
    2 <= n <= max_n, ordered by length then descending lexicographically.

    The degrees minus one are a partition of n - 2 padded with zeros, the
    leaves."""
    for n in range(2, max_n + 1):
        for partition in _partitions(n - 2, n - 2):
            inner = tuple(part + 1 for part in partition)
            yield DegreeSequence(inner + (1,) * (n - len(inner)))


def format_report_table(reports: list[VerificationReport]) -> str:
    """Fixed-width text table, one row per verified degree sequence."""

    def fmt(x) -> str:
        if x is None:
            return "-"
        if isinstance(x, bool):
            return "yes" if x else "no"
        return format(x, ".10g")

    headers = [
        "degrees", "n", "trees", "z1", "z2", "greedy_SO",
        "q", "q_rule", "min", "sandwich",
    ]
    rows = []
    for r in reports:
        rows.append([
            r.seq.render(),
            str(r.seq.n),
            str(r.tree_count),
            fmt(r.z1),
            fmt(r.z2),
            fmt(r.greedy_so),
            fmt(r.q_used.value if r.q_used else None),
            r.q_used.branch if r.q_used else "-",
            fmt(r.minimum_attained),
            fmt(r.sandwich_holds),
        ])
    widths = [
        max(len(headers[col]), max((len(row[col]) for row in rows), default=0))
        for col in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
