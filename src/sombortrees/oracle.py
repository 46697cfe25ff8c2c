"""Exhaustive enumeration of the trees with a fixed degree sequence, the
class's value spectrum and the score constant q picked from its gap, and
verification that the greedy tree attains the minimum Sombor index.

Enumeration walks the distinct permutations of the code multiset in which
label u occurs deg(u) - 1 times, decoding each permutation; that visits
every labeled tree of the class exactly once.

The spectrum and the sandwich's certificate do not visit trees one by one.
They sum edge terms, over the degrees and over the scores, exactly on an
``indices._Grid``, so a tree's rounded sums carry the bits of ``sombor``
and ``pseudo_sombor``.

- The spectrum counts the trees of the sequence without its 2s by edge
  profile (the count of each degree pair), from the matrix-tree theorem
  with one variable per distinct degree: one DP over the rows of its k
  distinct degrees, not over labels, with the leaves' row forced per
  spanning tree of K_k. A degree-2 label only subdivides an edge, so each
  profile's exact SO sums, with the 2s laid on its edges as ordered runs,
  and their counts follow in closed form. The profiles depend on that
  reduced sequence alone, so classes that differ only in their 2s share
  one count and each lays its own 2s onto it.
- The sandwich first bounds D = SO - pSO with no pass: every label a < n
  is the leaf end of one edge, so D lies between sums over a of the least
  and greatest D-term of a's edges to the heads. When that range exceeds u
  and stays below half_gap - 2u, with u the ulp of a bound on every SO and
  on half_gap, no float rounding of the test can flip it: a certified True
  is the per-tree verdict. Otherwise the float test runs on every tree of
  the class walk, whose cost is the class size that the cap bounds.

The spectrum spot-checks its values on the class's first tree, decoded
through ``prufer_decode``, and the sandwich on the greedy tree ``verify``
holds; a disagreement raises ``OracleInvariantError``.
"""

import functools
import math
import random
from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import product

from .degseq import DegreeSequence, _Value, require_tree_realizable
from .greedy import build_greedy
from .indices import ScoreAssignment, _Grid, pseudo_sombor, score_assignment, sombor
from .tree_core import LabeledTree, PruferCode, prufer_decode, prufer_edges

DEFAULT_TREE_CAP = 10_000_000
# Two index values closer than this are treated as the same element of the
# value spectrum (gap clustering).
DEFAULT_VALUE_TOLERANCE = 1e-9


class ResourceCapExceededError(RuntimeError):
    """The tree class is too large for exhaustive verification."""


class OracleInvariantError(RuntimeError):
    """The enumeration disagrees with itself: the spectrum counts a number
    of trees other than the formula's, or a fast value differs from the
    slow path on the spectrum's first tree or the sandwich's greedy tree."""


def _split_ways(m: int, k: int) -> int:
    """The (mk)! / (k!)^m ways to give m labels k code entries each: the
    product of C(ik, k) over i = 2..m, taken pairwise so operands grow together."""
    parts = [math.comb(i * k, k) for i in range(2, m + 1)]
    while len(parts) > 2:
        parts = [math.prod(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    return math.prod(parts)


def count_trees(seq: DegreeSequence) -> int:
    """Number of labeled trees realizing the sequence, (n-2)! / prod((d_u - 1)!):
    each run of m labels of degree d > 1 places its m(d-1) code entries, then splits them."""
    require_tree_realizable(seq)
    free = seq.n - 2
    total = 1
    for d, m in Counter(seq.degrees).items():
        k = d - 1
        if k > 0:
            total *= math.comb(free, m * k) * _split_ways(m, k)
            free -= m * k
    return total


def _size_text(total: int) -> str:
    """``total`` in decimal up to 30 digits, else ``at least 10^k`` for its
    k + 1 digits: Python refuses to print an int of more than 4,300 digits."""
    if total < 10**30:
        return str(total)
    k = int(math.log10(total))
    # The float logarithm can be off by one next to a power of ten.
    if 10**k > total:
        k -= 1
    elif 10 ** (k + 1) <= total:
        k += 1
    return f"at least 10^{k}"


def _require_within_cap(seq: DegreeSequence, cap: int) -> int:
    """Class size of the sequence; refuses classes holding more than
    ``cap`` trees."""
    total = count_trees(seq)
    if total > cap:
        raise ResourceCapExceededError(
            f"class of {seq.render()} holds {_size_text(total)} trees, over the cap of {cap}"
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
    items = _code_multiset(seq)
    rng.shuffle(items)
    return _decoded(seq, items)


def _decoded(seq: DegreeSequence, code: list[int]) -> LabeledTree:
    """The class's tree with this code, built the slow way through ``prufer_decode``."""
    if seq.n == 1:
        return LabeledTree(1, [])
    return prufer_decode(PruferCode(seq.n, tuple(code)))


def _edge_heads(seq: DegreeSequence) -> list[int]:
    """The labels the decoder joins each leaf to: the code labels 1..k
    (degree 2 or more) and n."""
    return [*range(1, sum(d > 1 for d in seq.degrees) + 1), seq.n]


def _compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every tuple c of len(bounds) >= 1 ints with 0 <= c[j] <= bounds[j]
    and sum ``total``, with its multinomial total! / prod(c[j]!), as
    (multinomial, c). The recursion is len(bounds) deep."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield 1, (total,)
        return
    room = sum(bounds[1:])
    for c in range(max(0, total - room), min(total, bounds[0]) + 1):
        for ways, rest in _compositions(total - c, bounds[1:]):
            yield math.comb(total, c) * ways, (c, *rest)


@functools.cache
def _reduced_profiles(reduced: tuple[int, ...]) -> tuple:
    """The half of ``sombor_value_counts`` that depends on D' alone, the
    degrees without the 2s (n' >= 2): ``(grid, h22, pairs, counts)``.

    ``grid`` is the ``_Grid`` over D''s distinct degrees and 2, ``h22`` the
    term h(2,2) on it, and ``pairs`` the (plain, split) terms of each
    unordered degree pair without a 2, in the order of their digits: the
    pair's edge term, and that edge's terms once subdivided. ``counts``
    maps each edge profile, the number of edges of each pair as one int in
    radix n', to its number of trees of D'.

    The counts come from the matrix-tree theorem by type. Let D' have k
    distinct degrees d_i, n_i labels each, and N_i = n_i(d_i - 1). Weight
    each edge uv by a_{t(u)t(v)} x_u x_v, with one variable per label and
    one per unordered degree pair, let X_i sum the x_v of type i and
    S_i = sum_j a_ij X_j. The trees of K_n' sum to prod_v x_v *
    prod_i S_i^(n_i - 1) * sum_t prod_{ij in t} a_ij prod_i X_i^(deg_t(i) - 1)
    over the spanning trees t of K_k, so the trees of D' with profile e
    number prod_i N_i! / ((d_i - 1)!)^n_i times the coefficient of
    prod_i X_i^N_i prod a^e in the last two factors. S_i^(n_i - 1) expands
    into rows c_i of multinomials with row sum n_i - 1, and the X_j powers
    fix the column sums at N_j + 1 - deg_t(j). One DP over rows 1..k-1 keeps
    the state (columns left, profile), column j starting at N_j. Row k, the
    leaves' as the degrees do not increase, is then forced to
    left_j + 1 - deg_t(j) per degree vector of the trees t that
    ``prufer_edges`` decodes, when no entry is negative (its sum is then
    n_k - 1 by the degree sums), with its multinomial as weight. The leaves'
    column starts at N_k = 0 and stays there, so only the trees t with
    deg_t(k) = 1 can pass: those whose Prufer codes run over kinds 1..k-1,
    (k-1)^(k-2) of the k^(k-2). Then e_ij = c_ij + c_ji, plus one if ij is
    in t, for i < j, and e_ii = c_ii. D' = 1,1 (k = 1) is one edge.

    The result is cached for the life of the process, keyed by D''s degree
    tuple, so classes that differ only in their 2s share one count and a
    repeated D' builds nothing. Its ``pairs`` and ``counts`` are shared
    between calls and must not be changed. A long-lived process keeps every
    count until ``_reduced_profiles.cache_clear()``."""
    radix = len(reduced)
    # Degrees in the labels' order, so each term is hypot(larger, smaller)
    # as on the class's own grid, whose smallest weight is also 1.
    weights = sorted({*reduced, 2}, reverse=True)
    grid = _Grid(weights)
    h = grid.term
    two = weights.index(2) + 1
    place = {}  # (kind, kind) -> place value of its pair's digit
    pairs = []
    for b in range(1, len(weights) + 1):
        for a in range(1, b + 1):
            if two not in (a, b):
                place[a, b] = place[b, a] = radix ** len(pairs)
                pairs.append((h(a, b), h(a, two) + h(two, b) - h(two, two)))
    runs = Counter(reduced)
    kinds = [weights.index(d) + 1 for d in runs]
    k = len(kinds)
    if k == 1:
        return grid, h(two, two), pairs, {place[kinds[0], kinds[0]]: 1}
    spread = math.prod(_split_ways(m, d - 1) for d, m in runs.items() if d > 1)
    # Per degree: its row sum, and the place of its pair with each degree.
    rows = [(m - 1, [place[kind, j] for j in kinds]) for kind, m in zip(kinds, runs.values())]
    shifts: dict = {}  # degree vector of t -> the profile of each t's own edges
    for code in product(range(1, k), repeat=k - 2):
        degrees = tuple(code.count(i) + 1 for i in range(1, k + 1))
        edges = prufer_edges(code, degrees)
        own = sum(place[kinds[i - 1], kinds[j - 1]] for i, j in edges)
        shifts.setdefault(degrees, []).append(own)
    states = {(tuple(m * (d - 1) for d, m in runs.items()), 0): spread}
    for total, row_places in rows[:-1]:
        grown: dict = {}
        for (left, profile), trees in states.items():
            for ways, row in _compositions(total, left):
                key = (
                    tuple(b - c for b, c in zip(left, row)),
                    profile + sum(c * p for c, p in zip(row, row_places)),
                )
                grown[key] = grown.get(key, 0) + trees * ways
        states = grown
    total, row_places = rows[-1]
    counts: dict = {}
    for (left, profile), trees in states.items():
        for degrees, starts in shifts.items():
            row = [b + 1 - t for b, t in zip(left, degrees)]
            if min(row) >= 0:
                ways = trees * (math.factorial(total) // math.prod(map(math.factorial, row)))
                forced = profile + sum(c * p for c, p in zip(row, row_places))
                for start in starts:
                    counts[forced + start] = counts.get(forced + start, 0) + ways
    return grid, h(two, two), pairs, counts


def sombor_value_counts(seq: DegreeSequence) -> Counter:
    """Exact index value -> number of labeled trees attaining it.

    A label of degree 2 only subdivides an edge. Let D' be the sequence
    without its m 2s, with n' >= 2 labels. Every tree of the class is a
    tree of D' whose k edges in a set S carry the m labels as non-empty
    ordered runs, m! * C(m - 1, k - 1) ways (only k = 0 when m = 0), and
    its SO is m * h(2,2) + sum over edges {a, b} not in S of h(a,b) + sum
    over S of h(a,2) + h(2,b) - h(2,2), with h the edge term over degrees.

    ``_reduced_profiles`` maps each edge profile of D', the number of
    edges of each unordered degree pair as one int in radix n', to its
    number of trees of D', by the matrix-tree theorem over D''s distinct
    degrees. Each profile P then expands over the profiles Q <= P of the
    edges in S, prod C(P_t, Q_t) ways each, folded one pair at a time by
    (k, exact SO sum). The terms lie on ``_reduced_profiles``' ``_Grid``,
    whose ``value`` gives each exact sum the bits of ``sombor``. The
    cost follows D''s distinct degrees and the profiles, not the class
    size: ``2^m,1,1`` holds m! trees in one value and D' = 1,1 is one
    edge. As a spot check, the class's first tree, decoded through
    ``prufer_decode``, must have a value among the keys.
    """
    require_tree_realizable(seq)
    values: Counter = Counter()
    if seq.n == 1:
        values[0.0] = 1
    else:
        m = seq.degrees.count(2)
        reduced = tuple(d for d in seq.degrees if d != 2)
        grid, h22, pairs, counts = _reduced_profiles(reduced)
        radix = len(reduced)
        laid = [int(m == 0)] + [math.comb(m - 1, k - 1) for k in range(1, min(m, radix - 1) + 1)]
        exact: dict = {}  # exact SO sum less m * h(2,2) -> trees / m!
        for profile, trees in counts.items():
            sums = {(0, 0): trees}  # (edges in S, exact sum) -> trees so far
            for plain, split in pairs:
                if not profile:
                    break
                profile, p = divmod(profile, radix)
                if not p:
                    continue
                choose = [math.comb(p, q) for q in range(min(p, m) + 1)]
                grown: dict = {}
                for (k, so), ways in sums.items():
                    for q in range(min(p, m - k) + 1):
                        key = (k + q, so + (p - q) * plain + q * split)
                        grown[key] = grown.get(key, 0) + ways * choose[q]
                sums = grown
            for (k, so), ways in sums.items():
                if laid[k]:
                    exact[so] = exact.get(so, 0) + ways * laid[k]
        base = m * h22
        layings = math.factorial(m)
        for so, trees in exact.items():
            values[grid.value(so + base)] += trees * layings
    if sombor(_decoded(seq, _code_multiset(seq))) not in values:
        raise OracleInvariantError(
            f"spectrum of {seq.render()} disagrees with prufer_decode on its first tree"
        )
    return values


def _sandwich_holds(
    seq: DegreeSequence, tree: LabeledTree, scores: ScoreAssignment, half_gap: float
) -> bool:
    """Whether every tree of the class (n >= 2) has SO - half_gap < pSO < SO,
    in the floats ``sombor`` and ``pseudo_sombor`` give it.

    Edge terms over the degrees and over the scores lie on two ``_Grid``s
    that share one scale. First the certificate, read off those terms with
    no decoder pass. ``prufer_edges``' decoder makes every label a < n the
    leaf end of exactly one edge, which joins a to a head e != a, so every
    tree's exact D = SO - pSO is one D-term per label, and D lies between
    the sums over a of the least and the greatest D-term of {a, e} over the
    heads e != a. Let u be the ulp of a bound on every tree's SO and on
    ``half_gap``. Every value the float test rounds (SO, pSO,
    SO - half_gap) lies within that bound, so each rounding moves it by at
    most u/2. Then fl(SO) - fl(pSO) >= D - u, and fl(fl(SO) - half_gap) <=
    SO - half_gap + u < pSO - u/2 <= fl(pSO) once D < half_gap - 3u/2. So
    when the least sum exceeds u and the greatest is below half_gap - 2u,
    compared exactly, every tree passes the float test and True is the
    per-tree verdict.

    Otherwise (a non-finite ``half_gap``, a failing class, or a bound
    within that margin of an edge) the float test runs on every tree of
    ``_class_walk``, which is the per-tree verdict by definition. It takes
    constant memory and one step per tree, so its cost is the class size.

    ``tree`` is a tree of the class, such as the greedy tree ``verify``
    passes. A head ends each of its edges, since only at n = 2 are two
    leaves adjacent, and there the edge ends at n. Its rounded grid sums
    must equal its ``sombor`` and ``pseudo_sombor``, and its D lie within
    the certificate's range, which bounds every tree of the class; else
    ``OracleInvariantError``."""
    heads = _edge_heads(seq)
    # One least weight, so both grids share their scale.
    least = min(*seq.degrees, *scores.values)
    so_grid, pso_grid = _Grid(seq.degrees, least), _Grid(scores.values, least)
    so_terms = {e: [0, *(so_grid.term(a, e) for a in range(1, seq.n + 1))] for e in heads}
    pso_terms = {e: [0, *(pso_grid.term(a, e) for a in range(1, seq.n + 1))] for e in heads}

    # A tree's exact SO and pSO sums on the grid; one end of every edge is a head.
    def sums(edges):
        return [
            sum(terms[b][a] if b in terms else terms[a][b] for a, b in edges)
            for terms in (so_terms, pso_terms)
        ]

    tree_so, tree_pso = sums(tree.edges)
    spans = [[so_terms[e][a] - pso_terms[e][a] for e in heads if e != a] for a in range(1, seq.n)]
    low, high = sum(map(min, spans)), sum(map(max, spans))
    if not (
        so_grid.value(tree_so) == sombor(tree)
        and pso_grid.value(tree_pso) == pseudo_sombor(tree, scores)
        and low <= tree_so - tree_pso <= high
    ):
        raise OracleInvariantError(
            f"sandwich pass of {seq.render()} disagrees with the greedy tree's indices"
        )
    # Each tree's n - 1 terms are at most the largest term. float() keeps
    # the bound within its binade or rounds it up to the next power of two,
    # so every value up to the exact bound still rounds by at most u/2.
    so_bound = so_grid.value((seq.n - 1) * max(map(max, so_terms.values())))
    # In grid steps u is a power of two of at least 2, or inf past the float
    # range or for an infinite half_gap, which fails low > u before int(u)
    # runs (a NaN fails the < test). Python compares an int with a float
    # exactly, and int(u) keeps high + 2u exact.
    u = math.ulp(max(so_bound, half_gap)) / so_grid.scale
    if low > u and high + 2 * int(u) < half_gap / so_grid.scale:
        return True
    for so, pso in map(sums, _class_walk(seq)):
        so, pso = so_grid.value(so), pso_grid.value(pso)
        if not so - half_gap < pso < so:
            return False
    return True


class SpectrumSummary(_Value):
    """Distinct index values over one tree class, with multiplicities.

    Values are finite and strictly increasing; multiplicities count the
    labeled trees attaining each.
    """

    __slots__ = __match_args__ = ("values", "multiplicities")

    def __init__(self, values: tuple[float, ...], multiplicities: tuple[int, ...]):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "multiplicities", tuple(multiplicities))
        if not self.values:
            raise ValueError("spectrum must contain at least one value")
        if len(self.values) != len(self.multiplicities):
            raise ValueError("values and multiplicities differ in length")
        if not all(map(math.isfinite, self.values)):
            raise ValueError("spectrum values must be finite")
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


class QConstant(_Value):
    """A tie-breaking constant together with the rule that produced it.

    ``branch`` is one of:
      * ``"spectrum-gap"``: min(1/(2n), (z2 - z1) / (4 n^3 sqrt(2))), from a
        spectrum with at least two distinct values;
      * ``"single-value"``: 1/(2n), from a one-value spectrum.
    """

    __slots__ = __match_args__ = ("value", "branch")

    def __init__(self, value: float, branch: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "branch", branch)


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


class VerificationReport(_Value):
    """Outcome of the exhaustive minimality check for one degree sequence.

    ``minimum_attained`` is |SO(greedy) - z1| <= DEFAULT_VALUE_TOLERANCE.
    ``sandwich_holds`` reports whether every tree's pseudo index lies
    strictly between SO - (z2 - z1)/2 and SO; it is None when the class has
    a single value (no gap to measure) or n = 1.
    """

    __slots__ = __match_args__ = ("seq", "tree_count", "z1", "z2", "greedy_so",
                                  "minimum_attained", "sandwich_holds", "q_used")

    def __init__(self, seq: DegreeSequence, tree_count: int, z1: float,
                 z2: float | None, greedy_so: float, minimum_attained: bool,
                 sandwich_holds: bool | None, q_used: QConstant | None):
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "tree_count", tree_count)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        object.__setattr__(self, "greedy_so", greedy_so)
        object.__setattr__(self, "minimum_attained", minimum_attained)
        object.__setattr__(self, "sandwich_holds", sandwich_holds)
        object.__setattr__(self, "q_used", q_used)


def verify_greedy_minimum(seq: DegreeSequence, cap: int = DEFAULT_TREE_CAP) -> VerificationReport:
    """Exhaustively check that the greedy tree attains the smallest Sombor
    value of its class, and that every pseudo index respects the half-gap
    sandwich when at least two distinct values exist.

    Sizes the class and refuses it when it holds more than ``cap`` trees,
    before any enumeration: verification is all-or-nothing, never truncated.
    """
    total = _require_within_cap(seq, cap)
    greedy_tree = build_greedy(seq)
    greedy_so = sombor(greedy_tree)
    spectrum = sombor_spectrum(seq)
    if spectrum.tree_count != total:
        raise OracleInvariantError(
            f"enumeration yielded {spectrum.tree_count} trees, expected {total}"
        )
    z1, z2, sandwich = spectrum.z1, spectrum.z2, None
    # The one-vertex class has no score constant.
    q = compute_q(seq, spectrum) if seq.n > 1 else None
    if z2 is not None:
        # Scores depend only on the per-label degrees, which every tree of
        # the class shares, so one assignment serves the whole pass.
        scores = score_assignment(greedy_tree, q.value)
        sandwich = _sandwich_holds(seq, greedy_tree, scores, (z2 - z1) / 2)
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
