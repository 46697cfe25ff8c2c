"""Exhaustive enumeration of the trees with a fixed degree sequence, the
class's value spectrum and the score constant q picked from its gap, and
verification that the greedy tree attains the minimum Sombor index.

Enumeration walks the distinct permutations of the code multiset in which
label u occurs deg(u) - 1 times, decoding each permutation; that visits
every labeled tree of the class exactly once.

The spectrum and the sandwich's certificate do not visit trees one by one.
Edge terms, over the degrees and over the scores, are exact integers on one
power-of-two grid, and one correct rounding of an exact sum is what
``math.fsum`` returns, so a tree's rounded sums carry the bits of
``sombor`` and ``pseudo_sombor``.

- The spectrum runs one forward pass over the Prufer decoder's states
  (remaining count of each code label, leaf, pointer) of the sequence
  without its 2s, keeping per state and per edge profile (the count of
  each degree pair joined so far) the number of code prefixes. A degree-2
  label only subdivides an edge, so each profile's exact SO sums, with the
  2s laid on its edges as ordered runs, and their counts follow in closed
  form. The profiles depend on that reduced sequence alone, so a caller
  that verifies many classes keeps them in a memo it owns: ``verify`` runs
  one pass per distinct reduced sequence and lays each class's 2s onto
  its profiles.
- The sandwich first bounds D = SO - pSO with no pass: every label a < n
  is the leaf end of one edge, so D lies between sums over a of the least
  and greatest D-term of a's edges to the heads. When that range exceeds u
  and stays below half_gap - 2u, with u the ulp of a bound on every SO and
  on half_gap, no float rounding of the test can flip it: a certified True
  is the per-tree verdict. Otherwise the float test runs on every tree of
  the class walk, whose cost is the class size that the cap bounds.

The spectrum and the sandwich each rebuild the class's first tree once
through ``prufer_decode`` as a spot check, and raise
``OracleInvariantError`` when their fast values disagree with it.
"""

import math
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from .degseq import DegreeSequence, _Value, require_tree_realizable
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
    """The enumeration disagrees with itself: the spectrum counts a number
    of trees other than the formula's, or a fast value differs from the
    slow path on the class's first tree."""


def count_trees(seq: DegreeSequence) -> int:
    """Number of labeled trees realizing the sequence, (n-2)! / prod((d_u - 1)!):
    each run of m labels of degree d > 1 places its m(d-1) code entries, then splits them."""
    require_tree_realizable(seq)
    free = seq.n - 2
    total = 1
    for d, m in Counter(seq.degrees).items():
        k = d - 1
        if k > 0:
            total *= math.comb(free, m * k)
            free -= m * k
            if m > 1:
                total *= math.factorial(m * k) // math.factorial(k) ** m
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


def _grid_terms(rows: Sequence[Sequence[float]], heads: Iterable[int]) -> tuple[float, list]:
    """Edge terms hypot(w_a, w_b), a < b, over each row of positive label
    weights w, as exact integers on one grid shared by all rows:
    ``(scale, columns)`` such that ``columns[r][e][a] * scale`` is the term
    of the edge {a, e} over row r for each label e in ``heads`` and every
    label a (entry 0 is unused).

    ``scale`` is 2**-k for a k that makes every term an integer: a term is
    at least the smallest weight of all rows w_min = f * 2**E, 1/2 <= f < 1,
    up to its rounding, so its exponent is at least E - 1 and its last bit
    no finer than 2**(E - 54). Integer sums on the grid are exact, and
    ``float(sum) * scale`` rounds once, half to even, then scales by a power
    of two, so it carries the bits ``math.fsum`` gives for the terms.

    Each term goes onto the grid through ``math.ldexp``, exact while the
    scaled term stays finite: a term is below 2 * w_max and 2**-E < 1 / w_min,
    so on the grid it is below 2**55 * w_max / w_min, finite for positive
    finite weights with w_max / w_min < 2**969. Degrees, and scores between
    1/2 and n, always are; past that range ``ldexp`` raises
    ``OverflowError``."""
    shift = 54 - math.frexp(min(map(min, rows)))[1]
    columns = []
    for weights in rows:
        row = {}
        for e in heads:
            w = weights[e - 1]
            # The smaller label's weight first: labels below e, then e and above.
            below = [int(math.ldexp(math.hypot(v, w), shift)) for v in weights[: e - 1]]
            above = [int(math.ldexp(math.hypot(w, v), shift)) for v in weights[e - 1 :]]
            row[e] = [0, *below, *above]
        columns.append(row)
    return math.ldexp(1.0, -shift), columns


def _edge_heads(seq: DegreeSequence) -> list[int]:
    """The labels the decoder joins each leaf to: the code labels 1..k
    (degree 2 or more) and n."""
    return [*range(1, sum(d > 1 for d in seq.degrees) + 1), seq.n]


def _decoder_pass(seq: DegreeSequence, start: dict, join: Callable) -> dict:
    """Fold every tree of the class (n >= 2) through the states of
    ``prufer_edges``' decoder, one layer per code position.

    The code labels 1..k (degree 2 or more) lie below the pointer, which
    starts at the first leaf k + 1, so after a prefix of the code the state
    is (remaining count of each code label, leaf, pointer). A step takes
    each label e with a positive count and joins {e, leaf}; the last layer
    joins {leaf, n}. Every tree is one path through the layers.

    A layer maps the remaining counts, one int in mixed radix (label e's
    digit runs over 0..d_e - 1), to the leaves of its states. The pointer is
    not stored: after s steps it is s + 1 plus the number of labels still in
    the code. The next leaf depends on the counts and the label taken only,
    so the counts are decoded once for all their leaves.

    The first state carries ``start``. ``join(payload, e, leaf, into)``
    returns ``payload`` grown by the edge {e, leaf} and merged into
    ``into``, the payload the next state has gathered so far, or None. The
    result merges every last state's payload, grown by its last edge."""
    n = seq.n
    labels = []  # (label e, its radix d_e, what one use of e takes off the counts)
    code = 0
    place = 1
    for e, d in enumerate(seq.degrees, start=1):
        if d > 1:
            labels.append((e, d, place))
            code += (d - 1) * place
            place *= d
    layer = {code: {len(labels) + 1: start}}
    for step in range(n - 2):
        grown: dict = {}
        for code, leaves in layer.items():
            rest = code
            live = []
            for e, d, place in labels:
                rest, c = divmod(rest, d)
                if c:
                    live.append((e, c, place))
            pointer = step + 1 + len(live)
            for e, c, place in live:
                # A label whose count runs out is the next leaf, else the next untouched one.
                following = e if c == 1 else pointer + 1
                target = grown.setdefault(code - place, {})
                for leaf, payload in leaves.items():
                    target[following] = join(payload, e, leaf, target.get(following))
        layer = grown
    folded = None
    for leaves in layer.values():
        for leaf, payload in leaves.items():
            folded = join(payload, n, leaf, folded)
    return folded


def _reduced_profiles(reduced: DegreeSequence) -> tuple:
    """The half of ``sombor_value_counts`` that depends on D' alone, the
    sequence without its 2s (n' >= 2): ``(scale, h22, pairs, counts)``.

    ``scale`` is the step of the ``_grid_terms`` grid over D''s distinct
    degrees and 2, ``h22`` the term h(2,2) on it, and ``pairs`` the (plain,
    split) terms of each unordered degree pair without a 2, in the order of
    their digits: the pair's edge term, and that edge's terms once
    subdivided. ``counts`` maps each edge profile, the number of edges of
    each pair as one int in radix n', to its number of trees of D', from
    one ``_decoder_pass``."""
    radix = reduced.n
    # Degrees in the labels' order, so each term is hypot(larger, smaller)
    # as on the class's own grid, whose smallest weight is also 1.
    weights = sorted({*reduced.degrees, 2}, reverse=True)
    scale, (terms,) = _grid_terms((weights,), range(1, len(weights) + 1))
    two = weights.index(2) + 1
    kinds = [weights.index(d) + 1 for d in reduced.degrees]
    place = {}  # (kind, kind) -> place value of its pair's digit
    pairs = []
    for b in range(1, len(weights) + 1):
        for a in range(1, b + 1):
            if two not in (a, b):
                place[a, b] = place[b, a] = radix ** len(pairs)
                pairs.append((terms[b][a], terms[two][a] + terms[two][b] - terms[two][two]))
    places = {
        e: [0] + [place[kinds[e - 1], kind] for kind in kinds] for e in _edge_heads(reduced)
    }

    def join(profiles, e, leaf, into):
        add = places[e][leaf]
        if into is None:
            return {profile + add: trees for profile, trees in profiles.items()}
        for profile, trees in profiles.items():
            profile += add
            into[profile] = into.get(profile, 0) + trees
        return into

    return scale, terms[two][two], pairs, _decoder_pass(reduced, {0: 1}, join)


def sombor_value_counts(seq: DegreeSequence, profiles: dict | None = None) -> Counter:
    """Exact index value -> number of labeled trees attaining it.

    A label of degree 2 only subdivides an edge. Let D' be the sequence
    without its m 2s, with n' >= 2 labels. Every tree of the class is a
    tree of D' whose k edges in a set S carry the m labels as non-empty
    ordered runs, m! * C(m - 1, k - 1) ways (only k = 0 when m = 0), and
    its SO is m * h(2,2) + sum over edges {a, b} not in S of h(a,b) + sum
    over S of h(a,2) + h(2,b) - h(2,2), with h the edge term over degrees.

    ``_reduced_profiles`` runs one ``_decoder_pass`` over D' that maps each
    edge profile, the number of edges of each unordered degree pair as one
    int in radix n', to its number of trees of D'. Each profile P then
    expands over the profiles Q <= P of the edges in S, prod C(P_t, Q_t)
    ways each, folded one pair at a time by (k, exact SO sum). The terms
    are integers on the grid of ``_grid_terms``, so each exact sum rounds
    once to the float ``math.fsum`` gives for its tree's terms: the bits of
    ``sombor``. The cost follows the decoder states of D', not the class
    size: ``2^m,1,1`` holds m! trees in one value and takes one state. The
    class's first tree, decoded through ``prufer_decode``, must have a value
    among the keys.

    ``profiles`` is a memo the caller owns, keyed by D''s degree tuple: it
    holds ``_reduced_profiles`` of every D' seen until the caller drops it,
    so classes that differ only in their 2s share one pass, and each class
    still expands its own 2s. None gives a fresh memo, one pass per call.
    ``verify`` keeps one for its whole run at negligible memory: its run
    over every class with n <= 16 peaks at 17.7 MB, as one without the
    memo does.

    Counter addition merges partial counts from any partition of the class,
    in any order, without changing the final spectrum.
    """
    require_tree_realizable(seq)
    values: Counter = Counter()
    if seq.n == 1:
        values[0.0] = 1
    else:
        m = seq.degrees.count(2)
        reduced = tuple(d for d in seq.degrees if d != 2)
        if profiles is None:
            profiles = {}
        if reduced not in profiles:
            profiles[reduced] = _reduced_profiles(DegreeSequence(reduced))
        scale, h22, pairs, counts = profiles[reduced]
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
            values[float(so + base) * scale] += trees * layings
    if sombor(_decoded(seq, _code_multiset(seq))) not in values:
        raise OracleInvariantError(
            f"spectrum of {seq.render()} disagrees with prufer_decode on its first tree"
        )
    return values


def _sandwich_holds(seq: DegreeSequence, scores: ScoreAssignment, half_gap: float) -> bool:
    """Whether every tree of the class (n >= 2) has SO - half_gap < pSO < SO,
    in the floats ``sombor`` and ``pseudo_sombor`` give it.

    Edge terms over the degrees and over the scores share one
    ``_grid_terms`` grid. First the certificate, read off those terms with
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

    The class's first tree, rebuilt once through ``prufer_decode``, must
    have ``sombor`` and ``pseudo_sombor`` equal to its grid sums, rounded,
    and its D within the certificate's range; else
    ``OracleInvariantError``."""
    heads = _edge_heads(seq)
    scale, (so_terms, pso_terms) = _grid_terms((seq.degrees, scores.values), heads)

    # A tree's exact SO and pSO sums on the grid; one end of every edge is a head.
    def sums(edges):
        return [
            sum(terms[b][a] if b in terms else terms[a][b] for a, b in edges)
            for terms in (so_terms, pso_terms)
        ]

    tree = _decoded(seq, _code_multiset(seq))
    first_so, first_pso = sums(tree.edges)
    spans = [[so_terms[e][a] - pso_terms[e][a] for e in heads if e != a] for a in range(1, seq.n)]
    low, high = sum(map(min, spans)), sum(map(max, spans))
    if not (
        float(first_so) * scale == sombor(tree)
        and float(first_pso) * scale == pseudo_sombor(tree, scores)
        and low <= first_so - first_pso <= high
    ):
        raise OracleInvariantError(
            f"sandwich pass of {seq.render()} disagrees with prufer_decode on its first tree"
        )
    # Each tree's n - 1 terms are at most the largest term. float() keeps
    # the bound within its binade or rounds it up to the next power of two,
    # so every value up to the exact bound still rounds by at most u/2.
    so_bound = float((seq.n - 1) * max(map(max, so_terms.values()))) * scale
    # In grid steps u is a power of two of at least 2, or inf past the float
    # range or for an infinite half_gap, which fails low > u before int(u)
    # runs (a NaN fails the < test). Python compares an int with a float
    # exactly, and int(u) keeps high + 2u exact.
    u = math.ulp(max(so_bound, half_gap)) / scale
    if low > u and high + 2 * int(u) < half_gap / scale:
        return True
    for so, pso in map(sums, _class_walk(seq)):
        so, pso = float(so) * scale, float(pso) * scale
        if not so - half_gap < pso < so:
            return False
    return True


class SpectrumSummary(_Value):
    """Distinct index values over one tree class, with multiplicities.

    Values are strictly increasing; multiplicities count the labeled trees
    attaining each.
    """

    __slots__ = __match_args__ = ("values", "multiplicities")

    def __init__(self, values: tuple[float, ...], multiplicities: tuple[int, ...]):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "multiplicities", tuple(multiplicities))
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


def sombor_spectrum(seq: DegreeSequence, profiles: dict | None = None) -> SpectrumSummary:
    """Distinct Sombor values over the whole tree class, with multiplicities;
    ``profiles`` is ``sombor_value_counts``' memo."""
    return spectrum_from_counts(sombor_value_counts(seq, profiles))


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


def verify_greedy_minimum(
    seq: DegreeSequence, cap: int = DEFAULT_TREE_CAP, profiles: dict | None = None
) -> VerificationReport:
    """Exhaustively check that the greedy tree attains the smallest Sombor
    value of its class, and that every pseudo index respects the half-gap
    sandwich when at least two distinct values exist.

    Sizes the class and refuses it when it holds more than ``cap`` trees,
    before any enumeration: verification is all-or-nothing, never truncated.

    ``profiles`` is the memo of ``sombor_value_counts``, owned by the
    caller and keyed by the sequence without its 2s. A caller that verifies
    many classes passes one memo to every call, so each distinct sequence
    without its 2s takes one decoder pass; None gives each call its own. A
    refused class leaves it unchanged.
    """
    total = _require_within_cap(seq, cap)
    greedy_tree = build_greedy(seq)
    greedy_so = sombor(greedy_tree)
    spectrum = sombor_spectrum(seq, profiles)
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
