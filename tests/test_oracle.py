import math
import random
import time
from collections import Counter
from collections.abc import Callable
from itertools import permutations

import pytest

from sombortrees import oracle
from sombortrees.degseq import DegreeSequence, NotTreeRealizableError, parse_degree_sequence
from sombortrees.greedy import build_greedy
from sombortrees.indices import ScoreAssignment, _Grid, pseudo_sombor, score_assignment, sombor
from sombortrees.oracle import (
    compute_q,
    QConstant,
    ResourceCapExceededError,
    count_trees,
    enumerate_trees,
    format_report_table,
    realizable_sequences,
    sample_tree,
    sombor_spectrum,
    sombor_value_counts,
    spectrum_from_counts,
    verify_greedy_minimum,
)
from sombortrees.tree_core import LabeledTree, PruferCode, degree_sequence_of, prufer_decode

from brute import pseudo_sombor_value, sombor_value, tree_degree_sequences, trees_with_degrees


def test_count_examples():
    assert count_trees(DegreeSequence((2, 2, 1, 1))) == 2
    assert count_trees(DegreeSequence((4, 3, 3, 2, 1, 1, 1, 1, 1, 1))) == 1680
    assert count_trees(DegreeSequence((1, 1))) == 1
    assert count_trees(DegreeSequence((0,))) == 1


def factorial_count(seq):
    """The class size straight from the formula (n-2)! / prod((d_u - 1)!)."""
    if seq.n == 1:
        return 1
    return math.factorial(seq.n - 2) // math.prod(math.factorial(d - 1) for d in seq.degrees)


@pytest.mark.parametrize(
    "seq", [DegreeSequence((0,))] + list(realizable_sequences(16)), ids=lambda s: s.render()
)
def test_count_matches_factorial_formula(seq):
    assert count_trees(seq) == factorial_count(seq)


@pytest.mark.parametrize(
    "degrees, expected",
    [
        ((1200, 2, 2) + (1,) * 1200, 1_441_200),
        ((2,) * 20000 + (1, 1), math.factorial(20000)),
        ((50000, 50000) + (1,) * 99998, math.comb(99998, 49999)),
    ],
    ids=["broom-2403", "path-20002", "two-hubs-100000"],
)
def test_count_large_classes(degrees, expected):
    assert count_trees(DegreeSequence(degrees)) == expected


def test_count_star_without_the_factorials():
    # (n-2)! of this star has 1.5 million bits; the class holds one tree.
    start = time.perf_counter()
    assert count_trees(DegreeSequence((100000,) + (1,) * 100000)) == 1
    assert time.perf_counter() - start < 0.5


def test_size_text_bounds_long_sizes():
    assert oracle._size_text(10**30 - 1) == "9" * 30
    assert oracle._size_text(10**30) == "at least 10^30"
    # log10 of 10^512 rounds to just below 512, so the count is corrected up.
    assert oracle._size_text(10**512) == "at least 10^512"
    assert oracle._size_text(10**5000 - 1) == "at least 10^4999"
    assert oracle._size_text(math.factorial(2000)) == "at least 10^5735"


def test_count_rejects_non_realizable():
    with pytest.raises(NotTreeRealizableError):
        count_trees(DegreeSequence((2, 2, 2)))


def test_enumerate_two_paths():
    trees = list(enumerate_trees(DegreeSequence((2, 2, 1, 1))))
    assert len(trees) == 2
    assert {frozenset(t.edges) for t in trees} == {
        frozenset({(1, 3), (1, 2), (2, 4)}),
        frozenset({(2, 3), (1, 2), (1, 4)}),
    }


def test_enumerate_single_edge_and_single_vertex():
    (only,) = enumerate_trees(DegreeSequence((1, 1)))
    assert only.edges == ((1, 2),)
    (k1,) = enumerate_trees(DegreeSequence((0,)))
    assert k1.n == 1


def test_enumerate_count_matches_formula():
    seq = DegreeSequence((3, 2, 2, 1, 1, 1))
    trees = list(enumerate_trees(seq))
    assert len(trees) == count_trees(seq) == 12


@pytest.mark.parametrize("seq", list(realizable_sequences(6)), ids=lambda s: s.render())
def test_enumeration_complete_and_duplicate_free(seq):
    # compare against raw edge-subset enumeration
    trees = list(enumerate_trees(seq))
    edge_sets = {t.edges for t in trees}
    assert len(edge_sets) == len(trees)
    assert edge_sets == set(trees_with_degrees(seq.degrees))
    for tree in trees:
        degrees, ordered = degree_sequence_of(tree)
        assert degrees == seq.degrees
        assert ordered


def test_spectrum_two_paths_single_value():
    spectrum = sombor_spectrum(DegreeSequence((2, 2, 1, 1)))
    assert spectrum.distinct_count == 1
    assert spectrum.multiplicities == (2,)
    assert spectrum.z1 == pytest.approx(2 * math.sqrt(2) + 2 * math.sqrt(5), abs=1e-12)
    assert spectrum.z2 is None


def test_spectrum_six_vertices_two_values():
    spectrum = sombor_spectrum(DegreeSequence((3, 2, 2, 1, 1, 1)))
    assert spectrum.distinct_count == 2
    assert spectrum.multiplicities == (6, 6)
    z1 = 2 * math.sqrt(13) + math.sqrt(10) + 2 * math.sqrt(5)
    z2 = math.sqrt(13) + 2 * math.sqrt(2) + math.sqrt(5) + 2 * math.sqrt(10)
    assert spectrum.z1 == pytest.approx(z1, abs=1e-9)
    assert spectrum.z2 == pytest.approx(z2, abs=1e-9)


def test_spectrum_single_edge():
    spectrum = sombor_spectrum(DegreeSequence((1, 1)))
    assert spectrum.values == (pytest.approx(math.sqrt(2)),)


def test_spectrum_matches_brute_force():
    for degrees in [(2, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1, 1), (3, 2, 2, 1, 1, 1)]:
        seq = DegreeSequence(degrees)
        spectrum = sombor_spectrum(seq)
        n = len(degrees)
        brute_values = sorted(sombor_value(n, t) for t in trees_with_degrees(degrees))
        assert spectrum.tree_count == len(brute_values)
        assert spectrum.z1 == pytest.approx(brute_values[0], abs=1e-9)


def test_spectrum_merge_is_order_independent():
    seq = DegreeSequence((3, 2, 2, 1, 1, 1))
    values = [sombor(t) for t in enumerate_trees(seq)]
    whole = spectrum_from_counts(Counter(values))
    rng = random.Random(5)
    for _ in range(5):
        rng.shuffle(values)
        cut_a, cut_b = sorted(rng.sample(range(len(values) + 1), 2))
        parts = [values[:cut_a], values[cut_a:cut_b], values[cut_b:]]
        merged: Counter = Counter()
        for part in parts:
            merged = merged + Counter(part)
        assert spectrum_from_counts(merged) == whole


def test_spectrum_clustering_tolerance():
    counts = Counter({1.0: 2, 1.0 + 5e-10: 1, 2.0: 3})
    summary = spectrum_from_counts(counts)
    assert summary.values == (1.0, 2.0)
    assert summary.multiplicities == (3, 3)
    split = spectrum_from_counts(Counter({1.0: 2, 1.0 + 2e-9: 1}))
    assert split.values == (1.0, 1.0 + 2e-9)
    assert split.multiplicities == (2, 1)


def test_spectrum_from_counts_refuses_empty_counts():
    with pytest.raises(ValueError, match="no values"):
        spectrum_from_counts(Counter())


def test_verify_six_vertices():
    report = verify_greedy_minimum(DegreeSequence((3, 2, 2, 1, 1, 1)))
    assert report.minimum_attained
    assert report.sandwich_holds
    assert report.tree_count == 12
    assert report.greedy_so == pytest.approx(report.z1, abs=1e-12)
    assert report.q_used.branch == "spectrum-gap"


def test_verify_single_vertex():
    report = verify_greedy_minimum(DegreeSequence((0,)))
    assert report.tree_count == 1
    assert report.minimum_attained
    assert report.z1 == 0.0
    assert report.z2 is None
    assert report.sandwich_holds is None
    assert report.q_used is None


def test_verify_single_value_class():
    report = verify_greedy_minimum(DegreeSequence((2, 2, 1, 1)))
    assert report.minimum_attained
    assert report.sandwich_holds is None
    assert report.q_used.branch == "single-value"


def test_verify_resource_cap():
    with pytest.raises(ResourceCapExceededError):
        verify_greedy_minimum(DegreeSequence((2, 2, 1, 1)), cap=1)


def test_report_table_layout():
    reports = [
        verify_greedy_minimum(DegreeSequence((1, 1))),
        verify_greedy_minimum(DegreeSequence((3, 2, 2, 1, 1, 1))),
    ]
    table = format_report_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("degrees")
    assert len(lines) == 3
    assert "3,2,2,1,1,1" in lines[2]


def test_realizable_sequences_counts():
    # partitions of n-2 into positive parts: 1, 1, 2, 3, 5, 7, 11, 15
    per_n = {n: 0 for n in range(2, 10)}
    for seq in realizable_sequences(9):
        per_n[seq.n] += 1
        assert sum(seq.degrees) == 2 * (seq.n - 1)
        assert seq.degrees[-1] >= 1
    assert per_n == {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 7, 8: 11, 9: 15}


def test_realizable_sequences_order_is_deterministic():
    first = [s.render() for s in realizable_sequences(6)]
    second = [s.render() for s in realizable_sequences(6)]
    assert first == second
    assert first[0] == "1,1"


def test_realizable_sequences_match_brute_force_order():
    sequences = [seq.degrees for seq in realizable_sequences(11)]
    expected = [degrees for n in range(2, 12) for degrees in tree_degree_sequences(n)]
    assert sequences == expected


def test_sample_tree_is_seeded_and_in_class():
    seq = DegreeSequence((4, 3, 3, 2, 1, 1, 1, 1, 1, 1))
    one = sample_tree(seq, random.Random(7))
    two = sample_tree(seq, random.Random(7))
    assert one == two
    degrees, ordered = degree_sequence_of(one)
    assert degrees == seq.degrees and ordered


def test_sample_tree_covers_class():
    seq = DegreeSequence((2, 2, 1, 1))
    rng = random.Random(3)
    seen = {sample_tree(seq, rng).edges for _ in range(40)}
    assert len(seen) == 2


def test_greedy_never_beaten_small_brute_force():
    # cross-validate verify_greedy_minimum against edge-subset enumeration
    # and check the fast passes' value multiset and sandwich verdict too
    for seq in realizable_sequences(6):
        report = verify_greedy_minimum(seq)
        brute = trees_with_degrees(seq.degrees)
        brute_values = sorted(sombor_value(seq.n, t) for t in brute)
        assert report.z1 == pytest.approx(brute_values[0], abs=1e-9)
        assert report.minimum_attained
        fast_values = sorted(sombor_value_counts(seq).elements())
        assert fast_values == pytest.approx(brute_values, abs=1e-9)
        if report.z2 is None:
            assert report.sandwich_holds is None
            continue
        half_gap = (report.z2 - report.z1) / 2
        q = report.q_used.value
        brute_verdict = all(
            sombor_value(seq.n, t) - half_gap
            < pseudo_sombor_value(seq.n, t, q)
            < sombor_value(seq.n, t)
            for t in brute
        )
        assert report.sandwich_holds == brute_verdict


def grid_column(grid, e):
    """``grid.term(a, e)`` for every label a at index a; entry 0 is unused."""
    return [0, *(grid.term(a, e) for a in range(1, len(grid.weights)))]


def _prefix_walk(seq, scores):
    """(SO, pSO) of every tree of the class (n >= 2), in the lexicographic
    order of the codes, as ``sombor`` and ``pseudo_sombor`` give them: the
    per-tree sandwich walk the decoder-state pass replaced, kept as its
    reference.

    A depth-first walk over the prefix tree of the code multiset's distinct
    arrangements. Every label's count in the code is fixed, so the state of
    ``prufer_edges``' decoder after a prefix (degrees, pointer, leaf) and
    the edges it has joined depend on the prefix only. The walk keeps that
    state, with the exact integer sums of the joined edges' terms (see
    ``_Grid``), for every prefix of the current code; the next code
    undoes and redoes only the steps past the prefix the two share. Each
    value is rounded once. The walk keeps its own stack, so its depth does
    not grow with n."""
    n = seq.n
    code = oracle._code_multiset(seq)
    heads = {*code, n}
    least = min(*seq.degrees, *scores.values)
    so_grid, pso_grid = _Grid(seq.degrees, least), _Grid(scores.values, least)
    so_terms = {e: grid_column(so_grid, e) for e in heads}
    pso_terms = {e: grid_column(pso_grid, e) for e in heads}
    # The decoder joins its last leaf to vertex n.
    so_last, pso_last = so_terms[n], pso_terms[n]
    degree = [0, *seq.degrees]
    size = len(code)
    end = size - 1
    leaf = degree.index(1)
    # states[i]: leaf, pointer and the two sums after the first i entries.
    states = [(leaf, leaf, 0, 0)] * (size + 1)
    start = 0
    while True:
        leaf, pointer, so, pso = states[start]
        for i in range(start, size):
            entry = code[i]
            so += so_terms[entry][leaf]
            pso += pso_terms[entry][leaf]
            degree[entry] -= 1
            if entry < pointer and degree[entry] == 1:
                leaf = entry
            else:
                leaf = pointer = degree.index(1, pointer + 1)
            if i < end:
                states[i + 1] = (leaf, pointer, so, pso)
        yield so_grid.value(so + so_last[leaf]), pso_grid.value(pso + pso_last[leaf])
        # Lexicographic successor. Walk back over the longest non-increasing
        # suffix to the entry before it, undoing their decoder steps; that
        # entry takes the next larger label of the suffix, whose rest is
        # then put back in ascending order.
        start = size
        later = 0
        while True:
            start -= 1
            if start < 0:
                return
            entry = code[start]
            degree[entry] += 1
            if entry < later:
                break
            later = entry
        swap = end
        while code[swap] <= entry:
            swap -= 1
        code[start] = code[swap]
        code[swap] = entry
        code[start + 1 :] = code[:start:-1]


def _slow_trees(seq):
    """Every tree of the class through the validated codec, with the codes
    listed by itertools rather than by the oracle's own successor step."""
    if seq.n == 1:
        return [LabeledTree(1, [])]
    multiset = [u for u, d in enumerate(seq.degrees, start=1) for _ in range(d - 1)]
    return [prufer_decode(PruferCode(seq.n, code)) for code in sorted(set(permutations(multiset)))]


CLASSES_UP_TO_9 = [DegreeSequence((0,))] + list(realizable_sequences(9))


@pytest.mark.parametrize("seq", CLASSES_UP_TO_9, ids=lambda s: s.render())
def test_class_walk_matches_slow_path(seq):
    # The fast passes must carry the same bits as the tree-building route
    # on every class with n <= 9 (13,391 trees with n >= 2).
    slow = _slow_trees(seq)
    walk = list(oracle._class_walk(seq))
    assert [tuple(sorted(edges)) for edges in walk] == [t.edges for t in slow]
    assert [t.edges for t in enumerate_trees(seq)] == [t.edges for t in slow]
    assert sombor_value_counts(seq) == Counter(sombor(t) for t in slow)
    if seq.n == 1:
        return
    spectrum = sombor_spectrum(seq)
    scores = score_assignment(slow[0], compute_q(seq, spectrum).value)
    slow_pairs = [(sombor(t), pseudo_sombor(t, scores)) for t in slow]
    assert list(_prefix_walk(seq, scores)) == slow_pairs
    report = verify_greedy_minimum(seq)
    if spectrum.z2 is None:
        assert report.sandwich_holds is None
        return
    # The class's own half gap, and bands that some or all trees break.
    for half_gap in _bands(slow_pairs, (spectrum.z2 - spectrum.z1) / 2) + [0.0]:
        slow_verdict = all(so - half_gap < pso < so for so, pso in slow_pairs)
        assert oracle._sandwich_holds(seq, build_greedy(seq), scores, half_gap) == slow_verdict
    assert report.sandwich_holds


def _flip_point(pairs):
    """The least half gap h at which every pair has so - h < pso, in
    floats. The test is monotone in h, and only the pairs with the largest
    SO - pSO, up to far more than an ulp of SO, can bind."""
    worst = max(so - pso for so, pso in pairs)
    near = [(so, pso) for so, pso in pairs if so - pso >= worst - 1e-6]
    low, high = worst - 1.0, worst + 1.0
    while math.nextafter(low, math.inf) < high:
        middle = low + (high - low) / 2
        if middle in (low, high):
            middle = math.nextafter(low, math.inf)
        if all(so - middle < pso for so, pso in near):
            high = middle
        else:
            low = middle
    return high


def _bands(pairs, half_gap=None):
    """Half gaps at which the strict sandwich test can flip on these
    (SO, pSO) pairs: the smallest and largest SO - pSO, the least half gap
    that every pair passes, the class's own half gap when given, and the
    next float on either side of each."""
    gaps = [so - pso for so, pso in pairs]
    centres = [min(gaps), max(gaps), _flip_point(pairs)]
    centres += [] if half_gap is None else [half_gap]
    return [
        band
        for centre in centres
        for band in (math.nextafter(centre, -math.inf), centre, math.nextafter(centre, math.inf))
    ]


class EdgeTerms(dict):
    """Edge (a, b) -> hypot(w_a, w_b), the edge's term in an index over the
    label weights w (degrees or scores), computed on its first lookup."""

    def __init__(self, weights):
        super().__init__()
        self.weights = weights

    def __missing__(self, edge):
        a, b = edge
        term = self[edge] = math.hypot(self.weights[a - 1], self.weights[b - 1])
        return term


def labeled_value_counts(seq):
    """The labeled spectrum pass the decoder-state count replaced, kept as
    its slow reference: the ``fsum`` of each walked edge list's ``hypot``
    terms."""
    term = EdgeTerms(seq.degrees).__getitem__
    return Counter(math.fsum(map(term, edges)) for edges in oracle._class_walk(seq))


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


def decoder_profile_counts(reduced):
    """Edge profile -> trees of D' (the sequence without its 2s, n' >= 2),
    keyed as ``_reduced_profiles`` keys them, from one ``_decoder_pass``:
    the decoder-state count that the matrix-tree formula replaced, kept as
    its reference."""
    radix = reduced.n
    weights = sorted({*reduced.degrees, 2}, reverse=True)
    two = weights.index(2) + 1
    kinds = [weights.index(d) + 1 for d in reduced.degrees]
    place = {}  # (kind, kind) -> place value of its pair's digit
    digit = 0
    for b in range(1, len(weights) + 1):
        for a in range(1, b + 1):
            if two not in (a, b):
                place[a, b] = place[b, a] = radix**digit
                digit += 1
    places = {
        e: [0] + [place[kinds[e - 1], kind] for kind in kinds]
        for e in oracle._edge_heads(reduced)
    }

    def join(profiles, e, leaf, into):
        add = places[e][leaf]
        if into is None:
            return {profile + add: trees for profile, trees in profiles.items()}
        for profile, trees in profiles.items():
            profile += add
            into[profile] = into.get(profile, 0) + trees
        return into

    return _decoder_pass(reduced, {0: 1}, join)


def decoder_value_counts(seq):
    """The spectrum pass over the full sequence that counting edge profiles
    of the sequence without its 2s replaced, kept as a reference: one
    ``_decoder_pass`` whose states map each exact SO sum of the edges
    joined so far to its number of code prefixes."""
    grid = _Grid(seq.degrees)
    terms = {e: grid_column(grid, e) for e in oracle._edge_heads(seq)}

    def join(sums, e, leaf, into):
        add = terms[e][leaf]
        if into is None:
            return {so + add: trees for so, trees in sums.items()}
        for so, trees in sums.items():
            so += add
            into[so] = into.get(so, 0) + trees
        return into

    values = Counter()
    for so, trees in _decoder_pass(seq, {0: 1}, join).items():
        values[grid.value(so)] += trees
    return values


def _class_scores(seq):
    """Scores of the class's labels under the q that verify picks for it."""
    q = compute_q(seq, sombor_spectrum(seq)).value
    return score_assignment(build_greedy(seq), q)


@pytest.mark.parametrize(
    "seq", [s for s in realizable_sequences(9) if s.n >= 3], ids=lambda s: s.render()
)
def test_grid_sums_round_like_fsum(seq):
    # One rounding of the exact integer sum must give the bits of fsum on
    # every edge list of the class, over degrees and over scores, each on
    # its own grid and both on the finer grid the two rows share.
    labels = range(1, seq.n + 1)
    scores = _class_scores(seq).values
    for rows in ((seq.degrees,), (scores,), (seq.degrees, scores)):
        least = min(map(min, rows))
        for weights in rows:
            grid = _Grid(weights, least)
            terms = {e: grid_column(grid, e) for e in labels}
            term = EdgeTerms(weights).__getitem__
            for edges in oracle._class_walk(seq):
                exact = grid.value(sum(terms[b][a] for a, b in edges))
                assert exact == math.fsum(map(term, edges)), edges


def grid_columns(rows, heads):
    """``(scale, columns)``: the ``_Grid`` of each row of label weights, all
    on the shift of the least weight of every row, with ``columns[r][e]``
    its ``grid_column`` of e over row r for each label e in ``heads``."""
    least = min(map(min, rows))
    grids = [_Grid(weights, least) for weights in rows]
    return grids[0].scale, [{e: grid_column(grid, e) for e in heads} for grid in grids]


def reference_grid_terms(rows, heads):
    """``grid_columns`` one cell at a time, each term put on the grid
    through its exact ratio: the formulation the ``ldexp`` scaling replaced,
    kept as its reference."""
    shift = 54 - math.frexp(min(map(min, rows)))[1]
    columns = []
    for weights in rows:
        w = (0.0, *weights)
        row = {}
        for e in heads:
            column = row[e] = [0]
            for a in range(1, len(w)):
                num, den = math.hypot(w[min(a, e)], w[max(a, e)]).as_integer_ratio()
                column.append(num << (shift + 1 - den.bit_length()))
        columns.append(row)
    return math.ldexp(1.0, -shift), columns


def _perturbed_scores(seq):
    """Weights within 1e-3 of the degrees, some above them, as
    ``test_sandwich_verdict_where_pso_can_pass_so`` draws them."""
    rng = random.Random(seq.n)
    return [
        ScoreAssignment(tuple(d + rng.uniform(-1e-3, 1e-3) for d in seq.degrees))
        for _ in range(20)
    ]


PSO_CAN_PASS_SO = [
    DegreeSequence((3, 3, 2, 2, 1, 1, 1, 1)),
    DegreeSequence((4, 3, 2, 2, 1, 1, 1, 1, 1)),
]


def _grid_cases():
    """(rows, heads) as the spectrum and the sandwich ask for them on every
    class with n <= 12 at verify's scores, and on the contrived scores the
    sandwich tests use: perturbed degrees, a last score of 1 - 1e-14, and
    the 1,501-vertex star."""
    for seq in realizable_sequences(12):
        scores = _class_scores(seq).values
        heads = oracle._edge_heads(seq)
        yield (seq.degrees, scores), heads
        weights = sorted({*seq.degrees, 2}, reverse=True)
        yield (weights,), range(1, len(weights) + 1)
    for seq in PSO_CAN_PASS_SO:
        for scores in _perturbed_scores(seq):
            yield (seq.degrees, scores.values), range(1, seq.n + 1)
    seq = DegreeSequence((3, 2, 2, 1, 1, 1))
    yield (seq.degrees, seq.degrees[:-1] + (1 - 1e-14,)), range(1, seq.n + 1)
    star = DegreeSequence((1500,) + (1,) * 1500)
    yield (star.degrees, _class_scores(star).values), oracle._edge_heads(star)


def test_grid_term_takes_the_smaller_labels_weight_first():
    # hypot(1.6333333333333333, 3.92) and hypot(3.92, 1.6333333333333333)
    # differ in the last bit on CPython 3.11, so a term carries the bits
    # pseudo_sombor gives the edge only with the smaller label's weight first.
    edge = LabeledTree(2, [(1, 2)])
    for weights in ((3.92, 1.6333333333333333), (1.6333333333333333, 3.92)):
        grid = _Grid(weights)
        expected = pseudo_sombor(edge, ScoreAssignment(weights))
        assert grid.value(grid.term(1, 2)) == grid.value(grid.term(2, 1)) == expected


def test_grid_switch_gain_is_its_four_terms():
    # With these weights every edge but {1,4} and {2,3} takes the last bit
    # of its term from the order of its two weights, so each of the four
    # inline terms must keep term's order, for every order of the labels.
    grid = _Grid((3.92, 1.6333333333333333, 1.6333333333333333, 3.92))
    for u, v, w, t in permutations(range(1, 5)):
        expected = grid.term(u, w) + grid.term(v, t) - grid.term(u, v) - grid.term(w, t)
        assert grid.switch_gain(u, v, w, t) == expected


def test_grid_terms_match_the_per_cell_reference():
    # Each term put on the grid by one ldexp must give the exact-ratio
    # integers, and the scale must be the same.
    for rows, heads in _grid_cases():
        assert grid_columns(rows, heads) == reference_grid_terms(rows, heads), rows


@pytest.mark.parametrize(
    "seq", [s for s in realizable_sequences(10) if s.n == 10], ids=lambda s: s.render()
)
def test_sandwich_matches_labeled_walk(seq):
    # The prefix walk must give the labeled walk's values, tree by tree,
    # and its verdict at the class's half gap and at the bands of the
    # smallest and largest SO - pSO, where an error of one ulp in either
    # value can flip the strict test.
    scores = _class_scores(seq)
    so_term = EdgeTerms(seq.degrees).__getitem__
    pso_term = EdgeTerms(scores.values).__getitem__
    pairs = [
        (math.fsum(map(so_term, edges)), math.fsum(map(pso_term, edges)))
        for edges in oracle._class_walk(seq)
    ]
    assert list(_prefix_walk(seq, scores)) == pairs
    spectrum = sombor_spectrum(seq)
    half_gap = None if spectrum.z2 is None else (spectrum.z2 - spectrum.z1) / 2
    for half_gap in _bands(pairs, half_gap):
        verdict = all(so - half_gap < pso < so for so, pso in pairs)
        assert oracle._sandwich_holds(seq, build_greedy(seq), scores, half_gap) == verdict, half_gap


@pytest.mark.parametrize("seq", PSO_CAN_PASS_SO, ids=lambda s: s.render())
def test_sandwich_verdict_where_pso_can_pass_so(seq):
    # Weights within 1e-3 of the degrees, some above: on some trees pSO
    # reaches or passes SO, so the upper side of the test binds too.
    tree = build_greedy(seq)
    for scores in _perturbed_scores(seq):
        pairs = list(_prefix_walk(seq, scores))
        for half_gap in _bands(pairs) + [math.inf]:
            verdict = all(so - half_gap < pso < so for so, pso in pairs)
            assert oracle._sandwich_holds(seq, tree, scores, half_gap) == verdict, half_gap


def _without_twos(seq):
    """The degrees the spectrum counts edge profiles of, as ``_reduced_profiles``
    takes them: ``seq``'s without its 2s."""
    return tuple(d for d in seq.degrees if d != 2)


def _sandwich_traffic(monkeypatch, passes=None):
    """Patches ``_sandwich_holds`` to record, during its calls, the classes
    whose trees it walks through ``_class_walk`` and the degrees of any
    ``_reduced_profiles`` call it makes; and ``_reduced_profiles`` to record
    the degrees of every call, cached or not, in ``passes`` when given.
    Returns (walked, started)."""
    walked, started, inside = [], [], []
    real_holds, real_walk, real_pass = (
        oracle._sandwich_holds, oracle._class_walk, oracle._reduced_profiles
    )

    def class_walk(seq):
        if inside:
            walked.append(seq)
        return real_walk(seq)

    def reduced_profiles(reduced):
        if inside:
            started.append(reduced)
        if passes is not None:
            passes.append(reduced)
        return real_pass(reduced)

    def sandwich_holds(seq, tree, scores, half_gap):
        inside.append(seq)
        try:
            return real_holds(seq, tree, scores, half_gap)
        finally:
            inside.pop()

    monkeypatch.setattr(oracle, "_class_walk", class_walk)
    monkeypatch.setattr(oracle, "_reduced_profiles", reduced_profiles)
    monkeypatch.setattr(oracle, "_sandwich_holds", sandwich_holds)
    return walked, started


def test_certificate_settles_every_multi_value_class_up_to_12(monkeypatch):
    # At the q verify picks, every tree's SO - pSO lies far inside
    # (0, half_gap), so the per-label certificate decides alone: no class
    # is walked, and the only profile count each class asks for is its
    # spectrum's.
    passes = []
    walked, started = _sandwich_traffic(monkeypatch, passes)
    multi_value = 0
    classes = list(realizable_sequences(12))
    for seq in classes:
        report = verify_greedy_minimum(seq)
        if report.z2 is not None:
            multi_value += 1
            assert report.sandwich_holds, seq.render()
    assert (multi_value, walked) == (91, [])
    assert started == []
    assert passes == [_without_twos(seq) for seq in classes] and len(passes) == 139



def _report_bits(report):
    """Every field of a verification report, each float as ``float.hex``."""

    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, QConstant):
            return value.value.hex(), value.branch
        return value

    return {name: bits(getattr(report, name)) for name in type(report).__match_args__}


@pytest.mark.parametrize("order", ["sweep", "reverse", "shuffled"])
def test_shared_profiles_give_the_unshared_reports(order):
    # The profile cache, warmed from class to class in any order, must give
    # every class the report, bit for bit, that a cleared cache gives.
    classes = list(realizable_sequences(12))
    if order == "reverse":
        classes.reverse()
    elif order == "shuffled":
        random.Random(20).shuffle(classes)
    oracle._reduced_profiles.cache_clear()
    shared = [_report_bits(verify_greedy_minimum(seq)) for seq in classes]
    assert oracle._reduced_profiles.cache_info().misses == 42
    alone = []
    for seq in classes:
        oracle._reduced_profiles.cache_clear()
        alone.append(_report_bits(verify_greedy_minimum(seq)))
    assert shared == alone


def test_value_counts_count_each_sequence_without_its_2s_once():
    # 3,2,2,1,1,1 and 3,2,1,1,1 share D' = 3,1,1,1: one count serves both
    # classes and a repeated class, and each gets the values a cleared
    # cache gives it.
    seq, sibling = DegreeSequence((3, 2, 2, 1, 1, 1)), DegreeSequence((3, 2, 1, 1, 1))
    alone = []
    for s in (seq, seq, sibling):
        oracle._reduced_profiles.cache_clear()
        alone.append(sombor_value_counts(s))
    oracle._reduced_profiles.cache_clear()
    assert [sombor_value_counts(s) for s in (seq, seq, sibling)] == alone
    info = oracle._reduced_profiles.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize(
    "seq, error",
    [
        # D' = 3,1,1,1, but 19,958,400 trees are over the default cap.
        (DegreeSequence((3,) + (2,) * 9 + (1,) * 3), ResourceCapExceededError),
        (DegreeSequence((3, 3, 1, 1)), NotTreeRealizableError),
    ],
    ids=["over-cap", "not-realizable"],
)
def test_refused_class_leaves_the_memo_unchanged(seq, error):
    # A refused class asks for no count: the cache sees neither a hit nor
    # a miss.
    oracle._reduced_profiles.cache_clear()
    verify_greedy_minimum(DegreeSequence((2, 2, 1, 1)))
    before = oracle._reduced_profiles.cache_info()
    with pytest.raises(error):
        verify_greedy_minimum(seq)
    assert oracle._reduced_profiles.cache_info() == before


# The classes with 7 <= n <= 9 and more than one Sombor value, written out
# so that a fault in the spectrum fails tests instead of their collection.
MULTI_VALUE_7_TO_9 = [
    "4,2,2,1,1,1,1", "3,3,2,1,1,1,1", "3,2,2,2,1,1,1",
    "5,2,2,1,1,1,1,1", "4,3,2,1,1,1,1,1", "4,2,2,2,1,1,1,1", "3,3,2,2,1,1,1,1",
    "3,2,2,2,2,1,1,1",
    "6,2,2,1,1,1,1,1,1", "5,3,2,1,1,1,1,1,1", "5,2,2,2,1,1,1,1,1", "4,4,2,1,1,1,1,1,1",
    "4,3,3,1,1,1,1,1,1", "4,3,2,2,1,1,1,1,1", "4,2,2,2,2,1,1,1,1", "3,3,3,2,1,1,1,1,1",
    "3,3,2,2,2,1,1,1,1", "3,2,2,2,2,2,1,1,1",
]


def test_multi_value_classes_7_to_9_are_written_out():
    found = [seq.render() for seq in realizable_sequences(9)
             if seq.n >= 7 and len(sombor_value_counts(seq)) > 1]
    assert MULTI_VALUE_7_TO_9 == found


@pytest.mark.parametrize("degrees", MULTI_VALUE_7_TO_9)
def test_certificate_declines_an_oversized_q(monkeypatch, degrees):
    # q = 1/(2n) is far above the spectrum-gap rule's q here, so some tree
    # has SO - pSO past the half gap: the certificate must not vouch for
    # the class, and the walk gives the per-tree verdict.
    seq = parse_degree_sequence(degrees)
    spectrum = sombor_spectrum(seq)
    half_gap = (spectrum.z2 - spectrum.z1) / 2
    scores = score_assignment(build_greedy(seq), 1 / (2 * seq.n))
    pairs = list(_prefix_walk(seq, scores))
    assert not all(so - half_gap < pso < so for so, pso in pairs)
    walked, started = _sandwich_traffic(monkeypatch)
    assert oracle._sandwich_holds(seq, build_greedy(seq), scores, half_gap) is False
    assert (walked, started) == ([seq], [])


@pytest.mark.parametrize("degrees", MULTI_VALUE_7_TO_9)
def test_certificate_declines_a_shrunk_half_gap(monkeypatch, degrees):
    # At the least half gap every tree passes, the largest SO - pSO lies
    # within the certificate's ulp margin, so the walk decides: the
    # sandwich holds there and fails one float below.
    seq = parse_degree_sequence(degrees)
    scores = _class_scores(seq)
    pairs = list(_prefix_walk(seq, scores))
    flip = _flip_point(pairs)
    walked, started = _sandwich_traffic(monkeypatch)
    for half_gap, verdict in ((flip, True), (math.nextafter(flip, 0.0), False)):
        assert all(so - half_gap < pso < so for so, pso in pairs) == verdict
        assert oracle._sandwich_holds(seq, build_greedy(seq), scores, half_gap) is verdict
    assert (walked, started) == ([seq, seq], [])


def test_certificate_declines_pso_within_an_ulp_below_so(monkeypatch):
    # The last leaf's score sits 2e-15 below its degree, so every tree's
    # exact pSO is below its SO by less than an ulp of SO, and every tree
    # rounds to pSO == SO: the certificate must leave the class to the walk.
    seq = DegreeSequence((3, 3, 2, 2, 1, 1, 1, 1))
    scores = ScoreAssignment(seq.degrees[:-1] + (1 - 2e-15,))
    assert all(pso == so for so, pso in _prefix_walk(seq, scores))
    walked, started = _sandwich_traffic(monkeypatch)
    assert oracle._sandwich_holds(seq, build_greedy(seq), scores, 0.5) is False
    assert (walked, started) == ([seq], [])


def test_certificate_keeps_two_ulps_below_the_half_gap(monkeypatch):
    # The star 6,1^6 is its own class, so its one tree's D is the
    # certificate's greatest sum. At these scores, one float below the least
    # half gap the tree passes lies more than one ulp u of the SO bound
    # above that sum but within 2u: a certificate with one ulp of margin
    # there would pass a failing class.
    seq = DegreeSequence((6,) + (1,) * 6)
    offsets = (6, 3, 2, 1, 2, 4, 4)
    scores = ScoreAssignment(tuple(d - c * 1e-5 for d, c in zip(seq.degrees, offsets)))
    pairs = list(_prefix_walk(seq, scores))
    half_gap = math.nextafter(_flip_point(pairs), 0.0)
    assert not all(so - half_gap < pso < so for so, pso in pairs)
    walked, started = _sandwich_traffic(monkeypatch)
    assert oracle._sandwich_holds(seq, build_greedy(seq), scores, half_gap) is False
    assert (walked, started) == ([seq], [])


def test_certificate_declines_a_last_score_just_below_one(monkeypatch):
    # The last leaf's score at 1 - 1e-14 puts the least per-label D at 0,
    # so the certificate declines at the class's own half gap, and a walk
    # of its 12 trees finds that every one passes. A certificate that
    # settles this class changes this test's walked list.
    seq = DegreeSequence((3, 2, 2, 1, 1, 1))
    spectrum = sombor_spectrum(seq)
    half_gap = (spectrum.z2 - spectrum.z1) / 2
    scores = ScoreAssignment(seq.degrees[:-1] + (1 - 1e-14,))
    pairs = list(_prefix_walk(seq, scores))
    assert len(pairs) == 12 and all(so - half_gap < pso < so for so, pso in pairs)
    walked, started = _sandwich_traffic(monkeypatch)
    assert oracle._sandwich_holds(seq, build_greedy(seq), scores, half_gap) is True
    assert (walked, started) == ([seq], [])


def test_sandwich_decodes_no_tree(monkeypatch):
    # No prufer_decode, whether the certificate decides alone (at verify's
    # q) or the walk runs too (at q = 1/(2n)): the spot check sums the
    # greedy tree it is handed, and the walk takes its edge lists from
    # prufer_edges and builds no tree.
    seq = parse_degree_sequence(MULTI_VALUE_7_TO_9[0])
    spectrum = sombor_spectrum(seq)
    half_gap = (spectrum.z2 - spectrum.z1) / 2
    decoded = []
    real = oracle.prufer_decode
    monkeypatch.setattr(oracle, "prufer_decode", lambda code: decoded.append(code) or real(code))
    walked, started = _sandwich_traffic(monkeypatch)
    tree = build_greedy(seq)
    for q in (compute_q(seq, spectrum).value, 1 / (2 * seq.n)):
        oracle._sandwich_holds(seq, tree, score_assignment(tree, q), half_gap)
        assert decoded == [], q
    assert (walked, started) == ([seq], [])


@pytest.mark.parametrize("half_gap, verdict", [(math.inf, True), (math.nan, False)])
def test_certificate_declines_a_non_finite_half_gap(monkeypatch, half_gap, verdict):
    # An infinite half gap makes u infinite and a NaN fails the comparison,
    # so the walk gives the per-tree verdict either way.
    seq = DegreeSequence((3, 2, 2, 1, 1, 1))
    walked, started = _sandwich_traffic(monkeypatch)
    assert oracle._sandwich_holds(seq, build_greedy(seq), _class_scores(seq), half_gap) is verdict
    assert (walked, started) == ([seq], [])


@pytest.mark.parametrize(
    "seq", [DegreeSequence((0,))] + list(realizable_sequences(10)), ids=lambda s: s.render()
)
def test_value_counts_match_labeled_walk(seq):
    assert sombor_value_counts(seq) == labeled_value_counts(seq)


@pytest.mark.parametrize(
    "seq",
    list(realizable_sequences(12)) + [DegreeSequence((3,) * 4 + (2,) * 6 + (1,) * 6)],
    ids=lambda s: s.render(),
)
def test_value_counts_match_the_full_decoder_pass(seq):
    # Counting edge profiles of the sequence without its 2s and laying the
    # 2s on in closed form must give the bits of the full sequence's pass.
    def by_hex(counts):
        return {value.hex(): trees for value, trees in counts.items()}

    assert by_hex(sombor_value_counts(seq)) == by_hex(decoder_value_counts(seq))


REDUCED_UP_TO_20 = sorted(
    {_without_twos(seq) for seq in realizable_sequences(20)}, key=lambda d: (len(d), d)
)


def test_profile_counts_match_the_decoder_pass():
    # The matrix-tree count must give every edge profile of D' the trees
    # the decoder-state pass gives it, on all 385 D' of the classes with
    # n <= 20 (6,5,4,3,1^12 has five distinct degrees), on 7,6,5,4,3,1^17,
    # the first D' with six, whose spanning-tree codes have length 4, and
    # on 5^2,4^2,3^2,1^14, with several labels on each degree above 1.
    assert len(REDUCED_UP_TO_20) == 385
    assert (6, 5, 4, 3) + (1,) * 12 in REDUCED_UP_TO_20
    wider = [(7, 6, 5, 4, 3) + (1,) * 17, (5, 5, 4, 4, 3, 3) + (1,) * 14]
    for degrees in REDUCED_UP_TO_20 + wider:
        counts = oracle._reduced_profiles(degrees)[3]
        assert counts == decoder_profile_counts(DegreeSequence(degrees)), degrees


def test_value_counts_total_the_class_size():
    for seq in realizable_sequences(20):
        assert sum(sombor_value_counts(seq).values()) == count_trees(seq), seq.render()


def test_value_counts_of_a_long_path_in_closed_form():
    # 2998 labels of degree 2 lay on the one edge of 1,1 in 2998! ways, all
    # with the path's value; the full pass's states would grow like 2^2998.
    seq = DegreeSequence((2,) * 2998 + (1, 1))
    start = time.perf_counter()
    counts = sombor_value_counts(seq)
    elapsed = time.perf_counter() - start
    assert counts == Counter({sombor(build_greedy(seq)): math.factorial(2998)})
    assert elapsed < 1.0, elapsed


def test_value_counts_of_many_labels_of_degree_3_or_more():
    # The decoder-state pass over D' = 4^5,3^5,1^17 took about 14 s here.
    # Counted by type, D' has two distinct degrees, so one spanning tree of
    # K_2, a one-row DP and the forced row of the leaves.
    seq = DegreeSequence((4,) * 5 + (3,) * 5 + (2,) * 20 + (1,) * 17)
    start = time.perf_counter()
    counts = sombor_value_counts(seq)
    elapsed = time.perf_counter() - start
    assert sum(counts.values()) == count_trees(seq)
    assert min(counts) == sombor(build_greedy(seq))
    assert elapsed < 2.0, elapsed


def test_value_counts_of_a_class_too_large_to_walk():
    seq = DegreeSequence((24, 3, 2, 2, 2) + (1,) * 25)
    counts = sombor_value_counts(seq)
    assert sum(counts.values()) == count_trees(seq) == 5_896_800
    assert min(counts) == sombor(build_greedy(seq))


def test_tree_count_mismatch_raises_oracle_invariant_error(monkeypatch):
    real = oracle.count_trees
    monkeypatch.setattr(oracle, "count_trees", lambda seq: real(seq) + 1)
    with pytest.raises(oracle.OracleInvariantError, match="expected 13"):
        verify_greedy_minimum(DegreeSequence((3, 2, 2, 1, 1, 1)))


def test_spot_check_catches_a_wrong_fast_value(monkeypatch):
    real = oracle.sombor
    monkeypatch.setattr(oracle, "sombor", lambda tree: math.nextafter(real(tree), math.inf))
    with pytest.raises(oracle.OracleInvariantError, match="first tree"):
        sombor_value_counts(DegreeSequence((2, 2, 1, 1)))


def test_sandwich_spot_check_catches_a_wrong_pseudo_value(monkeypatch):
    real = oracle.pseudo_sombor
    monkeypatch.setattr(
        oracle, "pseudo_sombor", lambda tree, scores: math.nextafter(real(tree, scores), 0.0)
    )
    with pytest.raises(oracle.OracleInvariantError, match="sandwich pass .* greedy tree"):
        verify_greedy_minimum(DegreeSequence((3, 2, 2, 1, 1, 1)))
