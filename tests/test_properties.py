"""Property-based checks of the structural invariants."""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from sombortrees.degseq import DegreeSequence, is_tree_realizable, parse_degree_sequence
from sombortrees.greedy import build_greedy
from sombortrees.indices import pseudo_sombor, score_assignment, sombor
from sombortrees.oracle import _reduced_profiles, count_trees
from sombortrees.switching import SwitchError, SwitchPlan, SwitchSign, apply_switch, switch_sign
from sombortrees.tree_core import (
    LabeledTree,
    PruferCode,
    degree_sequence_of,
    prufer_decode,
    prufer_encode,
)


@st.composite
def prufer_codes(draw, min_n=2, max_n=24):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    code = draw(
        st.lists(st.integers(1, n), min_size=max(n - 2, 0), max_size=max(n - 2, 0))
    )
    return PruferCode(n, tuple(code))


@st.composite
def random_trees(draw, min_n=2, max_n=24):
    return prufer_decode(draw(prufer_codes(min_n=min_n, max_n=max_n)))


@st.composite
def realizable_degree_sequences(draw, min_n=2, max_n=24):
    # the degree multiset of any labeled tree, sorted, is realizable
    tree = draw(random_trees(min_n=min_n, max_n=max_n))
    degrees, _ = degree_sequence_of(tree)
    return DegreeSequence(tuple(sorted(degrees, reverse=True)))


@st.composite
def reduced_sequences(draw):
    # A sequence without 2s: 1-4 distinct degrees in 3..7, each on 1-3
    # labels, and the leaves that make it realizable.
    degrees = draw(st.lists(st.integers(3, 7), min_size=1, max_size=4, unique=True))
    inner = [d for d in degrees for _ in range(draw(st.integers(1, 3)))]
    leaves = 2 + sum(d - 2 for d in inner)
    return DegreeSequence(tuple(sorted(inner, reverse=True)) + (1,) * leaves)


@given(prufer_codes())
def test_decode_encode_round_trip(code):
    assert prufer_encode(prufer_decode(code)) == code


@given(random_trees())
def test_encode_decode_round_trip(tree):
    assert prufer_decode(prufer_encode(tree)) == tree


@given(random_trees())
def test_code_occurrences_match_degrees(tree):
    code = prufer_encode(tree)
    for u in range(1, tree.n + 1):
        assert code.code.count(u) == tree.degree(u) - 1


@given(random_trees())
def test_bfs_level_law(tree):
    info = tree.bfs_levels()
    assert info.level[1] == 0
    for u in range(2, tree.n + 1):
        assert info.level[info.parent[u]] == info.level[u] - 1
    assert set(info.order) == set(range(1, tree.n + 1))


@given(realizable_degree_sequences())
def test_realizable_sequences_pass_the_test(seq):
    assert is_tree_realizable(seq)
    assert seq.degrees[-1] == 1


@given(realizable_degree_sequences())
def test_greedy_bfs_identity(seq):
    tree = build_greedy(seq)
    info = tree.bfs_levels()
    assert info.order == tuple(range(1, seq.n + 1))
    degrees, ordered = degree_sequence_of(tree)
    assert degrees == seq.degrees
    assert ordered


@given(realizable_degree_sequences())
def test_parse_render_identity(seq):
    assert parse_degree_sequence(seq.render()) == seq


@given(realizable_degree_sequences(), st.floats(min_value=0.01, max_value=1.0))
def test_score_monotonicity_for_q_in_range(seq, fraction):
    tree = build_greedy(seq)
    q = fraction / (2 * seq.n)
    scores = score_assignment(tree, q)
    assert scores.strictly_decreasing
    assert scores.values[-1] >= 0.5 - 1e-12
    assert pseudo_sombor(tree, scores) < sombor(tree)


@given(random_trees(min_n=3), st.floats(min_value=0.01, max_value=1.0))
def test_pseudo_below_plain_for_any_tree(tree, fraction):
    # positivity of scores only needs q <= 1/(2n), not the labeling convention
    q = fraction / (2 * tree.n)
    scores = score_assignment(tree, q)
    assert all(v > 0 for v in scores.values)
    assert pseudo_sombor(tree, scores) < sombor(tree)


@given(
    random_trees(min_n=4, max_n=12),
    st.data(),
)
@settings(max_examples=150)
def test_switch_preserves_degrees_and_sign(tree, data):
    edges = list(tree.edges)
    first = data.draw(st.sampled_from(edges))
    second = data.draw(st.sampled_from(edges))
    flip_first = data.draw(st.booleans())
    flip_second = data.draw(st.booleans())
    u, v = (first[1], first[0]) if flip_first else first
    w, t = (second[1], second[0]) if flip_second else second
    if len({u, v, w, t}) != 4:
        return
    plan = SwitchPlan(u, v, w, t)
    try:
        switched = apply_switch(tree, plan)
    except SwitchError:
        return
    for x in range(1, tree.n + 1):
        assert switched.degree(x) == tree.degree(x)
    scores = score_assignment(tree, 1 / (2 * tree.n))
    sign, product = switch_sign(tree, plan, scores)
    diff = pseudo_sombor(tree, scores) - pseudo_sombor(switched, scores)
    if sign is SwitchSign.DECREASE:
        assert diff > 0
    elif sign is SwitchSign.INCREASE:
        assert diff < 0
    else:
        assert math.isclose(diff, 0.0, abs_tol=1e-12)


@given(reduced_sequences().filter(lambda seq: seq.n <= 40))
@settings(max_examples=50, deadline=None)
def test_profile_counts_add_up(reduced):
    # No reference reaches these D': the counts must total the class size,
    # and each profile, its digits in radix n' in the order of the degree
    # pairs, must have n' - 1 edges and m * d edge ends at each degree d
    # held by m labels.
    radix = reduced.n
    weights = sorted({*reduced.degrees, 2}, reverse=True)
    pairs = [
        (weights[a], weights[b])
        for b in range(len(weights))
        for a in range(b + 1)
        if 2 not in (weights[a], weights[b])
    ]
    counts = _reduced_profiles(reduced.degrees)[3]
    assert sum(counts.values()) == count_trees(reduced)
    for profile in counts:
        assert profile < radix ** len(pairs)
        edges = [profile // radix**i % radix for i in range(len(pairs))]
        assert sum(edges) == radix - 1
        for d, m in Counter(reduced.degrees).items():
            assert sum(e * ((a == d) + (b == d)) for e, (a, b) in zip(edges, pairs)) == m * d
