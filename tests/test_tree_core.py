import json
import math
import tracemalloc
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombortrees.switching import SwitchPlan, apply_switch
from sombortrees.tree_core import (
    LabeledTree,
    PruferCode,
    TreeError,
    degree_sequence_of,
    prufer_decode,
    prufer_edges,
    prufer_encode,
)

from brute import all_labeled_trees, heap_prufer_edges

FIGURE_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9), (4, 10),
]


def figure_tree():
    return LabeledTree(10, FIGURE_EDGES)


def test_two_vertex_tree():
    tree = LabeledTree(2, [(1, 2)])
    assert tree.edges == ((1, 2),)
    assert tree.degree(1) == tree.degree(2) == 1


def test_edges_are_canonicalized():
    tree = LabeledTree(3, [(3, 1), (2, 1)])
    assert tree.edges == ((1, 2), (1, 3))
    assert tree.neighbors(1) == (2, 3)
    # a vertex with neighbours on both sides of its label, given out of order
    mixed = LabeledTree(5, [(3, 5), (4, 3), (1, 3), (3, 2)])
    assert mixed.neighbors(3) == (1, 2, 4, 5)


def test_triangle_reports_cycle():
    with pytest.raises(TreeError, match="cycle"):
        LabeledTree(3, [(1, 2), (1, 3), (2, 3)])


def test_self_loop_rejected():
    with pytest.raises(TreeError, match="self-loop"):
        LabeledTree(2, [(1, 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(TreeError, match="duplicate"):
        LabeledTree(3, [(1, 2), (2, 1)])


def test_label_out_of_range_rejected():
    with pytest.raises(TreeError, match="out of range"):
        LabeledTree(3, [(1, 2), (2, 4)])


def test_wrong_edge_count_rejected():
    with pytest.raises(TreeError, match="disconnected|edges"):
        LabeledTree(4, [(1, 2), (3, 4)])


def test_too_few_edges_rejected_before_sized_allocation():
    # A vertex count far above the edge count must fail on the count, not
    # after allocating per-vertex tables.
    tracemalloc.start()
    try:
        with pytest.raises(TreeError, match="edges"):
            LabeledTree(10**6, [(1, 2)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def reference_tree(n, edges):
    """(edges, neighbour tuples) of ``LabeledTree(n, edges)``, or its
    ``TreeError`` message: the validation loop the one-loop scan replaced,
    kept verbatim as its reference."""
    try:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise TreeError(f"vertex count must be a positive integer, got {n!r}")
        edges = list(edges)
        if len(edges) < n - 1:
            raise TreeError(
                f"a tree on {n} vertices has {n - 1} edges, got {len(edges)} "
                "(graph is disconnected or not spanning)"
            )
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        comp = list(range(n + 1))  # union-find with path halving

        def find(x: int) -> int:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for pair in edges:
            u, v = pair
            for label in (u, v):
                if not isinstance(label, int) or isinstance(label, bool) or not 1 <= label <= n:
                    raise TreeError(f"vertex label {label!r} out of range 1..{n}")
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            edge = (u, v) if u < v else (v, u)
            if edge in seen:
                raise TreeError(f"duplicate edge {edge}")
            seen.add(edge)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise TreeError(f"cycle detected when adding edge {edge}")
            comp[ru] = rv
            canon.append(edge)
        canon.sort()
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(canon), tuple(tuple(nbrs) for nbrs in adj[1:])
    except TreeError as err:
        return str(err)


def _built_or_refused(n, edges):
    """What ``LabeledTree(n, edges)`` gives, in ``reference_tree``'s form."""
    try:
        tree = LabeledTree(n, edges)
    except TreeError as err:
        return str(err)
    return tree.edges, tuple(tree.neighbors(u) for u in range(1, n + 1))


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.data())
def test_validation_matches_the_reference_loop(data):
    # Edge lists of any length up to n + 1, one edge in four with a label
    # on either end or both that may be a bool, float, string or out of
    # range, the rest in 1..n, so self-loops, duplicates and cycles are
    # common: the same TreeError message, from the same first fault, or the
    # same tree.
    n = data.draw(st.one_of(st.integers(1, 8), st.sampled_from([0, -1, True, 2.0])))
    top = n if type(n) is int and n > 0 else 3
    good = st.integers(1, top)
    bad = st.one_of(
        st.integers(-1, top + 1), st.booleans(), st.sampled_from([1.0, 2.0, 0.5, math.nan, "1"])
    )
    pairs = [st.tuples(bad, good), st.tuples(good, bad), st.tuples(bad, bad)]
    pairs += [st.tuples(good, good)] * 9
    edges = [
        data.draw(pairs[data.draw(st.integers(0, len(pairs) - 1))])
        for _ in range(data.draw(st.integers(0, top + 1)))
    ]
    assert _built_or_refused(n, edges) == reference_tree(n, edges)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_validation_matches_the_reference_loop_on_trees(data):
    # Shuffled and flipped edges of a random tree, with at most two edges
    # added: every tree is accepted as the reference builds it, and every
    # extra edge fails the same way.
    n = data.draw(st.integers(1, 10))
    edges = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    edges += data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2))
    edges = [
        (v, u) if data.draw(st.booleans()) else (u, v)
        for u, v in data.draw(st.permutations(edges))
    ]
    assert _built_or_refused(n, edges) == reference_tree(n, edges)


def test_single_vertex_tree():
    tree = LabeledTree(1, [])
    assert tree.edges == ()
    assert tree.degree(1) == 0


def test_degrees_of_figure_tree():
    tree = figure_tree()
    assert tree.degree(1) == 4
    assert tree.degree(10) == 1
    with pytest.raises(TreeError):
        tree.degree(11)


def test_degree_sequence_of():
    degrees, ordered = degree_sequence_of(figure_tree())
    assert degrees == (4, 3, 3, 2, 1, 1, 1, 1, 1, 1)
    assert ordered

    degrees, ordered = degree_sequence_of(LabeledTree(3, [(1, 2), (2, 3)]))
    assert degrees == (1, 2, 1)
    assert not ordered

    degrees, ordered = degree_sequence_of(LabeledTree(2, [(1, 2)]))
    assert degrees == (1, 1)
    assert ordered


def test_bfs_levels_figure_tree():
    info = figure_tree().bfs_levels()
    assert info.level[1] == 0
    assert all(info.level[u] == 1 for u in (2, 3, 4, 5))
    assert all(info.level[u] == 2 for u in (6, 7, 8, 9, 10))
    assert info.order == tuple(range(1, 11))
    assert info.parent[6] == 2 and info.parent[10] == 4
    assert info.parent[1] == 0 and (info.level[0], info.parent[0]) == (-1, 0)
    assert len(info.level) == len(info.parent) == 11


def test_bfs_levels_small():
    assert LabeledTree(1, []).bfs_levels().level == (-1, 0)
    info = LabeledTree(2, [(1, 2)]).bfs_levels()
    assert info.level[2] == 1 and info.parent[2] == 1


def test_bfs_level_law():
    # parent of every non-root vertex sits one level higher
    for tree_edges in all_labeled_trees(6):
        info = LabeledTree(6, tree_edges).bfs_levels()
        for u in range(2, 7):
            assert info.level[info.parent[u]] == info.level[u] - 1


def test_prufer_code_validation():
    with pytest.raises(TreeError):
        PruferCode(1, ())
    with pytest.raises(TreeError):
        PruferCode(4, (1,))
    with pytest.raises(TreeError):
        PruferCode(4, (1, 5))


def test_prufer_encode_examples():
    assert prufer_encode(LabeledTree(2, [(1, 2)])).code == ()
    star = LabeledTree(4, [(1, 2), (1, 3), (1, 4)])
    assert prufer_encode(star).code == (1, 1)
    tree = LabeledTree(4, [(1, 2), (1, 3), (2, 4)])
    assert prufer_encode(tree).code == (1, 2)
    with pytest.raises(TreeError):
        prufer_encode(LabeledTree(1, []))


def test_prufer_decode_examples():
    assert prufer_decode(PruferCode(2, ())) == LabeledTree(2, [(1, 2)])
    assert prufer_decode(PruferCode(4, (1, 1))) == LabeledTree(4, [(1, 2), (1, 3), (1, 4)])
    assert prufer_decode(PruferCode(4, (1, 2))) == LabeledTree(4, [(1, 3), (1, 2), (2, 4)])


def test_prufer_degree_law():
    for code_tuple in product(range(1, 6), repeat=3):
        tree = prufer_decode(PruferCode(5, code_tuple))
        for u in range(1, 6):
            assert tree.degree(u) == code_tuple.count(u) + 1


def test_prufer_round_trip_exhaustive_small():
    for n in (2, 3, 4, 5):
        codes = list(product(range(1, n + 1), repeat=n - 2))
        decoded = [prufer_decode(PruferCode(n, c)) for c in codes]
        # decode is injective onto the full set of labeled trees
        assert len({t.edges for t in decoded}) == len(codes)
        assert {t.edges for t in decoded} == set(all_labeled_trees(n))
        for code_tuple, tree in zip(codes, decoded):
            assert prufer_encode(tree).code == code_tuple


def test_prufer_edges_match_heap_decoder():
    # same edges in the same order as the heap decoder, on every code with
    # 2 <= n <= 7, and neither argument is touched
    for n in range(2, 8):
        for code_tuple in product(range(1, n + 1), repeat=n - 2):
            degrees = tuple(code_tuple.count(u) + 1 for u in range(1, n + 1))
            code, degree_list = list(code_tuple), list(degrees)
            assert prufer_edges(code, degree_list) == heap_prufer_edges(n, code_tuple)
            assert code == list(code_tuple) and degree_list == list(degrees)


def test_prufer_against_networkx():
    # cross-check both directions against an independent implementation
    n = 6
    for code_tuple in product(range(1, n + 1), repeat=n - 2):
        mine = prufer_decode(PruferCode(n, code_tuple))
        reference = nx.from_prufer_sequence([x - 1 for x in code_tuple])
        ref_edges = {tuple(sorted((u + 1, v + 1))) for u, v in reference.edges()}
        assert set(mine.edges) == ref_edges
        ref_code = [x + 1 for x in nx.to_prufer_sequence(reference)]
        assert list(prufer_encode(mine).code) == ref_code


def test_equality_and_hash():
    a = LabeledTree(3, [(1, 2), (1, 3)])
    b = LabeledTree(3, [(3, 1), (2, 1)])
    c = LabeledTree(3, [(1, 2), (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_edges_cannot_be_assigned():
    # Trees are immutable: a constructed tree keeps the edges it sorted, and
    # a switched tree derives its own from its rows; neither can be replaced.
    path = LabeledTree(4, [(1, 2), (2, 3), (3, 4)])
    switched = apply_switch(path, SwitchPlan(1, 2, 3, 4))
    for tree, edges in ((path, ((1, 2), (2, 3), (3, 4))), (switched, ((1, 3), (2, 3), (2, 4)))):
        with pytest.raises(AttributeError):
            tree.edges = ((1, 4), (2, 4), (3, 4))
        assert tree.edges == edges


def test_edge_text_round_trip():
    tree = figure_tree()
    assert LabeledTree.from_edge_text(tree.to_edge_text()) == tree
    assert tree.to_edge_text().splitlines()[0] == "1 2"
    assert LabeledTree.from_edge_text("") == LabeledTree(1, [])
    assert LabeledTree.from_edge_text("1 2\n\n  \n2 3\n") == LabeledTree(3, [(1, 2), (2, 3)])


def test_edge_text_parse_errors():
    with pytest.raises(TreeError):
        LabeledTree.from_edge_text("1 2 3\n")
    with pytest.raises(TreeError):
        LabeledTree.from_edge_text("1 x\n")


def test_json_round_trip():
    tree = figure_tree()
    blob = json.dumps(tree.to_json_dict())
    assert LabeledTree.from_json_dict(json.loads(blob)) == tree
    assert tree.to_json_dict()["n"] == 10


def test_json_validation():
    with pytest.raises(TreeError):
        LabeledTree.from_json_dict({"edges": [[1, 2]]})
    with pytest.raises(TreeError):
        LabeledTree.from_json_dict({"n": 2, "edges": [[1]]})
    with pytest.raises(TreeError, match="'edges' must be a list"):
        LabeledTree.from_json_dict({"n": 2, "edges": "1 2"})


def test_dot_output():
    dot = figure_tree().to_dot()
    assert dot.startswith("graph {") and "1 -- 2;" in dot
    assert 'label="1\\ndeg=4, level=0"' in dot
    assert 'label="10\\ndeg=1, level=2"' in dot
