import json
import tracemalloc
from itertools import product

import networkx as nx
import pytest

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
    assert 1 not in info.parent


def test_bfs_levels_small():
    assert LabeledTree(1, []).bfs_levels().level == {1: 0}
    info = LabeledTree(2, [(1, 2)]).bfs_levels()
    assert info.level[2] == 1 and info.parent[2] == 1


def test_bfs_level_law():
    # parent of every non-root vertex sits one level higher
    for tree_edges in all_labeled_trees(6):
        info = LabeledTree(6, tree_edges).bfs_levels()
        for u, p in info.parent.items():
            assert info.level[p] == info.level[u] - 1


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
