"""Greedy tree construction for a prescribed degree sequence."""

from .degseq import DegreeSequence, require_tree_realizable
from .tree_core import LabeledTree


def build_greedy(seq: DegreeSequence) -> LabeledTree:
    """Build the unique tree whose breadth-first traversal is 1, 2, ..., n.

    Vertex 1 receives the next d_1 unused labels as children, then every
    later vertex u receives the next d_u - 1 labels, filling levels left to
    right. The resulting tree has deg(u) = d_u for every label u; the
    one-vertex sequence (0,) yields the single-vertex tree.
    """
    require_tree_realizable(seq)
    n = seq.n
    edges = []
    next_child = 2
    parent = 1
    while next_child <= n:
        # The capacities sum to n - 1, so no parent runs past label n.
        capacity = seq.degrees[parent - 1] - (0 if parent == 1 else 1)
        for _ in range(capacity):
            edges.append((parent, next_child))
            next_child += 1
        parent += 1
    return LabeledTree(n, edges)
