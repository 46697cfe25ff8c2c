"""Sombor index, perturbed vertex scores, and the pseudo-Sombor index.

Sums run over edges in canonical order and are accumulated with
``math.fsum``, so equal multisets of edge terms produce bit-identical
results regardless of tree shape.
"""

import math
from dataclasses import dataclass

from .tree_core import LabeledTree


def sombor(tree: LabeledTree) -> float:
    """Sum of sqrt(deg(u)^2 + deg(v)^2) over all edges; 0 for one vertex.

    The tree's edges hold only validated labels, so the degrees are read
    off its adjacency by index, with no per-call label check."""
    adj = tree._adj
    return math.fsum(math.hypot(len(adj[u]), len(adj[v])) for u, v in tree.edges)


@dataclass(frozen=True)
class ScoreAssignment:
    """Per-vertex scores deg(u) - u*q for a fixed positive constant q.

    ``values[u - 1]`` is the score of vertex u. For degree-ordered labelings
    with q <= 1/(2n) the exact scores are strictly decreasing in the label
    and the last score is at least 1/2, so no two vertices share a score;
    a q small enough to round equal-degree scores together breaks that.
    """

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, u: int) -> float:
        if not 1 <= u <= self.n:
            raise IndexError(f"vertex {u} out of range 1..{self.n}")
        return self.values[u - 1]

    @property
    def strictly_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.values, self.values[1:]))


def score_assignment(tree: LabeledTree, q: float) -> ScoreAssignment:
    """Scores deg(u) - u*q for every vertex of the tree; q must be finite
    and positive."""
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be finite and positive, got {q}")
    values = tuple(len(nbrs) - u * q for u, nbrs in enumerate(tree._adj[1:], start=1))
    return ScoreAssignment(values)


def pseudo_sombor(tree: LabeledTree, scores: ScoreAssignment) -> float:
    """Sombor sum with vertex scores in place of degrees."""
    if scores.n != tree.n:
        raise ValueError(
            f"scores cover {scores.n} vertices but the tree has {tree.n}"
        )
    w = (0.0, *scores.values)
    return math.fsum(math.hypot(w[u], w[v]) for u, v in tree.edges)
