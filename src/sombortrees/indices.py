"""Sombor index, perturbed vertex scores, and the pseudo-Sombor index.

Sums run over edges in canonical order and are accumulated with
``math.fsum``, so equal multisets of edge terms produce bit-identical
results regardless of tree shape. ``ScoreAssignment`` is immutable: its
``__slots__`` base ``degseq._Value`` refuses assignment and deletion.
"""

import math

from .degseq import _Value
from .tree_core import LabeledTree


def _grid_shift(least: float) -> int:
    """The k of the power-of-two grid 2**-k on which every edge term
    hypot(w_a, w_b) over weights of at least ``least`` > 0 is an integer.

    A term is at least the smallest weight least = f * 2**E, 1/2 <= f < 1,
    up to its rounding, so its exponent is at least E - 1 and its last bit
    no finer than 2**(E - 54); k = 54 - E puts that bit on the grid. Integer
    sums on the grid are exact, and ``float(sum) * 2**-k`` rounds once, half
    to even, then scales by a power of two, so it carries the bits
    ``math.fsum`` gives for the terms."""
    return 54 - math.frexp(least)[1]


def sombor(tree: LabeledTree) -> float:
    """Sum of sqrt(deg(u)^2 + deg(v)^2) over all edges; 0 for one vertex.

    The tree's edges hold only validated labels, so the degrees are read
    off its adjacency by index, with no per-call label check."""
    adj = tree._adj
    return math.fsum(math.hypot(len(adj[u]), len(adj[v])) for u, v in tree.edges)


class ScoreAssignment(_Value):
    """Per-vertex scores deg(u) - u*q for a fixed positive constant q.

    ``values[u - 1]`` is the score of vertex u. For degree-ordered labelings
    with q <= 1/(2n) the exact scores are strictly decreasing in the label
    and the last score is at least 1/2, so no two vertices share a score;
    a q small enough to round equal-degree scores together breaks that.
    """

    __slots__ = __match_args__ = ("values",)

    def __init__(self, values: tuple[float, ...]):
        object.__setattr__(self, "values", values)

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
