"""Sombor index, perturbed vertex scores, and the pseudo-Sombor index.

Sums run over edges in canonical order and are accumulated with
``math.fsum``, so equal multisets of edge terms produce bit-identical
results regardless of tree shape; ``_Grid`` keeps such sums exact as
integers where they are updated or shared. ``ScoreAssignment`` is
immutable: its ``__slots__`` base ``degseq._Value`` refuses assignment and
deletion.
"""

import math
from collections.abc import Sequence

from .degseq import _Value
from .tree_core import LabeledTree


class _Grid:
    """The exact-sum grid of the spectrum, the sandwich and the descent.

    Every edge term hypot(w_a, w_b), a < b, over positive label weights
    (label a's at ``weights[a - 1]``) is an integer on the power-of-two grid
    ``scale`` = 2**-shift. So a sum of terms is an exact integer, and
    ``value`` rounds it once, half to even, then scales it by a power of
    two: that is the correctly rounded sum ``math.fsum`` returns, with the
    bits of ``sombor`` and ``pseudo_sombor``. The smaller label's weight goes
    first, as those two sum an edge.

    The shift comes from ``least`` (default: the least weight), which is at
    most every weight, so grids built with one ``least`` share it. A term is
    at least least = f * 2**E, 1/2 <= f < 1, up to its rounding, so its
    exponent is at least E - 1 and its last bit no finer than 2**(E - 54);
    shift = 54 - E puts that bit on the grid.

    A term goes onto the grid through ``math.ldexp``, exact while the
    scaled term stays finite: a term is below 2 * w_max and 2**-E < 1 /
    least, so on the grid it is below 2**55 * w_max / least, finite for
    w_max / least < 2**969. Degrees, and scores between 1/2 and n, always
    are; past that range ``ldexp`` raises ``OverflowError``."""

    __slots__ = ("weights", "shift", "scale")

    def __init__(self, weights: Sequence[float], least: float | None = None):
        self.weights = (0.0, *weights)
        self.shift = 54 - math.frexp(min(weights) if least is None else least)[1]
        self.scale = math.ldexp(1.0, -self.shift)

    def term(self, a: int, b: int) -> int:
        """The term of the edge {a, b} on the grid."""
        w = self.weights
        return int(math.ldexp(math.hypot(w[a], w[b]) if a < b else math.hypot(w[b], w[a]),
                              self.shift))

    def switch_gain(self, u: int, v: int, w: int, t: int) -> int:
        """term(u, w) + term(v, t) - term(u, v) - term(w, t): the exact
        change of a sum of terms when {u,v}, {w,t} become {u,w}, {v,t}.
        Each term is computed as ``term`` computes it."""
        x, y, z, r = self.weights[u], self.weights[v], self.weights[w], self.weights[t]
        hypot, ldexp, shift = math.hypot, math.ldexp, self.shift
        return (int(ldexp(hypot(x, z) if u < w else hypot(z, x), shift))
                + int(ldexp(hypot(y, r) if v < t else hypot(r, y), shift))
                - int(ldexp(hypot(x, y) if u < v else hypot(y, x), shift))
                - int(ldexp(hypot(z, r) if w < t else hypot(r, z), shift)))

    def value(self, total: int) -> float:
        """The float of an exact sum of terms: one rounding, then the scale."""
        return float(total) * self.scale


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
