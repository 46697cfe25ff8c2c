import math
import random
from collections import Counter

import pytest

from sombortrees.degseq import DegreeSequence
from sombortrees.greedy import build_greedy
from sombortrees.indices import ScoreAssignment, pseudo_sombor, score_assignment, sombor
from sombortrees.oracle import (
    DEFAULT_VALUE_TOLERANCE,
    SpectrumSummary,
    compute_q,
    enumerate_trees,
    realizable_sequences,
    sample_tree,
    sombor_spectrum,
)
from sombortrees.tree_core import LabeledTree

EDGE = LabeledTree(2, [(1, 2)])
FIGURE = LabeledTree(
    10, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9), (4, 10)]
)


def test_sombor_single_edge():
    assert sombor(EDGE) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_sombor_star():
    star = LabeledTree(4, [(1, 2), (1, 3), (1, 4)])
    assert sombor(star) == pytest.approx(3 * math.sqrt(10), abs=1e-12)


def test_sombor_figure_tree():
    # hand-summed: two (4,3) edges, one (4,2), one (4,1), four (3,1), one (2,1)
    expected = 10 + 3 * math.sqrt(5) + math.sqrt(17) + 4 * math.sqrt(10)
    assert sombor(FIGURE) == pytest.approx(expected, abs=1e-12)


def test_sombor_single_vertex():
    assert sombor(LabeledTree(1, [])) == 0.0


def test_score_assignment_single_edge():
    scores = score_assignment(EDGE, 0.25)
    assert scores[1] == pytest.approx(0.75, abs=1e-15)
    assert scores[2] == pytest.approx(0.5, abs=1e-15)


def test_score_assignment_figure_tree():
    scores = score_assignment(FIGURE, 1 / 20)
    assert scores[1] == pytest.approx(3.95, abs=1e-12)
    assert scores[10] == pytest.approx(0.5, abs=1e-12)
    assert scores.strictly_decreasing


def test_scores_below_degrees():
    scores = score_assignment(FIGURE, 0.01)
    for u in range(1, 11):
        assert scores[u] < FIGURE.degree(u)


def test_score_assignment_rejects_nonpositive_q():
    for q in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            score_assignment(EDGE, q)


def test_score_indexing_bounds():
    scores = score_assignment(EDGE, 0.25)
    with pytest.raises(IndexError):
        scores[0]
    with pytest.raises(IndexError):
        scores[3]


def test_pseudo_sombor_single_edge():
    scores = score_assignment(EDGE, 0.25)
    assert pseudo_sombor(EDGE, scores) == pytest.approx(math.sqrt(0.8125), abs=1e-12)


def test_pseudo_sombor_below_sombor():
    for q in (0.01, 0.05, 1 / 20):
        scores = score_assignment(FIGURE, q)
        assert pseudo_sombor(FIGURE, scores) < sombor(FIGURE)


def test_pseudo_sombor_single_vertex():
    k1 = LabeledTree(1, [])
    assert pseudo_sombor(k1, score_assignment(k1, 0.5)) == 0.0


def test_pseudo_sombor_size_mismatch():
    with pytest.raises(ValueError):
        pseudo_sombor(FIGURE, score_assignment(EDGE, 0.25))


def test_spectrum_summary_validation():
    with pytest.raises(ValueError):
        SpectrumSummary((), ())
    with pytest.raises(ValueError):
        SpectrumSummary((1.0, 1.0), (1, 1))
    with pytest.raises(ValueError):
        SpectrumSummary((1.0, 2.0), (1,))
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        SpectrumSummary((1.0,), (0,))
    summary = SpectrumSummary((1.0, 2.0), (3, 4))
    assert summary.z1 == 1.0
    assert summary.z2 == 2.0
    assert summary.tree_count == 7
    assert SpectrumSummary((1.0,), (2,)).z2 is None


def test_compute_q_single_value_class():
    q = compute_q(DegreeSequence((1, 1)), SpectrumSummary((math.sqrt(2),), (1,)))
    assert q.value == pytest.approx(0.25)
    assert q.branch == "single-value"


def test_compute_q_spectrum_gap():
    seq = DegreeSequence((3, 2, 2, 1, 1, 1))
    spectrum = sombor_spectrum(seq)
    z1 = 2 * math.sqrt(13) + math.sqrt(10) + 2 * math.sqrt(5)
    z2 = math.sqrt(13) + 2 * math.sqrt(2) + math.sqrt(5) + 2 * math.sqrt(10)
    assert spectrum.z1 == pytest.approx(z1, abs=1e-9)
    assert spectrum.z2 == pytest.approx(z2, abs=1e-9)
    q = compute_q(seq, spectrum)
    assert q.branch == "spectrum-gap"
    assert q.value == pytest.approx(min(1 / 12, (z2 - z1) / (864 * math.sqrt(2))), rel=1e-12)


def test_compute_q_rejects_single_vertex():
    with pytest.raises(ValueError):
        compute_q(DegreeSequence((0,)), SpectrumSummary((0.0,), (1,)))


def test_greedy_tree_score_monotonicity():
    # degree-ordered labelings with q <= 1/(2n) always order the scores
    for degrees in [(1, 1), (2, 2, 1, 1), (4, 3, 3, 2, 1, 1, 1, 1, 1, 1)]:
        tree = build_greedy(DegreeSequence(degrees))
        n = len(degrees)
        scores = score_assignment(tree, 1 / (2 * n))
        assert scores.strictly_decreasing
        assert scores[n] >= 0.5 - 1e-12


def test_default_tolerance_value():
    assert DEFAULT_VALUE_TOLERANCE == 1e-9


def test_score_assignment_type_roundtrip():
    scores = score_assignment(EDGE, 0.25)
    assert isinstance(scores, ScoreAssignment)
    assert scores.n == 2
    assert scores.values == (0.75, 0.5)


def reference_sombor(tree):
    """``sombor`` through the label-checked ``degree`` accessor, kept as the
    reference for the reads off the adjacency."""
    return math.fsum(math.hypot(tree.degree(u), tree.degree(v)) for u, v in tree.edges)


def reference_score_assignment(tree, q):
    return ScoreAssignment(tuple(tree.degree(u) - u * q for u in range(1, tree.n + 1)))


def reference_pseudo_sombor(tree, scores):
    return math.fsum(math.hypot(scores[u], scores[v]) for u, v in tree.edges)


def _parity_trees():
    """Every tree of every class with n <= 8, then seeded uniform draws from
    the classes of random Prufer codes up to n = 300."""
    yield LabeledTree(1, [])
    for seq in realizable_sequences(8):
        yield from enumerate_trees(seq)
    rng = random.Random(2022)
    for n in (20, 60, 150, 300):
        for _ in range(3):
            code = Counter(rng.randrange(1, n + 1) for _ in range(n - 2))
            degrees = sorted((code[u] + 1 for u in range(1, n + 1)), reverse=True)
            yield sample_tree(DegreeSequence(tuple(degrees)), rng)


def test_indices_match_the_label_checked_reference():
    # Reading degrees and scores by index must give the bits of the
    # per-edge accessor formulation, at two q on every tree.
    for tree in _parity_trees():
        assert sombor(tree).hex() == reference_sombor(tree).hex(), tree
        for q in (1 / (2 * tree.n), 1e-3 / tree.n**3):
            scores = score_assignment(tree, q)
            reference = reference_score_assignment(tree, q)
            assert [*map(float.hex, scores.values)] == [*map(float.hex, reference.values)]
            assert (
                pseudo_sombor(tree, scores).hex() == reference_pseudo_sombor(tree, scores).hex()
            ), tree
