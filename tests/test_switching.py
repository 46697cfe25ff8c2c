import math
import random
from itertools import chain, permutations, product

import pytest

from sombortrees import switching, tree_core
from sombortrees.degseq import DegreeSequence
from sombortrees.greedy import build_greedy
from sombortrees.indices import pseudo_sombor, score_assignment, sombor
from sombortrees.oracle import enumerate_trees, realizable_sequences, sample_tree
from sombortrees.switching import (
    DescentInvariantError,
    DescentTrace,
    SwitchError,
    SwitchPlan,
    SwitchSign,
    Violation,
    ViolationKind,
    _contract_scores,
    apply_switch,
    descend,
    find_violation,
    switch_sign,
)
from sombortrees.tree_core import (
    LabeledTree,
    PruferCode,
    TreeError,
    degree_sequence_of,
    prufer_decode,
)

# D = (3,2,2,1,1,1): the non-greedy shape with a long branch
SHAPE_B = LabeledTree(6, [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6)])
GREEDY_6 = build_greedy(DegreeSequence((3, 2, 2, 1, 1, 1)))


def test_plan_requires_distinct_vertices():
    with pytest.raises(SwitchError):
        SwitchPlan(1, 2, 1, 3)


def test_apply_switch_rejects_adjacent_endpoints():
    path = LabeledTree(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(SwitchError, match="must not be adjacent"):
        apply_switch(path, SwitchPlan(2, 1, 3, 4))


def test_apply_switch_rejects_missing_edge():
    path = LabeledTree(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(SwitchError, match="missing"):
        apply_switch(path, SwitchPlan(1, 3, 2, 4))
    with pytest.raises(SwitchError, match="required edge \\{1,4\\} is missing"):
        apply_switch(path, SwitchPlan(2, 3, 1, 4))


def test_apply_switch_rejects_non_tree_result():
    tree = LabeledTree(6, [(1, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
    with pytest.raises(SwitchError, match="does not produce a tree"):
        apply_switch(tree, SwitchPlan(5, 6, 1, 3))


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# apply_switch as it rebuilt and revalidated the whole switched tree, with
# its adjacency checks read off the edge set.
def _reference_apply_switch(tree: LabeledTree, plan: SwitchPlan) -> LabeledTree:
    edges = set(tree.edges)
    for a, b in ((plan.u, plan.v), (plan.w, plan.t)):
        if _pair(a, b) not in edges:
            raise SwitchError(f"required edge {{{a},{b}}} is missing")
    for a, b in ((plan.u, plan.w), (plan.v, plan.t)):
        if _pair(a, b) in edges:
            raise SwitchError(f"vertices {a} and {b} must not be adjacent")
    dropped = {_pair(plan.u, plan.v), _pair(plan.w, plan.t)}
    new_edges = [e for e in tree.edges if e not in dropped]
    new_edges += [_pair(plan.u, plan.w), _pair(plan.v, plan.t)]
    try:
        return LabeledTree(tree.n, new_edges)
    except TreeError as exc:
        raise SwitchError(f"switch {plan} does not produce a tree: {exc}") from exc


def test_apply_switch_matches_rebuilt_tree_exhaustive():
    # Every plan of four distinct labels on every degree-ordered labeled
    # tree with n <= 7, plus the plans that mix an edge's two ends with the
    # labels 0 and n + 1 outside the tree: the spliced successor equals a
    # freshly validated tree in its edges, neighbour rows and traversal,
    # and every plan the rebuild refuses is refused for the same reason.
    outcomes = set()
    for n in range(4, 8):
        for code in product(range(1, n + 1), repeat=n - 2):
            tree = prufer_decode(PruferCode(n, code))
            if not degree_sequence_of(tree)[1]:
                continue
            outside = permutations((*tree.edges[0], 0, n + 1))
            for labels in chain(permutations(range(1, n + 1), 4), outside):
                plan = SwitchPlan(*labels)
                try:
                    expected = _reference_apply_switch(tree, plan)
                except SwitchError as exc:
                    with pytest.raises(SwitchError) as refused:
                        apply_switch(tree, plan)
                    reason = str(exc).partition(":")[0]
                    assert str(refused.value).partition(":")[0] == reason
                    outcomes.add(reason.rpartition(" ")[2])
                    continue
                got = apply_switch(tree, plan)
                assert got.edges == expected.edges
                assert got._adj == expected._adj
                assert got.bfs_levels() == expected.bfs_levels()
                outcomes.add("switched")
    assert outcomes == {"missing", "adjacent", "tree", "switched"}


def test_bfs_levels_of_a_switched_tree_cannot_be_changed_by_a_caller():
    switched = apply_switch(SHAPE_B, SwitchPlan(3, 4, 1, 2))
    info = switched.bfs_levels()
    with pytest.raises(TypeError):
        info.level[4] = 99
    with pytest.raises(TypeError):
        info.parent[2] = 5
    assert switched.bfs_levels() == LabeledTree(6, switched.edges).bfs_levels()


def test_bfs_levels_hands_out_the_kept_traversal():
    switched = apply_switch(SHAPE_B, SwitchPlan(3, 4, 1, 2))
    for tree in (SHAPE_B, switched):
        assert tree.bfs_levels() is tree.bfs_levels()


def test_label_outside_the_tree_is_a_missing_edge():
    plan = SwitchPlan(1, 2, 5, 99)
    scores = score_assignment(GREEDY_6, 1 / 12)
    for call in (lambda: apply_switch(GREEDY_6, plan),
                 lambda: switch_sign(GREEDY_6, plan, scores)):
        with pytest.raises(SwitchError, match=r"^required edge \{5,99\} is missing$"):
            call()


def test_apply_switch_valid_example():
    switched = apply_switch(SHAPE_B, SwitchPlan(3, 4, 1, 2))
    assert set(switched.edges) == {(2, 3), (1, 5), (1, 6), (1, 3), (2, 4)}
    for u in range(1, 7):
        assert switched.degree(u) == SHAPE_B.degree(u)


def test_switch_sign_decrease_matches_direct_difference():
    scores = score_assignment(SHAPE_B, 1 / 12)
    plan = SwitchPlan(3, 2, 1, 5)
    sign, product = switch_sign(SHAPE_B, plan, scores)
    assert sign is SwitchSign.DECREASE
    assert product > 0
    switched = apply_switch(SHAPE_B, plan)
    assert pseudo_sombor(switched, scores) < pseudo_sombor(SHAPE_B, scores)


def test_switch_sign_tie_with_engineered_scores():
    # q = 1 puts vertices 3 and 4 on the same score, zeroing one factor. So
    # does q = 1e-17 <= 1/(2n) for the leaves 4 and 5, whose scores both
    # round to 1.0, on a degree-ordered tree.
    cases = [
        (LabeledTree(5, [(1, 2), (2, 3), (1, 4), (4, 5)]), 1.0, SwitchPlan(3, 2, 1, 4), (3, 4)),
        (LabeledTree(6, [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6)]), 1e-17,
         SwitchPlan(4, 3, 1, 5), (4, 5)),
    ]
    for tree, q, plan, (a, b) in cases:
        scores = score_assignment(tree, q)
        assert scores[a] == scores[b]
        sign, product = switch_sign(tree, plan, scores)
        assert sign is SwitchSign.TIE
        assert product == 0.0


def test_switch_sign_rejects_scores_of_another_length():
    star = LabeledTree(5, [(1, v) for v in range(2, 6)])
    with pytest.raises(ValueError, match="scores cover 5 vertices but the tree has 6"):
        switch_sign(SHAPE_B, SwitchPlan(3, 2, 1, 5), score_assignment(star, 1 / 10))


def test_switch_sign_randomized_equivalence():
    rng = random.Random(1783)
    checked = 0
    while checked < 300:
        n = rng.randint(4, 9)
        code = PruferCode(n, tuple(rng.randint(1, n) for _ in range(n - 2)))
        tree = prufer_decode(code)
        edges = list(tree.edges)
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) != 4:
            continue
        plan = SwitchPlan(a, b, c, d)
        scores = score_assignment(tree, 1 / (2 * n))
        try:
            switched = apply_switch(tree, plan)
        except SwitchError:
            continue
        sign, _ = switch_sign(tree, plan, scores)
        diff = pseudo_sombor(tree, scores) - pseudo_sombor(switched, scores)
        if sign is SwitchSign.DECREASE:
            assert diff > 0
        elif sign is SwitchSign.INCREASE:
            assert diff < 0
        else:
            pytest.fail("tie should be impossible for q <= 1/(2n)")
        checked += 1


def test_find_violation_none_on_greedy_trees():
    for seq in realizable_sequences(7):
        tree = build_greedy(seq)
        assert find_violation(tree, 1 / (2 * seq.n)) is None


def test_find_violation_none_on_single_edge():
    tree = LabeledTree(2, [(1, 2)])
    assert find_violation(tree, 0.25) is None


def test_find_violation_shape_b():
    scores = score_assignment(SHAPE_B, 1 / 12)
    violation = find_violation(SHAPE_B, 1 / 12)
    assert violation is not None
    assert violation.kind is ViolationKind.LEVEL_CASE_NONPARENT
    assert violation.plan == SwitchPlan(3, 2, 1, 5)
    sign, _ = switch_sign(SHAPE_B, violation.plan, scores)
    assert sign is SwitchSign.DECREASE


def test_find_violation_parent_case():
    # vertex 2 hangs below its out-scored parent 3
    tree = LabeledTree(5, [(1, 3), (3, 2), (2, 4), (1, 5)])
    violation = find_violation(tree, 1 / 10)
    assert violation is not None
    assert violation.kind is ViolationKind.LEVEL_CASE_PARENT
    assert violation.plan == SwitchPlan(2, 4, 1, 3)


def test_find_violation_descendant_chain_uses_child_swap():
    # alpha = 2 sits four levels below beta = 5; re-hanging alpha via its
    # parent would close a cycle inside beta's subtree, so the plan must
    # recycle a child of alpha instead.
    tree = LabeledTree(7, [(1, 5), (4, 5), (3, 4), (2, 3), (2, 6), (1, 7)])
    scores = score_assignment(tree, 1 / 14)
    violation = find_violation(tree, 1 / 14)
    assert violation is not None
    assert violation.kind is ViolationKind.LEVEL_CASE_GRANDCHILD
    assert violation.plan == SwitchPlan(2, 6, 1, 5)
    switched = apply_switch(tree, violation.plan)
    assert pseudo_sombor(switched, scores) < pseudo_sombor(tree, scores)


def test_find_violation_same_level_case():
    # level order is clean but the children of 2 and 3 are swapped
    tree = LabeledTree(5, [(1, 2), (1, 3), (3, 4), (2, 5)])
    violation = find_violation(tree, 1 / 10)
    assert violation is not None
    assert violation.kind is ViolationKind.SAME_LEVEL
    assert violation.plan == SwitchPlan(2, 5, 4, 3)
    assert apply_switch(tree, violation.plan) == build_greedy(DegreeSequence((2, 2, 2, 1, 1)))


def test_find_violation_rejects_q_outside_guarantee():
    tree = LabeledTree(2, [(1, 2)])
    with pytest.raises(ValueError, match="q must lie"):
        find_violation(tree, 0.4)


def test_find_violation_rejects_unordered_labels():
    path = LabeledTree(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="degree-ordered"):
        find_violation(path, 0.1)


def test_contract_refusal_matches_degree_order_exhaustive():
    # The contract reads label order off the scores; the slow reference
    # rescans the degrees. Over every labeled tree with n <= 7 at
    # q = 1/(2n) the two must refuse exactly the same trees.
    for n in range(2, 8):
        for code in product(range(1, n + 1), repeat=n - 2):
            tree = prufer_decode(PruferCode(n, code))
            ordered = degree_sequence_of(tree)[1]
            try:
                find_violation(tree, 1 / (2 * n))
            except ValueError as exc:
                assert "degree-ordered" in str(exc)
                assert not ordered
            else:
                assert ordered


def test_every_violation_plan_decreases_exhaustive():
    for seq in realizable_sequences(7):
        q = 1 / (2 * seq.n)
        for tree in enumerate_trees(seq):
            scores = score_assignment(tree, q)
            violation = find_violation(tree, q)
            if violation is None:
                continue
            sign, product = switch_sign(tree, violation.plan, scores)
            assert sign is SwitchSign.DECREASE
            assert product > 0


# The level-case plan built from the traversal's parent links and children
# lists, apart from the scan's reads of the neighbour rows, so that a misread
# row fails the comparison.
def _reference_level_violation(parent: tuple[int, ...], children: dict[int, list[int]],
                               alpha: int, beta: int) -> Violation:
    x = alpha
    while x not in (0, beta):
        x = parent[x]
    if x == beta:
        if parent[alpha] == beta:
            kind = ViolationKind.LEVEL_CASE_PARENT
        else:
            kind = ViolationKind.LEVEL_CASE_GRANDCHILD
        return Violation(kind, SwitchPlan(alpha, children[alpha][0], parent[beta], beta))
    return Violation(ViolationKind.LEVEL_CASE_NONPARENT,
                     SwitchPlan(alpha, parent[alpha], parent[beta], beta))


# The disorder scan as it read each score through ScoreAssignment.__getitem__,
# kept to pin the label comparisons of find_violation to it.
def _reference_find_violation(tree: LabeledTree, q: float) -> Violation | None:
    scores = _contract_scores(tree, q)
    info = tree.bfs_levels()
    depth = max(info.level)
    by_level: list[list[int]] = [[] for _ in range(depth + 1)]
    for u in range(1, tree.n + 1):
        by_level[info.level[u]].append(u)
    children: dict[int, list[int]] = {}
    for child in range(2, tree.n + 1):
        children.setdefault(info.parent[child], []).append(child)

    # Level pass: a deeper vertex out-scoring a shallower one. The root
    # carries the top score, so level 0 never witnesses and the repair
    # always has a parent above beta to use.
    suffix: list[list[int]] = [[] for _ in range(depth + 2)]
    for k in range(depth, 0, -1):
        suffix[k] = sorted(by_level[k] + suffix[k + 1])
    for j in range(1, depth):
        candidates = suffix[j + 1]
        for beta in by_level[j]:
            for alpha in candidates:
                if scores[alpha] > scores[beta]:
                    return _reference_level_violation(info.parent, children, alpha, beta)

    # Same-level pass: children misordered against their parents' scores.
    for group in by_level:
        if len(group) < 2:
            continue
        for a in group:
            kids_a = children.get(a)
            if not kids_a:
                continue
            for b in group:
                if b == a or not scores[a] > scores[b]:
                    continue
                kids_b = children.get(b)
                if not kids_b:
                    continue
                gamma = min(kids_a, key=lambda c: (scores[c], c))
                delta = min(kids_b, key=lambda c: (-scores[c], c))
                if scores[gamma] < scores[delta]:
                    return Violation(ViolationKind.SAME_LEVEL, SwitchPlan(a, gamma, delta, b))
    return None


def _assert_same_violation(tree: LabeledTree, q: float) -> Violation | None:
    got = find_violation(tree, q)
    assert got == _reference_find_violation(tree, q)
    return got


def test_find_violation_matches_reference_exhaustive():
    # Every degree-ordered labeled tree with n <= 7, at the largest q the
    # contract allows and at half of it.
    kinds = set()
    for n in range(2, 8):
        for code in product(range(1, n + 1), repeat=n - 2):
            tree = prufer_decode(PruferCode(n, code))
            if not degree_sequence_of(tree)[1]:
                continue
            for q in (1 / (2 * n), 1 / (4 * n)):
                if (violation := _assert_same_violation(tree, q)) is not None:
                    kinds.add(violation.kind)
    assert kinds == set(ViolationKind)


_N82 = (4,) * 10 + (3,) * 10 + (2,) * 30 + (1,) * 32
_N162 = (4,) * 20 + (3,) * 20 + (2,) * 60 + (1,) * 62
# Wider degree mixes, whose parents often hold three to six children on one
# level.
_N74 = (5,) * 8 + (4,) * 8 + (3,) * 8 + (1,) * 50
_N72 = (7,) * 4 + (6,) * 4 + (5,) * 4 + (2,) * 10 + (1,) * 50


@pytest.mark.parametrize(
    "degrees, seed",
    [pytest.param(_N82, seed, id=str(seed)) for seed in range(8)]
    + [pytest.param((3,) * 60 + (1,) * 62, 0, id="n122-seed0"),
       pytest.param(_N162, 0, id="n162-seed0")]
    + [pytest.param(_N74, seed, id=f"n74-seed{seed}") for seed in range(4)]
    + [pytest.param(_N72, seed, id=f"n72-seed{seed}") for seed in range(4)],
)
def test_find_violation_matches_reference_along_descent(degrees, seed):
    # Every step of a descent from a seeded random start tree: the eight
    # n = 82 start trees of a descend-random run with seed 0, one n = 122
    # start beyond the benchmark's size, the 1,150-step n = 162 descent
    # that CI pins as "Descent frontier", and four starts each of the two
    # wider degree mixes. The trace is replayed on trees rebuilt from their
    # edges: each step's violation is the reference scan's, and its running
    # SO and pSO are the rebuilt tree's to the bit.
    seq = DegreeSequence(degrees)
    tree = sample_tree(seq, random.Random(seed))
    q = 1 / (2 * seq.n)
    scores = score_assignment(tree, q)
    terminal, trace = descend(tree, q)
    assert trace.steps
    assert trace.steps[0].pso_before == pseudo_sombor(tree, scores)
    assert trace.steps[0].so_before == sombor(tree)
    for step in trace.steps:
        assert _assert_same_violation(tree, q) == Violation(step.kind, step.plan)
        tree = _reference_apply_switch(tree, step.plan)
        assert step.pso_after == pseudo_sombor(tree, scores)
        assert step.so_after == sombor(tree)
    assert _assert_same_violation(tree, q) is None
    assert tree == terminal == build_greedy(seq)


def _assert_descends_along_the_reference(tree: LabeledTree, q: float) -> DescentTrace:
    # descend's trace replayed on trees rebuilt from their edges: each
    # step's violation is the from-scratch reference scan's, and the last
    # tree is the greedy tree.
    terminal, trace = descend(tree, q)
    for step in trace.steps:
        assert _reference_find_violation(tree, q) == Violation(step.kind, step.plan)
        tree = _reference_apply_switch(tree, step.plan)
    assert _reference_find_violation(tree, q) is None
    assert tree == terminal == build_greedy(DegreeSequence(degree_sequence_of(tree)[0]))
    return trace


def test_every_degree_ordered_tree_up_to_9_descends_along_the_reference():
    # All 13,391 degree-ordered labeled trees with n <= 9: every resumed
    # scan of the descent returns the plan of a fresh reference scan.
    trees, kinds = 0, set()
    for seq in realizable_sequences(9):
        for tree in enumerate_trees(seq):
            trace = _assert_descends_along_the_reference(tree, 1 / (2 * seq.n))
            kinds |= {step.kind for step in trace.steps}
            trees += 1
    assert trees == 13_391
    assert kinds == set(ViolationKind)


def test_a_plan_the_scan_did_not_return_hands_on_no_state():
    # Along a descent, each tree is scanned, and then valid switches other
    # than the scan's, lowering pSO and raising it, go through
    # apply_switch: the successor's scan must be a fresh reference scan of
    # the successor rebuilt from its edges, whatever kind the tree's own
    # plan was.
    seq = DegreeSequence((4, 4, 3, 3, 3, 2, 2, 2) + (1,) * 9)
    q = 1 / (2 * seq.n)
    rng = random.Random(5)
    tree = sample_tree(seq, rng)
    signs, own_kinds = set(), set()
    while (own := find_violation(tree, q)) is not None:
        own_kinds.add(own.kind)
        tried = 0
        while tried < 12:
            (a, b), (c, d) = rng.sample(tree.edges, 2)
            try:
                plan = SwitchPlan(*rng.choice([(a, b, c, d), (b, a, c, d),
                                               (a, b, d, c), (b, a, d, c)]))
                successor = apply_switch(tree, plan)
            except SwitchError:
                continue
            if plan == own.plan:
                continue
            signs.add(switch_sign(tree, plan, score_assignment(tree, q))[0])
            rebuilt = LabeledTree(tree.n, successor.edges)
            assert find_violation(successor, q) == _reference_find_violation(rebuilt, q)
            tried += 1
        # switch_sign applies the own plan to check it, which moves the
        # state off the tree; the tree then scans afresh.
        switch_sign(tree, own.plan, score_assignment(tree, q))
        assert tree._scan is None
        assert find_violation(tree, q) == own
        tree = apply_switch(tree, own.plan)
    assert signs == {SwitchSign.DECREASE, SwitchSign.INCREASE}
    assert own_kinds >= {ViolationKind.SAME_LEVEL, ViolationKind.LEVEL_CASE_NONPARENT}


def test_a_descent_traverses_once(monkeypatch):
    # The start tree's scan runs the one traversal. No step runs one: a
    # same-level step hands on its state as it is, and a level step
    # re-levels it from its witness level. Each descent here holds a
    # LEVEL_CASE_PARENT or LEVEL_CASE_GRANDCHILD step, whose re-hung vertex
    # came from inside the subtree of the vertex it out-scores.
    calls = []
    real = tree_core._breadth_first

    def counted(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(tree_core, "_breadth_first", counted)
    for degrees, seed in ((_N82, 0), (_N82, 1), (_N74, 0), (_N72, 0)):
        seq = DegreeSequence(degrees)
        calls.clear()
        _, trace = descend(sample_tree(seq, random.Random(seed)), 1 / (2 * seq.n))
        kinds = {step.kind for step in trace.steps}
        assert kinds & {ViolationKind.LEVEL_CASE_PARENT, ViolationKind.LEVEL_CASE_GRANDCHILD}
        assert len(calls) == 1


def _descend_checking_handed_on_states(tree: LabeledTree, q: float) -> set[ViolationKind]:
    # Each step's successor derives its edges from the rows the switch
    # spliced, so they are checked against the predecessor's edges with the
    # plan's two edges swapped, and the successor against the tree those
    # edges validate to, in equality, hash and every neighbour row.
    # The successor also holds the state its switch handed on to it. Its
    # levels and level rows must be those a fresh scan builds from the
    # successor's own traversal, row for row, with no empty row past the
    # last level. The predecessor keeps no state, and scans afresh to the
    # reference's answer. At a same-level disorder the level pass is clear,
    # so every non-root label's smallest neighbour must be its parent: the
    # premise on which the same-level pass reads parents and children off
    # the rows.
    kinds = set()
    rebuilt = LabeledTree(tree.n, tree.edges)
    while (violation := find_violation(tree, q)) is not None:
        kinds.add(violation.kind)
        if violation.kind is ViolationKind.SAME_LEVEL:
            parent = rebuilt.bfs_levels().parent
            for u in range(2, tree.n + 1):
                assert rebuilt._adj[u][0] == parent[u]
        plan = violation.plan
        predecessor, tree = tree, apply_switch(tree, plan)
        assert predecessor._scan is None
        assert find_violation(predecessor, q) == _reference_find_violation(rebuilt, q)
        dropped = {_pair(plan.u, plan.v), _pair(plan.w, plan.t)}
        added = {_pair(plan.u, plan.w), _pair(plan.v, plan.t)}
        edges = tuple(sorted(set(predecessor.edges) - dropped | added))
        rebuilt = LabeledTree(tree.n, edges)
        assert tree.edges == edges
        assert tree == rebuilt and hash(tree) == hash(rebuilt)
        for u in range(tree.n + 1):
            assert tree._adj[u] == rebuilt._adj[u]
        state = tree._scan
        fresh = switching._fresh_scan(rebuilt.bfs_levels(), state.key, state.scores)
        assert state.level == fresh.level
        assert list(map(list, state.by_level)) == fresh.by_level
        assert state.by_level[-1]
    return kinds


def test_handed_on_state_matches_the_successors_traversal_along_descent():
    # The eight n = 82 start trees of a descend-random run with seed 0.
    seq = DegreeSequence(_N82)
    kinds = set()
    for seed in range(8):
        kinds |= _descend_checking_handed_on_states(sample_tree(seq, random.Random(seed)),
                                                    1 / (2 * seq.n))
    assert kinds == set(ViolationKind)


def test_handed_on_state_matches_the_successors_traversal_up_to_9():
    # Every step of the descent from each of the 13,391 degree-ordered
    # labeled trees with n <= 9.
    kinds = set()
    for seq in realizable_sequences(9):
        for tree in enumerate_trees(seq):
            kinds |= _descend_checking_handed_on_states(tree, 1 / (2 * seq.n))
    assert kinds == set(ViolationKind)


def _forge_nonparent_state(tree: LabeledTree, plan: SwitchPlan) -> None:
    tree._scan = switching._fresh_scan(tree.bfs_levels(), None, None)
    tree._scan.violation = Violation(ViolationKind.LEVEL_CASE_NONPARENT, plan)


def test_nonparent_hand_on_refuses_alpha_inside_betas_subtree():
    # alpha = 2 hangs three levels below beta = 6: 1 - 6 - 7 - 8 - 2, with
    # the leaves 3, 4 and 5 on the root. The plan (2, 8, 1, 6) re-hangs
    # alpha below beta's parent, as a LEVEL_CASE_NONPARENT plan would, and
    # closes the cycle 6 - 7 - 8 - 6. The re-level from beta's level 1
    # reaches 2, 3, 4 and 5 from the root and misses 6, 7 and 8.
    tree = LabeledTree(8, [(1, 6), (6, 7), (7, 8), (2, 8), (1, 3), (1, 4), (1, 5)])
    plan = SwitchPlan(2, 8, 1, 6)
    _forge_nonparent_state(tree, plan)
    with pytest.raises(SwitchError, match="traversal from level 0 misses 3 labels"):
        apply_switch(tree, plan)
    assert tree._scan is None


def test_contract_memo_keeps_no_verdict_across_trees_or_q():
    # A descent leaves its trees' scan states holding an accepted q; a tree
    # of the same size with unordered labels, or SHAPE_B at a refused q
    # right after its state accepted another, must still be refused, and
    # another accepted q must get its own scores.
    seq = DegreeSequence(_N82)
    descend(sample_tree(seq, random.Random(0)), 1 / (2 * seq.n))
    unordered = LabeledTree(seq.n, [(u, u + 1) for u in range(1, seq.n)])
    with pytest.raises(ValueError, match="degree-ordered"):
        find_violation(unordered, 1 / (2 * seq.n))
    assert find_violation(SHAPE_B, 1 / 12) is not None
    with pytest.raises(ValueError, match="too small for the descent"):
        find_violation(SHAPE_B, 1e-15)
    with pytest.raises(ValueError, match="too small for the descent"):
        _contract_scores(SHAPE_B, 1e-15)
    assert find_violation(SHAPE_B, 1 / 24) == find_violation(SHAPE_B, 1 / 12)
    assert SHAPE_B._scan.scores == score_assignment(SHAPE_B, 1 / 12)
    assert _contract_scores(SHAPE_B, 1 / 12) == score_assignment(SHAPE_B, 1 / 12)
    assert _contract_scores(SHAPE_B, 1 / 24) == score_assignment(SHAPE_B, 1 / 24)
    assert _contract_scores(GREEDY_6, 1 / 24) == score_assignment(GREEDY_6, 1 / 24)


def test_contract_refuses_q_whose_switch_gain_floating_point_cannot_resolve():
    # At q = 1e-15 the scores of SHAPE_B are still apart, but its first
    # switch leaves the fsum-rounded pSO unchanged.
    with pytest.raises(ValueError, match="too small for the descent"):
        descend(SHAPE_B, 1e-15)
    with pytest.raises(ValueError, match="too small for the descent"):
        find_violation(SHAPE_B, 1e-15)


def test_contract_accepts_the_default_q_at_300_vertices_with_a_hub():
    # A floor on the switch gain over every score in [1/2, d_max] would
    # refuse both. The star has no switch; on 298, 2, 1^298 a gap of q
    # between two leaves meets the hub's score only across a gap of about
    # 296, and no two leaves can share an edge.
    star = LabeledTree(300, [(1, v) for v in range(2, 301)])
    terminal, trace = descend(star, 1 / 600)
    assert terminal == star
    assert trace.steps == ()
    seq = DegreeSequence((298, 2) + (1,) * 298)
    terminal, trace = descend(sample_tree(seq, random.Random(0)), 1 / 600)
    assert terminal == build_greedy(seq)


def test_descend_completes_at_every_accepted_q_exhaustive():
    # Every degree-ordered labeled tree with n <= 7, at every q of a
    # halving grid from 1/(2n) that the contract accepts; the rule depends
    # on the degrees alone, so each class is asked once. Each class's grid
    # reaches below the least accepted q.
    for seq in realizable_sequences(7):
        greedy = build_greedy(seq)
        grid = [1 / (2 * seq.n) * 2.0 ** -k for k in range(60)]
        accepted = []
        for q in grid:
            try:
                _contract_scores(greedy, q)
            except ValueError:
                continue
            accepted.append(q)
        assert accepted[0] == grid[0] and accepted[-1] > grid[-1]
        for tree in enumerate_trees(seq):
            for q in accepted:
                assert descend(tree, q)[0] == greedy


def test_descend_fixed_point():
    terminal, trace = descend(GREEDY_6, 1 / 12)
    assert terminal == GREEDY_6
    assert trace.steps == ()


def test_descend_shape_b():
    terminal, trace = descend(SHAPE_B, 1 / 12)
    assert terminal == GREEDY_6
    assert set(terminal.edges) == {(1, 2), (1, 3), (1, 4), (2, 5), (3, 6)}
    assert len(trace.steps) >= 1
    expected_so = 2 * math.sqrt(13) + math.sqrt(10) + 2 * math.sqrt(5)
    assert sombor(terminal) == pytest.approx(expected_so, abs=1e-9)
    psos = [trace.steps[0].pso_before] + [s.pso_after for s in trace.steps]
    assert all(a > b for a, b in zip(psos, psos[1:]))


def test_descend_parent_then_same_level_chain():
    tree = LabeledTree(5, [(1, 3), (3, 2), (2, 4), (1, 5)])
    terminal, trace = descend(tree, 1 / 10)
    assert terminal == build_greedy(DegreeSequence((2, 2, 2, 1, 1)))
    kinds = [s.kind for s in trace.steps]
    assert kinds[0] is ViolationKind.LEVEL_CASE_PARENT


def test_descend_deep_chain():
    tree = LabeledTree(8, [(1, 3), (1, 8), (3, 4), (4, 5), (5, 2), (2, 6), (6, 7)])
    terminal, trace = descend(tree, 1 / 16)
    assert terminal == build_greedy(DegreeSequence((2, 2, 2, 2, 2, 2, 1, 1)))
    assert ViolationKind.LEVEL_CASE_GRANDCHILD in {s.kind for s in trace.steps}


def test_descend_requires_degree_ordered_labels():
    with pytest.raises(ValueError, match="degree-ordered"):
        descend(LabeledTree(3, [(1, 2), (2, 3)]), 0.1)


def test_descend_requires_q_in_range():
    with pytest.raises(ValueError, match="q must lie"):
        descend(GREEDY_6, 0.2)
    with pytest.raises(ValueError, match="q must lie"):
        descend(GREEDY_6, 0.0)


def test_descend_single_vertex_requires_q_in_range():
    with pytest.raises(ValueError, match="q must lie"):
        descend(LabeledTree(1, []), 0.75)


def test_descend_single_vertex():
    k1 = LabeledTree(1, [])
    terminal, trace = descend(k1, 0.5)
    assert terminal == k1
    assert trace.steps == ()


def test_descend_trace_json_shape():
    _, trace = descend(SHAPE_B, 1 / 12)
    blob = trace.to_json()
    assert isinstance(blob, list) and len(blob) == len(trace.steps)
    first = blob[0]
    assert set(first) == {
        "u", "v", "w", "t", "kind", "pso_before", "pso_after", "so_before", "so_after",
    }
    assert first["pso_after"] < first["pso_before"]
    assert first["kind"] in {k.value for k in ViolationKind}


def test_descent_invariant_error_is_runtime_error():
    assert issubclass(DescentInvariantError, RuntimeError)


# Each of descend's three checks, with a fault put where it looks.


def test_descend_refuses_to_stop_short_of_the_greedy_tree(monkeypatch):
    monkeypatch.setattr(switching, "find_violation", lambda tree, q: None)
    with pytest.raises(DescentInvariantError, match="descent stalled"):
        descend(SHAPE_B, 1 / 12)


def test_descend_refuses_a_switch_that_does_not_lower_pso(monkeypatch):
    monkeypatch.setattr(switching, "_switch_gain", lambda grid, plan: 0)
    with pytest.raises(DescentInvariantError, match="switch failed to lower"):
        descend(SHAPE_B, 1 / 12)


def test_descend_checks_its_running_sums_on_the_terminal_tree(monkeypatch):
    real = switching.sombor
    monkeypatch.setattr(switching, "sombor", lambda tree: real(tree) + 1.0)
    with pytest.raises(DescentInvariantError, match="running sums .* drifted"):
        descend(SHAPE_B, 1 / 12)
