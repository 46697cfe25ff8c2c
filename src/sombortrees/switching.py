"""Degree-preserving edge switches and the descent to the greedy tree.

A switch replaces edges {u,v}, {w,t} by {u,w}, {v,t}; it keeps every vertex
degree, and whether it lowers the pseudo-Sombor index is decided by the sign
of (scr(u) - scr(t)) * (scr(w) - scr(v)). ``find_violation`` locates a
score/level disorder together with a disorder-removing switch, and
``descend`` applies such switches until none remains, which for a
degree-ordered labeling leaves exactly the greedy tree. Under the descent's
contract scores strictly decrease in the label, so the scan compares labels.
A descent step rebuilds nothing that its switch keeps: the scan's state
moves from each tree to its successor (see ``find_violation`` and
``apply_switch``).
"""

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from enum import Enum

from .degseq import DegreeSequence, _Value
from .greedy import build_greedy
from .indices import ScoreAssignment, _Grid, pseudo_sombor, sombor, score_assignment
from .tree_core import BfsLevels, LabeledTree, degree_sequence_of


class SwitchError(ValueError):
    """The switch plan cannot be applied to the given tree."""


class DescentInvariantError(RuntimeError):
    """A descent step broke one of its guarantees."""


class SwitchSign(Enum):
    DECREASE = "decrease"
    INCREASE = "increase"
    TIE = "tie"


class ViolationKind(Enum):
    LEVEL_CASE_PARENT = "LEVEL_CASE_PARENT"
    LEVEL_CASE_NONPARENT = "LEVEL_CASE_NONPARENT"
    LEVEL_CASE_GRANDCHILD = "LEVEL_CASE_GRANDCHILD"
    SAME_LEVEL = "SAME_LEVEL"


class SwitchPlan(_Value):
    """Replace edges {u,v} and {w,t} by {u,w} and {v,t}.

    Requires u~v, w~t, u!~w, v!~t in the source tree, and the replacement
    must leave a tree; both are checked by ``apply_switch``.
    """

    __slots__ = __match_args__ = ("u", "v", "w", "t")

    def __init__(self, u: int, v: int, w: int, t: int):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "t", t)
        if len({u, v, w, t}) != 4:
            raise SwitchError(
                f"switch vertices must be four distinct labels, got ({u}, {v}, {w}, {t})"
            )


class Violation(_Value):
    """A located disorder: its kind and the switch that removes it while
    strictly lowering the pseudo index."""

    __slots__ = __match_args__ = ("kind", "plan")

    def __init__(self, kind: ViolationKind, plan: SwitchPlan):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "plan", plan)


def _require_plan_applies(tree: LabeledTree, plan: SwitchPlan) -> None:
    # A label outside 1..n (an int, not a bool) has no edge. The two
    # required edges name each of the four labels once, so such a plan is
    # refused before the adjacency tests read the neighbour rows.
    n, adj = tree.n, tree._adj
    for a, b in ((plan.u, plan.v), (plan.w, plan.t)):
        if not (isinstance(a, int) and not isinstance(a, bool) and 1 <= a <= n
                and isinstance(b, int) and not isinstance(b, bool) and 1 <= b <= n
                and b in adj[a]):
            raise SwitchError(f"required edge {{{a},{b}}} is missing")
    for a, b in ((plan.u, plan.w), (plan.v, plan.t)):
        if b in adj[a]:
            raise SwitchError(f"vertices {a} and {b} must not be adjacent")


def apply_switch(tree: LabeledTree, plan: SwitchPlan) -> LabeledTree:
    """Carry out the switch; every vertex keeps its degree.

    Once the plan's four adjacency checks pass, the switched edge set has
    n - 1 distinct edges, so it is a tree exactly when it is connected. The
    new tree is made from the four neighbour rows the switch changes, and
    reads its edges off its rows when they are first asked for (see
    ``LabeledTree._switched``).

    When ``plan`` is the plan that the tree's own scan returned, the scan's
    state moves to the new tree (see ``find_violation``) and the tree keeps
    none, so a later scan of the tree, as after ``switch_sign`` on that
    plan, starts afresh. The state then proves the new tree a tree:

    - A SAME_LEVEL plan (a, gamma, delta, b) needs no edit. Here a and b
      are distinct vertices on one level j, with children gamma and delta.
      Dropping {a, gamma} and {delta, b} leaves three parts: the subtrees
      of gamma and delta, which lie below level j, and the rest, which
      holds the root, a and b. {a, delta} and {gamma, b} each join one
      subtree to the rest, so the result is a tree in which every vertex
      keeps its level. The state holds no parent or child, so its levels,
      level rows and cursor stay valid, and the same-level pass resumes at
      parent a of level j's group, with the group's suffix minima (see
      ``_Scan``).
    - A level plan is re-levelled from its witness level j (see
      ``_relevel``), which refuses it unless the result is a tree, and the
      level pass resumes at j.

    For any other plan one traversal from vertex 1 decides whether the
    result is a tree, the new tree keeps that traversal, and its first scan
    starts afresh."""
    _require_plan_applies(tree, plan)
    scan = tree._scan
    found = scan.violation if scan is not None else None
    own = found is not None and (plan is found.plan or plan == found.plan)
    successor = tree._switched(plan.u, plan.v, plan.w, plan.t)
    if not own:
        info = successor.bfs_levels()
        if len(info.order) < tree.n:
            raise SwitchError(
                f"switch {plan} does not produce a tree: vertex 1 reaches "
                f"{len(info.order)} of {tree.n} labels, so the edges close a cycle"
            )
        return successor
    tree._scan = scan.violation = None
    if found.kind is not ViolationKind.SAME_LEVEL:
        _relevel(scan, successor._adj, plan)
    successor._scan = scan
    return successor


def switch_sign(
    tree: LabeledTree, plan: SwitchPlan, scores: ScoreAssignment
) -> tuple[SwitchSign, float]:
    """Closed-form sign of pSO(T) - pSO(T') for the switched tree T'.

    DECREASE means the switch strictly lowers the pseudo index. Returns the
    product (scr(u) - scr(t)) * (scr(w) - scr(v)) alongside the sign. A TIE
    (zero product) cannot occur while the four scores stay distinct as
    floats, which ``_contract_scores`` checks; q <= 1/(2n) alone does not
    ensure it, since a small enough q rounds scores of one degree together.
    """
    apply_switch(tree, plan)  # full validation, result discarded
    if scores.n != tree.n:
        raise ValueError(f"scores cover {scores.n} vertices but the tree has {tree.n}")
    product = (scores[plan.u] - scores[plan.t]) * (scores[plan.w] - scores[plan.v])
    if product > 0:
        return SwitchSign.DECREASE, product
    if product < 0:
        return SwitchSign.INCREASE, product
    return SwitchSign.TIE, product


def _parent(adj: Sequence[Sequence[int]], level: Sequence[int], x: int) -> int:
    """The neighbour of the non-root vertex x one level up."""
    up = level[x] - 1
    for v in adj[x]:
        if level[v] == up:
            return v


def _level_violation(
    adj: Sequence[Sequence[int]], level: Sequence[int], alpha: int, beta: int
) -> Violation:
    # alpha out-scores beta, so alpha < beta and deg(alpha) >= deg(beta).
    # In the two cases that recycle a child of alpha, beta has a parent and
    # a child, so deg(alpha) >= 2 and alpha has a child below it.
    gamma = _parent(adj, level, beta)
    # alpha lies below beta's level j, and lies in beta's subtree exactly
    # when the walk up from alpha to level j ends at beta.
    x, j = alpha, level[beta]
    while level[x] > j:
        x = _parent(adj, level, x)
    if x == beta:
        # alpha is beta's child, or sits at depth >= 2 inside beta's subtree.
        # Swapping via alpha's parent would then repeat beta or reconnect two
        # vertices of that subtree and close a cycle, so recycle alpha's
        # smallest child instead: its smallest neighbour one level down.
        if _parent(adj, level, alpha) == beta:
            kind = ViolationKind.LEVEL_CASE_PARENT
        else:
            kind = ViolationKind.LEVEL_CASE_GRANDCHILD
        child = next(v for v in adj[alpha] if level[v] > level[alpha])
        return Violation(kind, SwitchPlan(alpha, child, gamma, beta))
    return Violation(
        ViolationKind.LEVEL_CASE_NONPARENT,
        SwitchPlan(alpha, _parent(adj, level, alpha), gamma, beta),
    )


def _least_switch_gain(tree: LabeledTree, values: tuple[float, ...], gaps: list[float]) -> float:
    """A lower bound on the exact drop of the pseudo index over the scores
    ``values`` under any switch with (scr(u) - scr(t)) * (scr(w) - scr(v))
    > 0 in a tree with the tree's degrees; inf when no switch exists. The
    scores must strictly decrease in the label, and ``gaps`` holds the
    differences of consecutive ones.

    The drop is the integral of g(x, y) = xy / hypot(x, y)^3 over the box
    spanned by scr(t), scr(u) and scr(v), scr(w). Along either axis g rises
    and then falls, so its least value on the box sits at a corner, and each
    corner pairs the two scores of an edge before or after the switch:
    {u,v}, {w,t}, {u,w} or {v,t}. The labels of one degree hold a run of
    scores [lo, hi]. For an edge between runs r and s, g >= lo_r lo_s /
    hypot(hi_r, hi_s)^3, and each side of the box is at least the least
    gap between a score of the edge's run on that side and any other score.
    An edge joins two labels of one run only if the run holds two labels of
    degree 2 or more: two leaves are never adjacent."""
    if tree.n < 2 or len(tree._adj[2]) < 2:
        # A switch needs two disjoint edges, so two labels of degree 2 or
        # more; a star's edges all share its centre.
        return math.inf
    runs = []  # per degree: lo, hi, least gap to another score, whether it holds an edge
    start = 0
    while start < tree.n:
        degree = len(tree._adj[start + 1])
        # The scores of one degree lie in (degree - 1, degree).
        end = bisect_left(values, 1 - degree, start, key=operator.neg)
        gap = min(gaps[max(start - 1, 0):end])
        runs.append((values[end - 1], values[start], gap, degree > 1 and end - start > 1))
        start = end
    gain = math.inf
    for i, (lo_r, hi_r, gap_r, inner) in enumerate(runs):
        for lo_s, hi_s, gap_s, _ in runs[i if inner else i + 1:]:
            gain = min(gain, gap_r * gap_s * lo_r * lo_s / math.hypot(hi_r, hi_s) ** 3)
    return gain


def _contract_scores(tree: LabeledTree, q: float) -> ScoreAssignment:
    """The scores deg(u) - u*q under which the disorder scan and the
    descent are guaranteed: q in (0, 1/(2n)], scores strictly decreasing
    in the label, and every switch's drop of the pseudo index resolvable in
    floating point. For such q the scores strictly decrease exactly when
    the labels are degree-ordered, deg(1) >= ... >= deg(n), and no two
    scores round together. Raises ValueError outside that contract.

    A switch changes four edge terms, each computed within an ulp of the
    largest pSO, and ``math.fsum`` rounds each pSO by half an ulp, so a
    drop of more than 5 ulps always shows in the floats; the contract asks
    ``_least_switch_gain`` for 8, against the bound (n - 1) hypot(scr(1),
    scr(2)) on every pSO of the class."""
    if not 0 < q <= 1.0 / (2 * tree.n):
        raise ValueError(f"q must lie in (0, 1/(2n)], got {q}")
    scores = score_assignment(tree, q)
    values = scores.values
    gaps = list(map(operator.sub, values, values[1:]))
    if gaps and not min(gaps) > 0:
        raise ValueError(
            "descent requires the degree-ordered labeling deg(1) >= ... >= deg(n) "
            f"and a q large enough to keep the scores apart, got q = {q}"
        )
    top = (tree.n - 1) * math.hypot(*values[:2])
    if not _least_switch_gain(tree, values, gaps) > 8 * math.ulp(top):
        raise ValueError(
            f"q = {q} is too small for the descent: a switch could lower the "
            "pseudo index by less than floating point resolves"
        )
    return scores


class _Scan:
    """The disorder scan's state on one tree, kept on it as ``_scan``.

    ``key`` is the accepted (type(q), q) and ``scores`` its contract's
    scores. ``level`` is indexed by label, as in ``BfsLevels``, and
    ``by_level[k]`` is the ascending list of the labels on level k. The
    state holds no parent or child: the scan reads those off the tree's own
    ascending neighbour rows ``_adj`` (see ``find_violation``). The cursor
    is the pass (``same_level``) and the level ``at`` it resumes from: no
    level before ``at`` of that pass holds a disorder, nor does any level
    of the level pass once ``same_level`` is set. ``violation`` is what the
    last scan returned. A state belongs to one tree and shares no list:
    ``apply_switch`` takes it off the tree and hands it on to the
    successor, re-levelled in place from the cursor's level down where the
    switch moves levels (see ``_relevel``), or drops it.

    In the same-level pass the cursor also holds a place in the group
    ``by_level[at]``: the pass resumes at its parent ``first``, and no
    parent before it holds a disorder. ``least_after`` (None until the pass
    reaches the group) is the group's table of suffix minima: entry i is
    at most the least first child of the parents after i, and equal to it
    from i = ``dirty`` on. The scan recomputes entries ``first`` to
    ``dirty`` - 1 in place before it reads them.

    The table is only a filter: the pass confirms each candidate parent
    against the parents after it, so a too small entry costs time and
    never changes the answer. So a switch between the group's parents
    a = ``first`` and b = ``dirty`` keeps the table in the handed-on state.
    The switch moves a's last child gamma to b and b's first child delta <
    gamma to a. Entries from b on cover neither and keep their values.
    Every other entry covers b, whose new first child exceeds delta, and
    one before a also covers a, whose new first child is its old one or
    delta; both were in the old minimum, so no minimum falls."""

    __slots__ = ("key", "scores", "level", "by_level", "same_level", "at",
                 "least_after", "first", "dirty", "violation")

    def __init__(self, key: tuple, scores: ScoreAssignment, level: list[int],
                 by_level: list[list[int]]):
        self.key, self.scores = key, scores
        self.level, self.by_level = level, by_level
        self.same_level, self.at = False, 1
        self.least_after, self.first, self.dirty = None, 0, 0
        self.violation = None


def _fresh_scan(info: BfsLevels, key: tuple, scores: ScoreAssignment) -> _Scan:
    """The state of a level pass at level 1 over the traversal ``info``."""
    level = list(info.level)
    by_level: list[list[int]] = [[1]] + [[] for _ in range(level[info.order[-1]])]
    for u in range(2, len(level)):
        by_level[level[u]].append(u)
    return _Scan(key, scores, level, by_level)


def _relevel(scan: _Scan, adj: Sequence[Sequence[int]], plan: SwitchPlan) -> None:
    """Edit ``scan`` in place into the state of the tree with neighbour rows
    ``adj`` that its own level plan (alpha, x, gamma, beta) made, and raise
    SwitchError unless those rows form a tree. The cursor stays at the
    witness level j = ``at``, beta's level, where the level pass resumes.

    In the old levels, j >= 1, and each dropped edge has an end on level j
    or deeper: alpha of {alpha, x} lies below j, and beta of {gamma, beta}
    on it. Each added edge, {alpha, gamma} and {x, beta}, joins a label on
    level j - 1 or deeper to one on j or deeper. So every edge between two
    labels above level j is kept, and no new edge joins a label on j or
    deeper to one above j - 1. The new edges are n - 1, and the labels
    above j still reach the root, so they form a tree exactly when a
    traversal from row j - 1 into the labels of rows j and deeper reaches
    all of them. In a tree that traversal gives them their new levels, one
    layer a level, and the labels above j keep theirs."""
    level, by_level, j = scan.level, scan.by_level, scan.at
    unreached = 0
    for row in by_level[j:]:
        unreached += len(row)
        for u in row:
            level[u] = -1
    del by_level[j:]
    layer, k = by_level[-1], j
    while True:
        row = []
        for u in layer:
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = k
                    row.append(v)
        if not row:
            break
        row.sort()
        by_level.append(row)
        unreached -= len(row)
        layer, k = row, k + 1
    if unreached:
        raise SwitchError(
            f"switch {plan} does not produce a tree: the traversal from level "
            f"{j - 1} misses {unreached} labels, so the edges close a cycle"
        )


def _scan_of(tree: LabeledTree, q: float) -> _Scan:
    """The tree's kept scan state, made at level 1 of the level pass by the
    first scan. The contract is checked for a state that holds no accepted
    q or another one; a switch keeps the degrees, so a handed-on state
    keeps its accepted q and scores. A refusal is never kept."""
    key = (type(q), q)
    scan = tree._scan
    if scan is None or scan.key != key:
        scores = _contract_scores(tree, q)
        if scan is None:
            scan = tree._scan = _fresh_scan(tree.bfs_levels(), key, scores)
        scan.key, scan.scores = key, scores
    return scan


def find_violation(tree: LabeledTree, q: float) -> Violation | None:
    """Locate a score/level disorder and a switch that removes it.

    First scans levels outward from the root for the smallest level j
    holding a vertex beta that is out-scored by some deeper vertex alpha
    (beta is the smallest such label on level j, alpha the smallest deeper
    out-scorer); the returned plan re-hangs alpha below beta's parent.
    Failing that, looks for two same-level vertices whose children are
    score-misordered and swaps those children.

    Scores are deg(u) - u*q. Returns None exactly when neither disorder
    exists; under the contract of ``descend`` (degree-ordered labels, scores
    strictly decreasing with q in (0, 1/(2n)]) that means the tree is the
    greedy tree. Every returned plan has switch_sign DECREASE. Raises
    ValueError outside that contract. Once it holds, both passes compare
    labels alone: u out-scores v exactly when u < v, so a parent's
    least-scored child is its largest label and its best-scored its
    smallest. The level pass reads a vertex's parent as its neighbour one
    level up. Once it finds no disorder, every label on a level lies
    below every deeper label, so a non-root vertex's smallest neighbour
    is its parent and the rest of its ascending row are its children.

    The tree keeps the scan's state, and the scan resumes at the state's
    cursor, so a repeated call returns the same answer. ``apply_switch``
    hands the state on to the successor when it applies the plan returned
    here: a same-level switch keeps it as it is, and a level switch
    re-levels it in place from its witness level down, with no traversal
    of the whole tree (see ``_relevel``). Four facts make the successor's
    resumed scan return what a fresh one would:

    - The level pass never goes back. A level switch with witness level j
      keeps the label set of every level above j, and so the set of labels
      below each such level, and no level above j gains a witness.
    - There is one phase change. A same-level switch keeps every vertex's
      level, so a clear level pass stays clear.
    - The same-level pass never goes back. A switch at level j changes the
      children of two level-j parents only, so every group above j keeps
      its children.
    - Inside level j's group it never goes back past a. A switch between
      the group's parents a and b keeps the children of every parent
      before a, and the least first child of the parents after any of
      them can only rise (see ``_Scan``), so no parent before a gains a
      disorder. The pass resumes at a itself, which may still hold one,
      and recomputes only the suffix minima from a to b.
    """
    scan = _scan_of(tree, q)
    scan.violation = _resume(scan, tree._adj)
    return scan.violation


def _resume(scan: _Scan, adj: Sequence[Sequence[int]]) -> Violation | None:
    """The disorder scan over the neighbour rows ``adj`` from the cursor of
    ``scan``, which it leaves at the disorder found, or past the last level
    when there is none. At a same-level disorder the cursor is its level,
    the group's suffix minima and the indices of a and b (see ``_Scan``)."""
    by_level, n = scan.by_level, len(adj) - 1
    depth = len(by_level) - 1
    if not scan.same_level:
        # Level pass: a deeper vertex out-scoring a shallower one. Scores
        # fall strictly with the label, so alpha out-scores beta exactly
        # when alpha < beta, and the least label below level j out-scores
        # any beta on j that some deeper vertex does. The root carries the
        # top score, so level 0 never witnesses and the repair always has a
        # parent above beta.
        least_below = [n + 1] * (depth + 1)
        for k in range(depth, scan.at, -1):
            least_below[k - 1] = min(least_below[k], by_level[k][0])
        for j in range(scan.at, depth):
            row = by_level[j]
            i = bisect_right(row, least_below[j])
            if i < len(row):
                scan.at = j
                return _level_violation(adj, scan.level, least_below[j], row[i])
        # The root sits alone on level 0, so the same-level pass starts at
        # level 1, where every vertex's row is its parent and then its
        # children, ascending (see ``find_violation``). That also keeps the
        # one-vertex tree's empty row out of the pass.
        scan.same_level, scan.at = True, 1

    # Same-level pass: a out-scores each later b of its ascending group, but
    # a's last child gamma is out-scored by b's first child delta. The first
    # such a is the first whose gamma exceeds the least first child of the
    # parents after it, and its b the first of those below gamma. A
    # vertex's first child, when it has one, is row[1], and its last is
    # row[-1]. A leaf's row[-1] is its parent, which lies below every label
    # on level j + 1 and below n + 1, so it never passes the test on gamma.
    least_after = scan.least_after
    for j in range(scan.at, depth + 1):
        group = by_level[j]
        if least_after is None:
            least_after, first, end = [n + 1] * len(group), 0, len(group) - 1
        else:
            first, end = scan.first, scan.dirty
        least = least_after[end]
        for i in range(end - 1, first - 1, -1):
            row = adj[group[i + 1]]
            if len(row) > 1 and row[1] < least:
                least = row[1]
            least_after[i] = least
        for i in range(first, len(group)):
            gamma = adj[group[i]][-1]
            if gamma > least_after[i]:
                for k in range(i + 1, len(group)):
                    row = adj[group[k]]
                    if len(row) > 1 and gamma > row[1]:
                        scan.at, scan.least_after, scan.first, scan.dirty = j, least_after, i, k
                        return Violation(ViolationKind.SAME_LEVEL,
                                         SwitchPlan(group[i], gamma, row[1], group[k]))
        least_after = None
    scan.at, scan.least_after = depth + 1, None
    return None


class DescentStep(_Value):
    __slots__ = __match_args__ = ("plan", "kind", "pso_before", "pso_after",
                                  "so_before", "so_after")

    def __init__(self, plan: SwitchPlan, kind: ViolationKind, pso_before: float,
                 pso_after: float, so_before: float, so_after: float):
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pso_before", pso_before)
        object.__setattr__(self, "pso_after", pso_after)
        object.__setattr__(self, "so_before", so_before)
        object.__setattr__(self, "so_after", so_after)


class DescentTrace(_Value):
    """Record of one descent: every applied switch."""

    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: tuple[DescentStep, ...]):
        object.__setattr__(self, "steps", steps)

    def to_json(self) -> list[dict]:
        """One object per step: the four switch vertices, the disorder kind,
        and the pseudo/plain index before and after."""
        return [
            {
                "u": s.plan.u,
                "v": s.plan.v,
                "w": s.plan.w,
                "t": s.plan.t,
                "kind": s.kind.value,
                "pso_before": s.pso_before,
                "pso_after": s.pso_after,
                "so_before": s.so_before,
                "so_after": s.so_after,
            }
            for s in self.steps
        ]


def _switch_gain(grid: _Grid, plan: SwitchPlan) -> int:
    """The exact change of a sum of ``grid`` terms under the switch."""
    return grid.switch_gain(plan.u, plan.v, plan.w, plan.t)


def descend(tree: LabeledTree, q: float) -> tuple[LabeledTree, DescentTrace]:
    """Apply disorder-removing switches until none remains.

    Requires the degree-ordered labeling deg(1) >= ... >= deg(n) and
    q in (0, 1/(2n)] that keeps the scores distinct, so every step strictly
    lowers the pseudo index and the process terminates; raises ValueError
    otherwise. The terminal tree is
    checked against the greedy construction; any discrepancy raises
    DescentInvariantError rather than being repaired.

    Each scan resumes from the state that the switch moved from its
    predecessor (see ``find_violation``). That state carries the contract's
    accepted q and scores, so only the start tree is checked against the
    contract. The handed-on state proves each successor a tree (see
    ``apply_switch``), so a descent traverses its start tree and no other.
    SO and pSO are exact sums on an ``indices._Grid`` and move by the
    switch's four edge terms. Each step checks that pSO strictly falls,
    and the end checks both sums against ``sombor`` and ``pseudo_sombor``
    of the terminal tree. Only that end and the start read a tree's edges,
    so no step builds an edge list.
    """
    scores = _scan_of(tree, q).scores
    so_grid = _Grid(tuple(map(len, tree._adj[1:])))
    pso_grid = _Grid(scores.values)
    so = sum(so_grid.term(a, b) for a, b in tree.edges)
    pso = sum(pso_grid.term(a, b) for a, b in tree.edges)
    current = tree
    pso_current = pso_grid.value(pso)
    so_current = so_grid.value(so)
    steps = []
    while (violation := find_violation(current, q)) is not None:
        current = apply_switch(current, violation.plan)
        pso += _switch_gain(pso_grid, violation.plan)
        pso_next = pso_grid.value(pso)
        if not pso_next < pso_current:
            raise DescentInvariantError(
                f"switch failed to lower the pseudo index ({pso_current!r} -> {pso_next!r})"
            )
        so += _switch_gain(so_grid, violation.plan)
        so_next = so_grid.value(so)
        steps.append(
            DescentStep(
                plan=violation.plan,
                kind=violation.kind,
                pso_before=pso_current,
                pso_after=pso_next,
                so_before=so_current,
                so_after=so_next,
            )
        )
        pso_current, so_current = pso_next, so_next
    target = build_greedy(DegreeSequence(degree_sequence_of(tree)[0]))
    if current != target:
        raise DescentInvariantError(
            "descent stalled on a tree that is not the greedy construction"
        )
    if (so_current, pso_current) != (sombor(current), pseudo_sombor(current, scores)):
        raise DescentInvariantError(
            f"running sums SO = {so_current!r}, pSO = {pso_current!r} drifted from the "
            "terminal tree's"
        )
    return current, DescentTrace(tuple(steps))
