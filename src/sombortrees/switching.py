"""Degree-preserving edge switches and the descent to the greedy tree.

A switch replaces edges {u,v}, {w,t} by {u,w}, {v,t}; it keeps every vertex
degree, and whether it lowers the pseudo-Sombor index is decided by the sign
of (scr(u) - scr(t)) * (scr(w) - scr(v)). ``find_violation`` locates a
score/level disorder together with a disorder-removing switch, and
``descend`` applies such switches until none remains, which for a
degree-ordered labeling leaves exactly the greedy tree.
"""

from enum import Enum

from .degseq import DegreeSequence, _Value
from .greedy import build_greedy
from .indices import ScoreAssignment, pseudo_sombor, sombor, score_assignment
from .tree_core import BfsLevels, LabeledTree, TreeError, degree_sequence_of


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


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _require_plan_applies(tree: LabeledTree, plan: SwitchPlan) -> None:
    if not tree.adjacent(plan.u, plan.v):
        raise SwitchError(f"required edge {{{plan.u},{plan.v}}} is missing")
    if not tree.adjacent(plan.w, plan.t):
        raise SwitchError(f"required edge {{{plan.w},{plan.t}}} is missing")
    if tree.adjacent(plan.u, plan.w):
        raise SwitchError(f"vertices {plan.u} and {plan.w} must not be adjacent")
    if tree.adjacent(plan.v, plan.t):
        raise SwitchError(f"vertices {plan.v} and {plan.t} must not be adjacent")


def apply_switch(tree: LabeledTree, plan: SwitchPlan) -> LabeledTree:
    """Carry out the switch; every vertex keeps its degree."""
    _require_plan_applies(tree, plan)
    dropped = {_ordered(plan.u, plan.v), _ordered(plan.w, plan.t)}
    new_edges = [e for e in tree.edges if e not in dropped]
    new_edges.append(_ordered(plan.u, plan.w))
    new_edges.append(_ordered(plan.v, plan.t))
    try:
        return LabeledTree(tree.n, new_edges)
    except TreeError as exc:
        raise SwitchError(f"switch {plan} does not produce a tree: {exc}") from exc


def switch_sign(
    tree: LabeledTree, plan: SwitchPlan, scores: ScoreAssignment
) -> tuple[SwitchSign, float]:
    """Closed-form sign of pSO(T) - pSO(T') for the switched tree T'.

    DECREASE means the switch strictly lowers the pseudo index. Returns the
    product (scr(u) - scr(t)) * (scr(w) - scr(v)) alongside the sign; a TIE
    (zero product) cannot occur when q <= 1/(2n).
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


def _is_proper_descendant(info: BfsLevels, node: int, ancestor: int) -> bool:
    x = node
    target_level = info.level[ancestor]
    while info.level[x] > target_level:
        x = info.parent[x]
    return x == ancestor and node != ancestor


def _level_violation(
    info: BfsLevels,
    children: dict[int, list[int]],
    alpha: int,
    beta: int,
) -> Violation:
    # alpha out-scores beta, so alpha < beta and deg(alpha) >= deg(beta).
    # In the two cases that recycle a child of alpha, beta has a parent and
    # a child, so deg(alpha) >= 2 and alpha has a child below it.
    gamma = info.parent[beta]
    if info.parent[alpha] == beta:
        return Violation(
            ViolationKind.LEVEL_CASE_PARENT,
            SwitchPlan(alpha, children[alpha][0], gamma, beta),
        )
    if _is_proper_descendant(info, alpha, beta):
        # alpha sits at depth >= 2 inside beta's subtree. Swapping via
        # alpha's parent would reconnect two vertices of that subtree and
        # close a cycle, so recycle one of alpha's children instead.
        return Violation(
            ViolationKind.LEVEL_CASE_GRANDCHILD,
            SwitchPlan(alpha, children[alpha][0], gamma, beta),
        )
    return Violation(
        ViolationKind.LEVEL_CASE_NONPARENT,
        SwitchPlan(alpha, info.parent[alpha], gamma, beta),
    )


def _contract_scores(tree: LabeledTree, q: float) -> ScoreAssignment:
    """The scores deg(u) - u*q under which the disorder scan and the
    descent are guaranteed: q in (0, 1/(2n)] and scores strictly decreasing
    in the label. For such q that holds exactly when the labels are
    degree-ordered, deg(1) >= ... >= deg(n), and no two scores round
    together. Raises ValueError outside that contract."""
    if not 0 < q <= 1.0 / (2 * tree.n):
        raise ValueError(f"q must lie in (0, 1/(2n)], got {q}")
    scores = score_assignment(tree, q)
    if not scores.strictly_decreasing:
        raise ValueError(
            "descent requires the degree-ordered labeling deg(1) >= ... >= deg(n) "
            f"and a q large enough to keep the scores apart, got q = {q}"
        )
    return scores


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
    ValueError outside that contract. Once the contract holds, scores are
    read by label from one flat tuple.
    """
    w = (0.0, *_contract_scores(tree, q).values)
    info = tree.bfs_levels()
    depth = max(info.level.values())
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
            w_beta = w[beta]
            for alpha in candidates:
                if w[alpha] > w_beta:
                    return _level_violation(info, children, alpha, beta)

    # Same-level pass: children misordered against their parents' scores.
    for group in by_level:
        if len(group) < 2:
            continue
        for a in group:
            kids_a = children.get(a)
            if not kids_a:
                continue
            for b in group:
                if b == a or not w[a] > w[b]:
                    continue
                kids_b = children.get(b)
                if not kids_b:
                    continue
                gamma = min(kids_a, key=lambda c: (w[c], c))
                delta = min(kids_b, key=lambda c: (-w[c], c))
                if w[gamma] < w[delta]:
                    return Violation(ViolationKind.SAME_LEVEL, SwitchPlan(a, gamma, delta, b))
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


def descend(tree: LabeledTree, q: float) -> tuple[LabeledTree, DescentTrace]:
    """Apply disorder-removing switches until none remains.

    Requires the degree-ordered labeling deg(1) >= ... >= deg(n) and
    q in (0, 1/(2n)] that keeps the scores distinct, so every step strictly
    lowers the pseudo index and the process terminates; raises ValueError
    otherwise. The terminal tree is
    checked against the greedy construction; any discrepancy raises
    DescentInvariantError rather than being repaired.
    """
    scores = _contract_scores(tree, q)
    current = tree
    pso_current = pseudo_sombor(current, scores)
    so_current = sombor(current)
    steps = []
    while (violation := find_violation(current, q)) is not None:
        switched = apply_switch(current, violation.plan)
        pso_next = pseudo_sombor(switched, scores)
        if not pso_next < pso_current:
            raise DescentInvariantError(
                f"switch failed to lower the pseudo index ({pso_current!r} -> {pso_next!r})"
            )
        so_next = sombor(switched)
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
        current, pso_current, so_current = switched, pso_next, so_next
    target = build_greedy(DegreeSequence(degree_sequence_of(tree)[0]))
    if current != target:
        raise DescentInvariantError(
            "descent stalled on a tree that is not the greedy construction"
        )
    return current, DescentTrace(tuple(steps))
