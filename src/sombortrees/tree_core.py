"""Labeled trees on vertices 1..n, rooted at vertex 1, and the Prufer codec.

Edges are normalized to (min, max) pairs sorted lexicographically, so two
trees compare equal exactly when their edge sets coincide. Per-label data
is a sequence indexed by label, with index 0 as padding. Trees are
immutable after validation and safe to share: a tree's neighbour rows,
its edges and its breadth-first traversal are tuples shared by every
caller, and nothing in the package assigns to them. A constructed tree
keeps the edges it sorted; a switched tree keeps only its rows and, like
the traversal, derives its edges on first read and keeps them.
``PruferCode``'s ``__slots__`` base ``degseq._Value`` refuses assignment
and deletion.

A tree also keeps the disorder scan's state (``_scan``), which only
``switching`` reads and writes, and whose answers are a function of the
tree. A switch that the tree's own scan found moves that state to the
successor in place of a traversal, and the state proves the successor a
tree (see ``switching.apply_switch``).
"""

from bisect import insort
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .degseq import _Value


class TreeError(ValueError):
    """The input does not describe a valid labeled tree."""


class BfsLevels(namedtuple("BfsLevels", ("level", "parent", "order"))):
    """Breadth-first view of a tree: distances to the root, parent links,
    and the traversal order (children visited in increasing label order).

    ``level`` and ``parent`` are tuples indexed by label, of length n + 1.
    Index 0, and any label the traversal does not reach, has level -1 and
    parent 0; the root has level 0 and parent 0."""

    __slots__ = ()


class LabeledTree:
    """Tree on vertex labels 1..n with the root fixed at vertex 1.

    Construction checks each edge's labels (ints, not bools, in 1..n), then
    self-loop, duplicate and cycle, in one pass with a union-find. A tree
    holds only valid labels, so this package reads ``_adj`` by index."""

    __slots__ = ("n", "_edges", "_adj", "_bfs", "_scan")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise TreeError(f"vertex count must be a positive integer, got {n!r}")
        # Too few edges is refused before anything of size n is allocated.
        # Too many is left to the scan below, which reports the cycle they
        # must close.
        edges = list(edges)
        if len(edges) < n - 1:
            raise TreeError(
                f"a tree on {n} vertices has {n - 1} edges, got {len(edges)} "
                "(graph is disconnected or not spanning)"
            )
        canon: list[tuple[int, int]] = []
        comp = list(range(n + 1))  # union-find with path halving
        for u, v in edges:
            if not (isinstance(u, int) and not isinstance(u, bool) and 1 <= u <= n):
                raise TreeError(f"vertex label {u!r} out of range 1..{n}")
            if not (isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n):
                raise TreeError(f"vertex label {v!r} out of range 1..{n}")
            if u == v:
                raise TreeError(f"self-loop at vertex {u}")
            ru, rv = u, v
            while comp[ru] != ru:
                comp[ru] = comp[comp[ru]]
                ru = comp[ru]
            while comp[rv] != rv:
                comp[rv] = comp[comp[rv]]
                rv = comp[rv]
            edge = (u, v) if u < v else (v, u)
            if ru == rv:
                # A repeat of an accepted edge, or a cycle: only a refused
                # edge pays for the linear search.
                if edge in canon:
                    raise TreeError(f"duplicate edge {edge}")
                raise TreeError(f"cycle detected when adding edge {edge}")
            comp[ru] = rv
            canon.append(edge)
        canon.sort()
        # Filled from the sorted edges, so every neighbour list is ascending.
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self._edges = tuple(canon)
        self._adj = tuple(map(tuple, adj))
        self._bfs = None
        self._scan = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (min, max) edges in lexicographic order, read off the
        ascending neighbour rows on first request and kept."""
        if self._edges is None:
            adj = self._adj
            self._edges = tuple((u, v) for u in range(1, self.n + 1) for v in adj[u] if v > u)
        return self._edges

    def _check_label(self, u: int) -> None:
        if not isinstance(u, int) or isinstance(u, bool) or not 1 <= u <= self.n:
            raise TreeError(f"vertex label {u!r} out of range 1..{self.n}")

    def degree(self, u: int) -> int:
        self._check_label(u)
        return len(self._adj[u])

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check_label(u)
        return self._adj[u]

    def adjacent(self, u: int, v: int) -> bool:
        self._check_label(u)
        self._check_label(v)
        return v in self._adj[u]

    def bfs_levels(self) -> BfsLevels:
        """Distances to vertex 1, parent of every non-root vertex, and the
        breadth-first order that visits children by increasing label.

        The tree traverses itself once and keeps the result, which holds
        only tuples; every call returns that same object."""
        if self._bfs is None:
            self._bfs = _breadth_first(self._adj)
        return self._bfs

    def _switched(self, u: int, v: int, w: int, t: int) -> "LabeledTree":
        """This tree with the edges {u,v}, {w,t} replaced by {u,w}, {v,t},
        without a second validation.

        The caller guarantees four distinct labels with u~v, w~t, u!~w and
        v!~t, so the result has n - 1 distinct edges, and it is a tree
        exactly when its traversal from vertex 1 reaches all n labels. The
        caller proves that, by that traversal or otherwise, before the
        result is used. The four changed neighbour rows are spliced in
        ascending order, as construction would fill them; the result
        derives its edges from its rows when they are first read."""
        adj = list(self._adj)
        for x, old, new in ((u, v, w), (v, u, t), (w, t, u), (t, w, v)):
            row = list(adj[x])
            row.remove(old)
            insort(row, new)
            adj[x] = tuple(row)
        tree = LabeledTree.__new__(LabeledTree)
        tree.n = self.n
        tree._edges = None
        tree._adj = tuple(adj)
        tree._bfs = None
        tree._scan = None
        return tree

    def to_edge_text(self) -> str:
        """One edge per line as 'u v', in canonical order."""
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    @classmethod
    def from_edge_text(cls, text: str) -> "LabeledTree":
        edges = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise TreeError(f"line {lineno}: expected 'u v', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise TreeError(f"line {lineno}: non-integer label in {line!r}") from None
        n = max((max(e) for e in edges), default=1)
        return cls(n, edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj) -> "LabeledTree":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise TreeError("tree JSON must be an object with 'n' and 'edges'")
        n = obj["n"]
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise TreeError("'edges' must be a list of [u, v] pairs")
        pairs = []
        for item in edges:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise TreeError(f"bad edge entry {item!r}")
            pairs.append((item[0], item[1]))
        return cls(n, pairs)

    def to_dot(self) -> str:
        """Undirected DOT rendering; each vertex carries its degree and level."""
        lines = ["graph {"]
        info = self.bfs_levels()
        for u in range(1, self.n + 1):
            lines.append(f'  {u} [label="{u}\\ndeg={self.degree(u)}, level={info.level[u]}"];')
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"LabeledTree(n={self.n}, edges={list(self.edges)})"


def _breadth_first(adj: Sequence[Sequence[int]]) -> BfsLevels:
    """The traversal from vertex 1 over the neighbour rows ``adj``, which
    need not form a tree: it visits only the labels vertex 1 reaches, and
    the rest keep level -1."""
    level = [-1] * len(adj)
    parent = [0] * len(adj)
    level[1] = 0
    order = [1]
    # The loop walks the list it appends to, one level after another.
    for u in order:
        below = level[u] + 1
        for v in adj[u]:
            if level[v] < 0:
                level[v] = below
                parent[v] = u
                order.append(v)
    return BfsLevels(tuple(level), tuple(parent), tuple(order))


def degree_sequence_of(tree: LabeledTree) -> tuple[tuple[int, ...], bool]:
    """Per-label degree vector (deg(1), ..., deg(n)) plus a flag telling
    whether it is already non-increasing, i.e. whether the labeling follows
    the degree-ordered convention."""
    degrees = tuple(tree.degree(u) for u in range(1, tree.n + 1))
    ordered = all(a >= b for a, b in zip(degrees, degrees[1:]))
    return degrees, ordered


class PruferCode(_Value):
    """Length n-2 sequence over 1..n encoding a labeled tree; vertex u
    occurs deg(u) - 1 times in the code of its tree."""

    __slots__ = __match_args__ = ("n", "code")

    def __init__(self, n: int, code: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "code", tuple(code))
        if not isinstance(n, int) or isinstance(n, bool):
            raise TreeError(f"vertex count must be an integer, got {n!r}")
        if self.n < 2:
            raise TreeError("Prufer codes exist only for n >= 2")
        if len(self.code) != self.n - 2:
            raise TreeError(
                f"code for n={self.n} must have length {self.n - 2}, got {len(self.code)}"
            )
        for entry in self.code:
            if not isinstance(entry, int) or isinstance(entry, bool) or not 1 <= entry <= self.n:
                raise TreeError(f"code entry {entry!r} out of range 1..{self.n}")


def prufer_encode(tree: LabeledTree) -> PruferCode:
    """Repeatedly record the neighbor of the smallest-labeled leaf and delete
    the leaf, n - 2 times, finding leaves as ``prufer_edges`` does."""
    if tree.n < 2:
        raise TreeError("Prufer encoding needs at least 2 vertices")
    n = tree.n
    adj = tree._adj
    degree = [len(nbrs) for nbrs in adj]
    removed = [False] * (n + 1)
    leaf = pointer = degree.index(1)
    out = []
    for _ in range(n - 2):
        removed[leaf] = True
        entry = next(v for v in adj[leaf] if not removed[v])
        out.append(entry)
        degree[entry] -= 1
        if entry < pointer and degree[entry] == 1:
            leaf = entry
        else:
            leaf = pointer = degree.index(1, pointer + 1)
    return PruferCode(n, tuple(out))


def prufer_edges(code: Sequence[int], degrees: Sequence[int]) -> list[tuple[int, int]]:
    """The n - 1 edges of the tree with this Prufer code, each as a (min, max)
    pair, in the order the decoder joins them; ``degrees[u - 1]`` is deg(u).

    A pointer walks up the labels once: a code entry that turns into a leaf
    below it is the smallest leaf (all others below are gone), else the next
    degree-one label past it is. Vertex n stays to the end."""
    degree = [0, *degrees]
    leaf = pointer = degree.index(1)
    edges = []
    for entry in code:
        edges.append((leaf, entry) if leaf < entry else (entry, leaf))
        degree[entry] -= 1
        if entry < pointer and degree[entry] == 1:
            leaf = entry
        else:
            leaf = pointer = degree.index(1, pointer + 1)
    edges.append((leaf, len(degrees)))
    return edges


def prufer_decode(code: PruferCode) -> LabeledTree:
    """Inverse of prufer_encode: vertex u gets (occurrences of u) + 1 edges."""
    degrees = [1] * code.n
    for entry in code.code:
        degrees[entry - 1] += 1
    return LabeledTree(code.n, prufer_edges(code.code, degrees))
