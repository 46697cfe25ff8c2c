"""Independent brute-force oracles for the test suite.

Deliberately avoids importing the package: trees are enumerated as raw edge
subsets, connectivity is checked by DFS, and index values are recomputed
from scratch, so any agreement with the library is meaningful.
"""

import heapq
import math
from itertools import combinations, combinations_with_replacement


def vertex_pairs(n):
    return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]


def is_connected(n, edges):
    adjacency = {u: [] for u in range(1, n + 1)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def all_labeled_trees(n):
    """Every labeled tree on vertices 1..n as a sorted tuple of (u, v) edges."""
    if n == 1:
        return [()]
    trees = []
    for combo in combinations(vertex_pairs(n), n - 1):
        if is_connected(n, combo):
            trees.append(tuple(sorted(combo)))
    return trees


def degree_vector(n, edges):
    degs = [0] * (n + 1)
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return tuple(degs[1:])


def trees_with_degrees(degrees):
    """All labeled trees whose per-label degree vector equals ``degrees``."""
    n = len(degrees)
    return [t for t in all_labeled_trees(n) if degree_vector(n, t) == tuple(degrees)]


def sombor_value(n, edges):
    degs = degree_vector(n, edges)
    return sum(math.sqrt(degs[u - 1] ** 2 + degs[v - 1] ** 2) for u, v in edges)


def pseudo_sombor_value(n, edges, q):
    degs = degree_vector(n, edges)
    scr = [degs[u - 1] - (u) * q for u in range(1, n + 1)]
    return sum(math.sqrt(scr[u - 1] ** 2 + scr[v - 1] ** 2) for u, v in edges)


def heap_prufer_edges(n, code):
    """Prufer decode with a heap of leaves: join the smallest leaf to the
    next code entry, n - 2 times, then join the last two leaves. Edges are
    (min, max) pairs in the order they are joined."""
    degree = [1] * (n + 1)
    for entry in code:
        degree[entry] += 1
    leaves = [u for u in range(1, n + 1) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for entry in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, entry), max(leaf, entry)))
        degree[entry] -= 1
        if degree[entry] == 1:
            heapq.heappush(leaves, entry)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def tree_degree_sequences(n):
    """Degree sequences of the n-vertex trees (n >= 2): non-increasing
    n-tuples of positive integers summing to 2n - 2, sorted descending."""
    return sorted(
        (
            combo[::-1]
            for combo in combinations_with_replacement(range(1, n), n)
            if sum(combo) == 2 * n - 2
        ),
        reverse=True,
    )
