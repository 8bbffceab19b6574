"""Undirected simple graphs on vertices 1..n.

Small toolkit backing the matrix code: connectivity with a component
certificate, BFS distances, and uniform random labeled trees.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, NamedTuple

import numpy as np


class UGraph:
    """Immutable undirected simple graph on vertex set {1, ..., n}.

    ``_tree`` memoizes the validated tree layout that ``treesign`` builds on
    first use (``False`` for a non-tree); it is derived from the edges, so it
    takes no part in equality or hashing.
    """

    __slots__ = ("_n", "_adj", "_tree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i].add(j)
            adj[j].add(i)
        self._n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._tree = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (i, j) pairs with i < j, sorted."""
        return tuple(
            (i, j)
            for i in range(1, self._n + 1)
            for j in sorted(self._adj[i])
            if i < j
        )

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return j in self._adj[i]

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self._n):
            raise ValueError(f"vertex {v} out of range 1..{self._n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UGraph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

    def __repr__(self) -> str:
        return f"UGraph(n={self._n}, edges={list(self.edges)!r})"


class Connectivity(NamedTuple):
    connected: bool
    components: tuple[tuple[int, ...], ...]


def connected_components(g: UGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
    seen = [False] * (g.n + 1)
    components = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(tuple(sorted(comp)))
    return tuple(components)


def is_connected(g: UGraph) -> Connectivity:
    """Connectivity flag together with the component partition as certificate."""
    components = connected_components(g)
    return Connectivity(len(components) == 1, components)


def bfs_distances(g: UGraph, source: int) -> dict[int, int]:
    """Hop distances from source to every reachable vertex."""
    g._check_vertex(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def random_tree(n: int, seed) -> UGraph:
    """Uniformly random labeled tree on n vertices (decoded from a random Pruefer sequence).

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including an
    existing Generator to draw from.
    """
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if n == 1:
        return UGraph(1)
    if n == 2:
        return UGraph(2, [(1, 2)])
    rng = np.random.default_rng(seed)
    seq = rng.integers(1, n + 1, size=n - 2)
    degree = np.ones(n + 1, dtype=int)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return UGraph(n, edges)
