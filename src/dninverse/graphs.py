"""Undirected simple graphs on vertices 1..n.

Small toolkit backing the matrix code: connectivity with a component
certificate, BFS distances, and uniform random labeled trees. A graph is one
sorted int edge array plus the package's only adjacency, per-vertex neighbour
lists built on first use. The one BFS here walks them: once per graph into a
memoized breadth-first forest, which ``connected_components`` and the tree
checks of ``treesign`` read, and afresh for ``bfs_distances``. The dense
callers, which already hold an n x n boolean mask, skip the edge list:
``mask_components`` walks the mask itself, trusting it to be square and
symmetric as each of them builds it.
"""

from __future__ import annotations

import heapq
import math
import numbers
from typing import Iterable, NamedTuple

import numpy as np


# the largest n whose edge keys i * (n + 1) + j, i < j <= n, fit in an int64
MAX_KEYED_VERTICES = math.isqrt(2**63 - 1) - 1


def _check_vertex(n: int, v: int) -> None:
    """Raise ValueError unless v is a vertex of 1..n."""
    if not (1 <= v <= n):
        raise ValueError(f"vertex {v} out of range 1..{n}")


def _check_edge(n: int, i: int, j: int) -> None:
    """Raise ValueError for a bad edge (i, j) on 1..n: out of range before self-loop."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")


def _canonical_edges(n: int, edges) -> np.ndarray:
    """Edges as a read-only int64 array of rows (i, j), i < j, sorted and without duplicates.

    The first bad edge in input order raises. An array must have an integer
    dtype; nothing is cast to an integer.
    """
    if isinstance(edges, np.ndarray):
        if edges.dtype.kind not in "iu":
            raise TypeError(f"edge array must have an integer dtype, got {edges.dtype}")
        arr = edges
    else:
        edges = list(edges)
        arr = np.asarray(edges) if edges else np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (i, j) pairs, got an array of shape {arr.shape}")
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
        arr.setflags(write=False)
        return arr
    if n > MAX_KEYED_VERTICES:
        raise ValueError(f"a graph with edges has at most {MAX_KEYED_VERTICES} vertices, got {n}")
    if arr.dtype.kind not in "iu":
        # numpy infers float or object for non-integers and for ints beyond
        # int64, so those lists are checked pair by pair, in input order
        for i, j in edges:
            if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
                raise TypeError(f"edge ({i!r}, {j!r}) has a non-integer endpoint")
            _check_edge(n, i, j)
        arr = arr.astype(np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if lo.min() < 1 or hi.max() > n or (lo == hi).any():
        bad = ((arr < 1) | (arr > n)).any(axis=1) | (lo == hi)
        _check_edge(n, *arr[int(bad.argmax())].tolist())  # the first bad row raises
    key = lo.astype(np.int64)  # a fresh array, sorted in place
    key *= n + 1
    key += hi.astype(np.int64, copy=False)
    key.sort()
    repeated = key[1:] == key[:-1]
    if repeated.any():
        key = key[np.concatenate(([True], ~repeated))]
    rows = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n + 1, out=(rows[:, 0], rows[:, 1]))
    rows.setflags(write=False)
    return rows


class UGraph:
    """Immutable undirected simple graph on vertex set {1, ..., n}.

    ``edges`` may be any iterable of (i, j) pairs or an (m, 2) int array. The
    graph keeps one canonical int64 edge array (rows i < j, sorted, no
    duplicates), so equality and hashing compare edge sets. ``_adj`` is the
    adjacency, built on first use: ``_adj[v]`` lists the neighbours of v in
    ascending order (``_adj[0]`` is empty), and the neighbour queries and the
    BFS read it. ``_forest`` is the breadth-first forest, walked on first use
    by :func:`_walk`, the only code that touches it. Both are derived from the
    edges and take no part in equality or hashing.
    """

    __slots__ = ("_n", "_edges", "_adj", "_forest")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self._n = n
        self._edges = _canonical_edges(n, edges)
        self._adj = None
        self._forest = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (i, j) pairs with i < j, sorted."""
        return tuple(map(tuple, self._edges.tolist()))

    @property
    def edge_array(self) -> np.ndarray:
        """All edges as a read-only (m, 2) int64 array of rows (i, j), i < j, sorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return self._edges.shape[0]

    def _adjacency(self) -> list[list[int]]:
        """The neighbour lists by vertex number; callers must not modify them."""
        if self._adj is None:
            adj = [[] for _ in range(self._n + 1)]
            # the rows are sorted, so v meets its (u, v), u < v rows before its
            # (v, w) rows, each run ascending: every list comes out sorted
            lo, hi = self._edges.T.tolist()  # two flat lists, not one list per row
            for i, j in zip(lo, hi):
                adj[i].append(j)
                adj[j].append(i)
            self._adj = adj
        return self._adj

    def _neighbor_list(self, v: int) -> list[int]:
        _check_vertex(self._n, v)
        return self._adjacency()[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._neighbor_list(v))

    def degree(self, v: int) -> int:
        return len(self._neighbor_list(v))

    def has_edge(self, i: int, j: int) -> bool:
        row = self._neighbor_list(i)
        _check_vertex(self._n, j)
        return j in row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UGraph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"UGraph(n={self._n}, edges={list(self.edges)!r})"


class Connectivity(NamedTuple):
    connected: bool
    components: tuple[tuple[int, ...], ...]


class _Forest(NamedTuple):
    """A graph's breadth-first forest: each component walked from its minimum vertex."""

    depth: list[int]  # depth by vertex number, from its component's minimum
    components: tuple[tuple[int, ...], ...]  # each sorted, ordered by minimum vertex


def _walk(g: UGraph) -> _Forest:
    """The forest memoized on ``g``, walked on first use; callers must not modify it."""
    if g._forest is None:
        depth = [-1] * (g.n + 1)  # shared by the walks, so each vertex is reached once
        components = []
        for v in range(1, g.n + 1):  # each unreached v is the minimum of its component
            if depth[v] < 0:
                order, _ = _bfs(g, v, depth)
                components.append(tuple(sorted(order)))
        g._forest = _Forest(depth, tuple(components))
    return g._forest


def connected_components(g: UGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
    return _walk(g).components


def mask_components(mask) -> tuple[tuple[int, ...], ...]:
    """Components of the graph whose adjacency is the symmetric boolean n x n ``mask``.

    Vertex i + 1 is joined to j + 1 when ``mask[i, j]``; the diagonal is
    ignored. The certificate is the one :func:`connected_components` gives:
    each component sorted and 1-based, components ordered by minimum vertex.
    Each component is one frontier BFS whose step ORs the frontier's rows, so
    the number of numpy calls grows with the graph's diameter: a 2000-vertex
    path takes about 2000 steps, where the dense masks of DN matrices and of
    their inverse patterns take a handful. The mask must be square and
    symmetric, as every caller builds it; it is not checked.
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    seen = np.zeros(n, dtype=bool)
    unseen = n
    components = []
    for start in range(n):  # each unseen start is the minimum of its component
        if seen[start]:
            continue
        seen[start] = True
        unseen -= 1
        frontier = np.array([start])
        members = [frontier]
        while frontier.size and unseen:  # no gather once every vertex is reached
            reached = mask[frontier].any(axis=0)
            reached &= ~seen
            frontier = np.flatnonzero(reached)
            seen[frontier] = True
            unseen -= frontier.size
            members.append(frontier)
        components.append(tuple((np.sort(np.concatenate(members)) + 1).tolist()))
    return tuple(components)


def is_connected(g: UGraph) -> Connectivity:
    """Connectivity flag together with the component partition as certificate."""
    components = connected_components(g)
    return Connectivity(len(components) == 1, components)


def _bfs(g: UGraph, source: int, depth: list | None = None) -> tuple[list, list]:
    """Breadth-first walk from ``source``: the reached vertices in visiting order, and the
    depth of every vertex by number (-1 when unreached), filled into ``depth`` if given."""
    adj = g._adjacency()
    if depth is None:
        depth = [-1] * (g.n + 1)
    depth[source] = 0
    order = [source]
    for u in order:
        step = depth[u] + 1
        for w in adj[u]:
            if depth[w] < 0:
                depth[w] = step
                order.append(w)
    return order, depth


def bfs_distances(g: UGraph, source: int) -> dict[int, int]:
    """Hop distances from source to every reachable vertex, in visiting order."""
    _check_vertex(g.n, source)
    order, depth = _bfs(g, source)
    return {v: depth[v] for v in order}


def random_tree(n: int, seed) -> UGraph:
    """Uniformly random labeled tree on n vertices (decoded from a random Pruefer sequence).

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including an
    existing Generator to draw from.
    """
    if n <= 1:
        return UGraph(n)
    rng = np.random.default_rng(seed)
    seq = rng.integers(1, n + 1, size=n - 2)  # empty for n = 2: no draw, one edge
    degree = (np.bincount(seq, minlength=n + 1) + 1).tolist()
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]  # ascending, so a heap
    popped = []
    for v in seq.tolist():
        popped.append(heapq.heappop(leaves))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    # edge k joins the k-th popped leaf to seq[k]; the last joins the two leaves left
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:-1, 0] = popped
    edges[:-1, 1] = seq
    edges[-1] = leaves
    return UGraph(n, edges)
