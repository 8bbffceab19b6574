"""Undirected simple graphs on vertices 1..n.

Small toolkit backing the matrix code: connectivity with a component
certificate, BFS distances, and uniform random labeled trees. A graph is one
sorted int edge array; its adjacency is built only for the callers that walk
neighbours, and connectivity goes through ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import heapq
import math
import numbers
from typing import Iterable, NamedTuple

import numpy as np


# the largest n whose edge keys i * (n + 1) + j, i < j <= n, fit in an int64
MAX_KEYED_VERTICES = math.isqrt(2**63 - 1) - 1


def _edge_error(n: int, i: int, j: int) -> str | None:
    """What is wrong with edge (i, j) on vertices 1..n: out of range before self-loop."""
    if not (1 <= i <= n and 1 <= j <= n):
        return f"edge ({i}, {j}) out of range 1..{n}"
    if i == j:
        return f"self-loop at vertex {i}"
    return None


def _first_bad_edge(n: int, pairs) -> Exception | None:
    """The error for the first bad pair in input order, checked one pair at a time."""
    for i, j in pairs:
        if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
            return TypeError(f"edge ({i!r}, {j!r}) has a non-integer endpoint")
        error = _edge_error(n, i, j)
        if error is not None:
            return ValueError(error)
    return None


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
        arr = np.asarray(edges)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
        arr.setflags(write=False)
        return arr
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (i, j) pairs, got an array of shape {arr.shape}")
    if n > MAX_KEYED_VERTICES:
        raise ValueError(f"a graph with edges has at most {MAX_KEYED_VERTICES} vertices, got {n}")
    if arr.dtype.kind not in "iu" or arr.max() > n:
        # numpy infers float or object for non-integers and for ints beyond int64
        error = _first_bad_edge(n, edges if isinstance(edges, list) else arr.tolist())
        if error is not None:
            raise error
        arr = arr.astype(np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1]).astype(np.int64, copy=False)
    hi = np.maximum(arr[:, 0], arr[:, 1]).astype(np.int64, copy=False)
    bad = (lo < 1) | (lo == hi)
    if bad.any():
        raise ValueError(_edge_error(n, *arr[int(bad.argmax())].tolist()))
    key = np.sort(lo * (n + 1) + hi, kind="stable")
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    rows = np.column_stack(np.divmod(key, n + 1))
    rows.setflags(write=False)
    return rows


class UGraph:
    """Immutable undirected simple graph on vertex set {1, ..., n}.

    ``edges`` may be any iterable of (i, j) pairs or an (m, 2) int array. The
    graph keeps one canonical int64 edge array (rows i < j, sorted, no
    duplicates), so equality and hashing compare edge sets. ``_csr`` is the
    adjacency ``(indptr, indices)``, built on first use: the neighbours of v,
    ascending, are ``indices[indptr[v]:indptr[v + 1]]``. ``_tree`` memoizes the
    validated tree layout that ``treesign`` builds on first use (``False`` for
    a non-tree). Both are derived from the edges and take no part in equality
    or hashing.
    """

    __slots__ = ("_n", "_edges", "_csr", "_tree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self._n = n
        self._edges = _canonical_edges(n, edges)
        self._csr = None
        self._tree = None

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

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            lo, hi = self._edges.T
            # stable by source: the (u, v), u < v rows come before the (v, w) ones,
            # each run already ascending, so every neighbour list comes out sorted
            source = np.concatenate((hi, lo))
            target = np.concatenate((lo, hi))[np.argsort(source, kind="stable")]
            indptr = np.zeros(self._n + 2, dtype=np.int64)
            np.cumsum(np.bincount(source, minlength=self._n + 1), out=indptr[1:])
            self._csr = (indptr, target)
        return self._csr

    def _neighbor_array(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        indptr, indices = self._adjacency()
        return indices[indptr[v] : indptr[v + 1]]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._neighbor_array(v).tolist())

    def degree(self, v: int) -> int:
        return self._neighbor_array(v).size

    def has_edge(self, i: int, j: int) -> bool:
        row = self._neighbor_array(i)
        self._check_vertex(j)
        k = int(np.searchsorted(row, j))
        return k < row.size and int(row[k]) == j

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self._n):
            raise ValueError(f"vertex {v} out of range 1..{self._n}")

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


def connected_components(g: UGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
    # imported here: scipy.sparse costs tens of milliseconds at import, and the
    # tree verbs never test connectivity
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components as label_components

    n = g.n
    lo = g.edge_array[:, 0] - 1
    hi = g.edge_array[:, 1] - 1  # a contiguous copy, as csgraph requires
    indptr = np.searchsorted(lo, np.arange(n + 1))  # rows are sorted by lo
    upper = csr_array((np.ones(hi.size), hi, indptr), shape=(n, n))
    count, labels = label_components(upper, directed=False)
    members = np.argsort(labels, kind="stable") + 1  # grouped by label, ascending within
    parts = np.split(members, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    # disjoint sorted tuples compare by their first, smallest vertex
    return tuple(sorted(tuple(part.tolist()) for part in parts))


def is_connected(g: UGraph) -> Connectivity:
    """Connectivity flag together with the component partition as certificate."""
    components = connected_components(g)
    return Connectivity(len(components) == 1, components)


def bfs_distances(g: UGraph, source: int) -> dict[int, int]:
    """Hop distances from source to every reachable vertex."""
    g._check_vertex(source)
    indptr, indices = g._adjacency()
    starts, targets = indptr.tolist(), indices.tolist()
    dist = {source: 0}
    queue = [source]
    for u in queue:
        step = dist[u] + 1
        for w in targets[starts[u] : starts[u + 1]]:
            if w not in dist:
                dist[w] = step
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
