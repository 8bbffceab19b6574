import heapq
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dninverse import (
    UGraph,
    bfs_distances,
    connected_components,
    is_connected,
    random_tree,
)
from dninverse.graphs import MAX_KEYED_VERTICES


def test_ugraph_basics():
    g = UGraph(4, [(2, 1), (3, 4)])
    assert g.n == 4
    assert g.edges == ((1, 2), (3, 4))
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.degree(2) == 1
    assert g.neighbors(3) == frozenset({4})


def test_ugraph_deduplicates_edges():
    g = UGraph(3, [(1, 2), (2, 1), (1, 2)])
    assert g.edge_count == 1


def test_ugraph_rejects_bad_input():
    with pytest.raises(ValueError):
        UGraph(0)
    with pytest.raises(ValueError):
        UGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        UGraph(3, [(2, 2)])
    g = UGraph(2)
    with pytest.raises(ValueError):
        g.degree(3)


def test_ugraph_equality_and_hash():
    a = UGraph(3, [(1, 2)])
    b = UGraph(3, [(2, 1)])
    c = UGraph(3, [(1, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_connected_components_partition():
    g = UGraph(6, [(1, 2), (2, 3), (4, 5)])
    assert connected_components(g) == ((1, 2, 3), (4, 5), (6,))


def test_is_connected_certificate():
    connected, components = is_connected(UGraph(4, [(1, 2), (3, 4)]))
    assert not connected
    assert components == ((1, 2), (3, 4))
    assert is_connected(UGraph(3, [(1, 2), (2, 3)])).connected
    # a one-vertex graph counts as connected
    assert is_connected(UGraph(1)).connected


def test_bfs_distances_on_path():
    g = UGraph(4, [(1, 2), (2, 3), (3, 4)])
    assert bfs_distances(g, 1) == {1: 0, 2: 1, 3: 2, 4: 3}
    assert bfs_distances(g, 3) == {3: 0, 2: 1, 4: 1, 1: 2}


def test_bfs_distances_skips_unreachable():
    g = UGraph(3, [(1, 2)])
    assert bfs_distances(g, 1) == {1: 0, 2: 1}


def test_random_tree_smallest_sizes():
    assert random_tree(1, 0).edges == ()
    assert random_tree(2, 0).edges == ((1, 2),)


def test_random_tree_is_always_a_tree():
    for seed in range(20):
        for n in (3, 7, 23, 60):
            g = random_tree(n, seed)
            assert g.n == n
            assert g.edge_count == n - 1
            assert is_connected(g).connected


def test_random_tree_deterministic_under_seed():
    assert random_tree(12, 99) == random_tree(12, 99)


def test_random_tree_hits_every_labeled_tree_on_three_vertices():
    seen = set()
    rng = np.random.default_rng(7)
    for _ in range(300):
        seen.add(random_tree(3, rng).edges)
    assert seen == {((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))}


# The set-based graph, BFS components and BFS distances that the edge-array
# UGraph and csgraph replaced, kept as their reference.
class _SetGraph:
    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        adj = [set() for _ in range(n + 1)]
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i].add(j)
            adj[j].add(i)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    @property
    def edges(self):
        return tuple((i, j) for i in range(1, self.n + 1) for j in sorted(self.adj[i]) if i < j)

    def __eq__(self, other):
        return self.n == other.n and self.adj == other.adj

    def components(self):
        seen = [False] * (self.n + 1)
        components = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            components.append(tuple(sorted(comp)))
        return tuple(components)

    def distances(self, source):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


@st.composite
def _edge_lists(draw, lo_offset=0, hi_offset=0, loops=False):
    """(n, edges): pairs with duplicates, both orientations and isolated vertices."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(1 - lo_offset, n + hi_offset)
    pair = st.tuples(vertex, vertex)
    if not loops:
        pair = pair.filter(lambda p: p[0] != p[1])
    if n == 1 and not loops:
        return n, []
    return n, draw(st.lists(pair, max_size=40))


def _as_input(edges, form):
    if form == "list":
        return edges
    if form == "generator":
        return (pair for pair in edges)
    return np.array(edges, dtype=form).reshape(-1, 2)


_FORMS = st.sampled_from(["list", "generator", np.int64, np.int32, np.intp])


@settings(max_examples=300, deadline=None)
@given(_edge_lists(), _FORMS)
def test_ugraph_matches_set_based_reference(case, form):
    n, edges = case
    g = UGraph(n, _as_input(edges, form))
    ref = _SetGraph(n, edges)
    assert g.n == n
    assert g.edges == ref.edges
    assert all(type(i) is int and type(j) is int for i, j in g.edges)
    assert g.edge_count == len(ref.edges)
    for v in range(1, n + 1):
        assert g.neighbors(v) == ref.adj[v]
        assert g.degree(v) == len(ref.adj[v])
        assert bfs_distances(g, v) == ref.distances(v)
        for w in range(1, n + 1):
            assert g.has_edge(v, w) == (w in ref.adj[v])
    assert connected_components(g) == ref.components()
    assert is_connected(g) == (len(ref.components()) == 1, ref.components())
    # equality and hashing follow the edge set, whatever the input order
    shuffled = UGraph(n, [(j, i) for i, j in reversed(edges)])
    assert g == shuffled and hash(g) == hash(shuffled)
    assert g != UGraph(n + 1, edges)


@settings(max_examples=200, deadline=None)
@given(_edge_lists(), _edge_lists())
def test_ugraph_equality_matches_reference(first, second):
    a, b = UGraph(*first), UGraph(*second)
    assert (a == b) == (_SetGraph(*first) == _SetGraph(*second))
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(_edge_lists(lo_offset=2, hi_offset=2, loops=True), _FORMS)
def test_ugraph_reports_the_first_bad_edge_as_the_reference_does(case, form):
    n, edges = case
    try:
        _SetGraph(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            UGraph(n, _as_input(edges, form))
        assert str(raised.value) == str(exc)
    else:
        assert UGraph(n, _as_input(edges, form)).edges == _SetGraph(n, edges).edges


def test_ugraph_error_messages_for_the_first_bad_edge():
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) out of range 1\.\.3$"):
        UGraph(3, [(1, 2), (0, 2), (2, 2)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        UGraph(3, np.array([(1, 2), (2, 2), (4, 1)]))
    with pytest.raises(ValueError, match=r"^edge \(3, 4\) out of range 1\.\.3$"):
        UGraph(3, [(3, 4), (4, 4)])
    with pytest.raises(ValueError, match="pairs"):
        UGraph(3, [(1, 2, 3)])
    # endpoints beyond int64 are out of range like any other
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) out of range 1\.\.3$"):
        UGraph(3, [(1, 2), (0, 1), (1, 2**70)])
    with pytest.raises(ValueError, match=r"^edge \(-1, 18446744073709551616\) out of range 1\.\.3$"):
        UGraph(3, ((-1, 2**64), (2, 2)))
    # beyond this size the sort keys of the edges would overflow
    huge = MAX_KEYED_VERTICES + 1
    assert UGraph(huge).edge_count == 0
    with pytest.raises(ValueError, match="at most"):
        UGraph(huge, [(huge - 1, huge), (1, huge)])
    # and so must endpoints beyond int64, which numpy would not hold as integers
    with pytest.raises(ValueError, match="at most"):
        UGraph(2**64, [(1, 2**63)])
    top = MAX_KEYED_VERTICES
    assert UGraph(top, [(top, top - 1), (1, top), (top - 2, top - 1)]).edges == (
        (1, top), (top - 2, top - 1), (top - 1, top)
    )


@settings(max_examples=200, deadline=None)
@given(
    _edge_lists(lo_offset=2, hi_offset=2, loops=True),
    st.integers(0, 40),
    st.sampled_from([1.9, 2.0, "2", None]),
)
def test_ugraph_rejects_non_integer_endpoints_in_order(case, at, endpoint):
    n, edges = case
    at = min(at, len(edges))
    pairs = edges[:at] + [(1, endpoint)] + edges[at:]
    try:
        _SetGraph(n, edges[:at])
    except ValueError as exc:  # a bad integer edge comes first
        with pytest.raises(ValueError) as raised:
            UGraph(n, pairs)
        assert str(raised.value) == str(exc)
    else:
        with pytest.raises(TypeError, match="non-integer"):
            UGraph(n, pairs)


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.str_])
def test_ugraph_rejects_edge_arrays_of_non_integer_dtype(dtype):
    with pytest.raises(TypeError, match="integer dtype"):
        UGraph(3, np.array([[1, 2]]).astype(dtype))
    with pytest.raises(TypeError, match="integer dtype"):
        UGraph(3, np.empty((0, 2), dtype=dtype))


def test_ugraph_accepts_unsigned_arrays_and_numpy_integers():
    expected = ((1, 2), (2, 3))
    assert UGraph(3, np.array([[2, 1], [3, 2]], dtype=np.uint64)).edges == expected
    assert UGraph(3, [(2, 1), (np.int64(3), 2)]).edges == expected
    with pytest.raises(ValueError, match=r"^edge \(1, 18446744073709551615\) out of range 1\.\.3$"):
        UGraph(3, np.array([[1, 2], [1, 2**64 - 1]], dtype=np.uint64))


def test_ugraph_builds_adjacency_only_on_demand():
    g = UGraph(4, np.array([[4, 1], [2, 3], [1, 4]]))
    assert g.edges == ((1, 4), (2, 3))
    assert g._csr is None  # adjacency is built only when a caller walks it
    assert g.neighbors(1) == frozenset({4})
    assert g._csr is not None
    assert g == UGraph(4, [(2, 3), (1, 4)])


def _reference_random_tree(n, rng):
    """The per-element Pruefer decoding that random_tree vectorized, kept as its reference."""
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
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return _SetGraph(n, edges)


def test_random_tree_equals_reference_decoding_and_draws():
    for seed in range(30):
        for n in (3, 4, 9, 40, 101):
            shared = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            assert random_tree(n, shared).edges == _reference_random_tree(n, rng).edges
            assert shared.random() == rng.random()  # the stream continues where it did
