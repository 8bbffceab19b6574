import itertools
import math
from fractions import Fraction

import networkx
import numpy as np
import pytest

from dninverse import (
    MINUS,
    PLUS,
    DimensionMismatch,
    LeafAttachment,
    LeafRatio,
    LeafRatioReport,
    NotATree,
    SchurNotPositiveDefinite,
    SignMatrix,
    SymMatrix,
    UGraph,
    bfs_distances,
    cholesky_invert,
    connected_components,
    is_tree,
    leaf_attach_inverse_update,
    leaf_ratio_check,
    matrix_graph,
    odd_distance_predicate,
    predict_tree_sign_pattern,
    predict_tree_sign_rows,
    random_tree,
    random_tree_dn_matrix,
    sign_of,
    two_coloring,
    verify_doubly_nonnegative,
    zero_threshold,
)
from dninverse import graphs, treesign
from exact_tree_inverse import exact_inverse_column

PATH3 = UGraph(3, [(1, 2), (2, 3)])
PATH3_MATRIX = SymMatrix([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
TRIANGLE = UGraph(3, [(1, 2), (2, 3), (1, 3)])


def test_is_tree():
    assert is_tree(PATH3)
    assert not is_tree(TRIANGLE)
    assert not is_tree(UGraph(2))
    # right edge count but disconnected
    assert not is_tree(UGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)]))
    assert is_tree(UGraph(1))


def test_two_coloring_by_bfs_layer():
    assert two_coloring(UGraph(4, [(1, 2), (2, 3), (3, 4)])).colors == (0, 1, 0, 1)
    assert two_coloring(UGraph(4, [(1, 2), (1, 3), (1, 4)])).colors == (0, 1, 1, 1)
    assert two_coloring(UGraph(2, [(1, 2)])).colors == (0, 1)
    with pytest.raises(NotATree):
        two_coloring(TRIANGLE)


def test_two_coloring_is_proper():
    for seed in range(8):
        g = random_tree(30, seed)
        coloring = two_coloring(g)
        assert all(coloring.differ(i, j) for i, j in g.edges)


def test_predict_hand_cases():
    assert predict_tree_sign_pattern(UGraph(2, [(1, 2)])).to_rows() == ["+-", "-+"]
    assert predict_tree_sign_pattern(PATH3).to_rows() == ["+-+", "-+-", "+-+"]
    star = predict_tree_sign_pattern(UGraph(4, [(1, 2), (1, 3), (1, 4)]))
    assert star.to_rows() == ["+---", "-+++", "-+++", "-+++"]


def test_predicted_rows_are_the_rows_of_the_predicted_pattern():
    for n in range(1, 601):
        g = random_tree(n, n)
        rows = predict_tree_sign_rows(g)
        assert rows == predict_tree_sign_pattern(g).to_rows()
        assert len(set(map(id, rows))) == min(n, 2)  # two shared strings
    with pytest.raises(NotATree):
        predict_tree_sign_rows(TRIANGLE)


def test_prediction_matches_hand_inverted_instance():
    assert predict_tree_sign_pattern(PATH3) == sign_of(cholesky_invert(PATH3_MATRIX))


def test_prediction_invariant_under_color_swap():
    g = random_tree(15, 2)
    colors = np.array(two_coloring(g).colors)
    flipped = 1 - colors
    from_flipped = np.where(flipped[:, None] != flipped[None, :], MINUS, PLUS)
    assert predict_tree_sign_pattern(g) == SignMatrix(from_flipped)


def test_prediction_matches_computed_signs_at_moderate_sizes():
    # entries stay far outside the zero band at these depths
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_tree(int(rng.integers(2, 21)), rng)
        a = random_tree_dn_matrix(g, rng)
        assert sign_of(cholesky_invert(a)) == predict_tree_sign_pattern(g)


def test_odd_distance_predicate():
    assert odd_distance_predicate(PATH3, 1, 2)
    assert not odd_distance_predicate(PATH3, 1, 3)
    assert odd_distance_predicate(UGraph(4, [(1, 2), (2, 3), (3, 4)]), 1, 4)
    with pytest.raises(ValueError):
        odd_distance_predicate(PATH3, 2, 2)
    with pytest.raises(NotATree):
        odd_distance_predicate(TRIANGLE, 1, 2)


@pytest.mark.parametrize("i, j", [(1, 5), (5, 1), (0, 2), (2, 0), (-1, 2), (2, -1), (4, 1)])
def test_odd_distance_predicate_rejects_a_vertex_out_of_range(i, j):
    bad = i if not 1 <= i <= 3 else j
    with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 1\.\.3$"):
        odd_distance_predicate(PATH3, i, j)


@pytest.mark.parametrize("v", [0, -1, 4])
def test_two_coloring_rejects_a_vertex_out_of_range(v):
    coloring = two_coloring(PATH3)
    for call in (lambda: coloring.color_of(v), lambda: coloring.differ(v, 1), lambda: coloring.differ(1, v)):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range 1\.\.3$"):
            call()


def test_odd_distance_agrees_with_coloring():
    for seed in range(5):
        g = random_tree(25, seed)
        coloring = two_coloring(g)
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                assert odd_distance_predicate(g, i, j) == coloring.differ(i, j)


def test_leaf_attachment_validation():
    base = SymMatrix([[2.0]])
    with pytest.raises(ValueError):
        LeafAttachment(base, 2, 1.0, 2.0)
    with pytest.raises(ValueError):
        LeafAttachment(base, 1, -1.0, 2.0)
    with pytest.raises(ValueError):
        LeafAttachment(base, 1, 1.0, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_leaf_attachment_rejects_non_finite_weights_and_diagonals(bad):
    # rejected where they enter, not later as a finiteness or Schur error
    base = SymMatrix([[2.0]])
    with pytest.raises(ValueError, match=r"^edge weight must be positive and finite, got "):
        LeafAttachment(base, 1, bad, 2.0)
    with pytest.raises(ValueError, match=r"^new diagonal must be positive and finite, got "):
        LeafAttachment(base, 1, 1.0, bad)


def test_leaf_attachment_assembles_extended_matrix():
    att = LeafAttachment(PATH3_MATRIX, 3, 0.5, 4.0)
    expected = np.array(
        [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 0.5], [0, 0, 0.5, 4]]
    )
    np.testing.assert_array_equal(att.attached_matrix().entries, expected)


def test_leaf_attach_update_hand_case():
    att = LeafAttachment(SymMatrix([[2.0]]), 1, 1.0, 2.0)
    updated = leaf_attach_inverse_update(SymMatrix([[0.5]]), att)
    np.testing.assert_allclose(
        updated.entries, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-15
    )
    np.testing.assert_array_equal(att.attached_matrix().entries, [[2, 1], [1, 2]])


def test_two_attachments_rebuild_path_inverse():
    inverse = SymMatrix([[0.5]])
    base = SymMatrix([[2.0]])
    for attach_at in (1, 2):
        att = LeafAttachment(base, attach_at, 1.0, 2.0)
        inverse = leaf_attach_inverse_update(inverse, att)
        base = att.attached_matrix()
    assert base == PATH3_MATRIX
    direct = cholesky_invert(PATH3_MATRIX)
    assert np.abs(inverse.entries - direct.entries).max() <= 1e-9 * 3


def test_leaf_attach_update_border_is_negative_multiple_of_column():
    rng = np.random.default_rng(6)
    g = random_tree(9, rng)
    a = random_tree_dn_matrix(g, rng)
    inv = cholesky_invert(a)
    att = LeafAttachment(a, 4, 1.3, 5.0)
    updated = leaf_attach_inverse_update(inv, att).entries
    top = updated[:9, :9]
    np.testing.assert_allclose(updated[:9, 9], -(1.3 / 5.0) * top[:, 3], atol=1e-12)


def test_leaf_attach_update_rejects_schur_violation():
    # extending [[1]] with weight 1 and diagonal 0.5 gives an indefinite matrix
    att = LeafAttachment(SymMatrix([[1.0]]), 1, 1.0, 0.5)
    with pytest.raises(SchurNotPositiveDefinite):
        leaf_attach_inverse_update(SymMatrix([[1.0]]), att)


def test_leaf_attach_update_checks_dimensions():
    att = LeafAttachment(PATH3_MATRIX, 1, 1.0, 2.0)
    with pytest.raises(DimensionMismatch):
        leaf_attach_inverse_update(SymMatrix.identity(2), att)


def test_leaf_ratio_hand_case():
    report = leaf_ratio_check(PATH3_MATRIX, cholesky_invert(PATH3_MATRIX), PATH3)
    assert report.passed
    by_leaf = {r.leaf: r for r in report.ratios}
    assert set(by_leaf) == {1, 3}
    assert by_leaf[3].parent == 2
    assert by_leaf[3].ratio == pytest.approx(-0.5, abs=1e-12)
    assert by_leaf[1].ratio == pytest.approx(-0.5, abs=1e-12)


def test_leaf_ratio_matches_row_elimination_constant():
    # for leaf v with parent p, A A^{-1} = I on row v forces the ratio
    # -A[v,p] / A[v,v] between the two inverse columns
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_tree(int(rng.integers(3, 40)), rng)
        a = random_tree_dn_matrix(g, rng)
        report = leaf_ratio_check(a, cholesky_invert(a), g)
        assert report.passed
        for r in report.ratios:
            expected = -a[r.leaf - 1, r.parent - 1] / a[r.leaf - 1, r.leaf - 1]
            assert r.ratio == pytest.approx(expected, rel=1e-10)


def test_leaf_ratio_two_by_two_is_vacuous():
    g = UGraph(2, [(1, 2)])
    a = random_tree_dn_matrix(g, 0)
    report = leaf_ratio_check(a, cholesky_invert(a), g)
    assert report.passed
    assert report.ratios == ()


def test_leaf_ratio_skips_noise_dominated_rows():
    # a long path with unit weights and diagonal 3 pushes far entries below
    # the comparison floor, so some rows are skipped rather than checked
    n = 40
    g = UGraph(n, [(i, i + 1) for i in range(1, n)])
    arr = np.zeros((n, n))
    for i in range(1, n):
        arr[i - 1, i] = arr[i, i - 1] = 1.0
    np.fill_diagonal(arr, 3.0)
    a = SymMatrix(arr)
    report = leaf_ratio_check(a, cholesky_invert(a), g)
    assert report.passed
    assert any(r.rows_skipped > 0 for r in report.ratios)


def test_leaf_ratio_input_validation():
    inv = cholesky_invert(PATH3_MATRIX)
    with pytest.raises(NotATree):
        leaf_ratio_check(PATH3_MATRIX, inv, TRIANGLE)
    with pytest.raises(DimensionMismatch):
        leaf_ratio_check(PATH3_MATRIX, inv, UGraph(4, [(1, 2), (2, 3), (3, 4)]))


def test_exact_inverse_column_matches_float_inverse():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(1, 11))
        arr = random_tree_dn_matrix(random_tree(n, rng), rng).entries
        ref = np.linalg.inv(arr)
        scale = np.abs(ref).max()
        for k in range(n):
            numerators, denominator = exact_inverse_column(arr, k)
            assert denominator > 0
            column = np.array([float(Fraction(y, denominator)) for y in numerators])
            assert np.abs(column - ref[:, k]).max() <= 1e-12 * scale


def test_exact_inverse_column_rejects_non_tree_and_indefinite():
    triangle = np.array([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]])
    with pytest.raises(ValueError, match="not a tree"):
        exact_inverse_column(triangle, 0)
    with pytest.raises(ValueError, match="not a tree"):
        exact_inverse_column(np.eye(2), 0)
    with pytest.raises(ValueError, match="not positive definite"):
        exact_inverse_column(np.array([[1.0, 2.0], [2.0, 1.0]]), 1)


def test_deep_path_minus_entries_fall_inside_zero_band():
    # Inverse entries decay geometrically with tree distance, so on deep trees
    # a predicted-MINUS entry can be negative yet smaller in magnitude than
    # the classification band. Exact rational arithmetic confirms the float
    # entry is genuinely tiny-but-negative, not rounding noise: sign_of then
    # reports PLUS for it, disagreeing with the structural prediction.
    n = 35
    arr = np.zeros((n, n))
    for i in range(1, n):
        arr[i - 1, i] = arr[i, i - 1] = 1.0
    np.fill_diagonal(arr, 3.0)
    numerators, denominator = exact_inverse_column(arr, 0)
    inv = cholesky_invert(SymMatrix(arr))
    tol = zero_threshold(inv.entries)
    target = Fraction(numerators[33], denominator)  # vertex 34, odd distance 33
    assert target < 0
    assert abs(float(target)) < tol
    assert abs(inv[0, 33]) < tol
    g = UGraph(n, [(i, i + 1) for i in range(1, n)])
    assert predict_tree_sign_pattern(g)[0, 33] == MINUS
    assert sign_of(inv)[0, 33] == PLUS
    # the float inverse still carries the right sign and magnitude here
    assert math.copysign(1.0, inv[0, 33]) == -1.0
    assert abs(inv[0, 33] - float(target)) < 0.01 * abs(float(target))


def test_random_tree_dn_matrix_realizes_graph():
    for seed in range(6):
        g = random_tree(14, seed)
        a = random_tree_dn_matrix(g, seed)
        assert matrix_graph(a) == g
        assert verify_doubly_nonnegative(a).passed


def test_random_tree_dn_matrix_strictly_dominant():
    g = random_tree(10, 42)
    arr = random_tree_dn_matrix(g, 42).entries
    offdiag = arr.sum(axis=1) - arr.diagonal()
    assert (arr.diagonal() > offdiag).all()


def test_random_tree_dn_matrix_single_edge():
    a = random_tree_dn_matrix(UGraph(2, [(1, 2)]), 1)
    assert a[0, 1] > 0
    assert verify_doubly_nonnegative(a).passed


def test_random_tree_dn_matrix_deterministic():
    g = random_tree(8, 3)
    assert random_tree_dn_matrix(g, 9) == random_tree_dn_matrix(g, 9)


def test_random_tree_dn_matrix_rejects_non_tree():
    with pytest.raises(NotATree):
        random_tree_dn_matrix(TRIANGLE, 0)


def _reference_leaf_ratio_check(a, a_inverse, g, tol_ratio=1e-8, rel_tol=1e-12):
    """The per-leaf loop that leaf_ratio_check vectorizes, kept as its reference."""
    inv = a_inverse.entries
    floor = 1e3 * zero_threshold(inv, rel_tol)
    ratios = []
    violations = []
    for v in range(1, g.n + 1):
        if g.degree(v) != 1:
            continue
        (p,) = g.neighbors(v)
        rows = np.array([j for j in range(1, g.n + 1) if j not in (v, p)])
        if rows.size == 0:
            continue
        x = inv[rows - 1, v - 1]
        y = inv[rows - 1, p - 1]
        usable = ~((np.abs(x) < floor) & (np.abs(y) < floor))
        skipped = int((~usable).sum())
        if not usable.any():
            ratios.append(LeafRatio(v, p, float("nan"), 0.0, 0, skipped))
            continue
        xu = x[usable]
        yu = y[usable]
        anchor = int(np.argmax(np.abs(yu)))
        if yu[anchor] == 0.0:
            violations.append(f"leaf {v}: parent column vanishes on comparable rows")
            continue
        kappa = float(xu[anchor] / yu[anchor])
        scale = np.maximum(np.maximum(np.abs(xu), np.abs(kappa * yu)), 1e-300)
        max_dev = float((np.abs(xu - kappa * yu) / scale).max())
        ratios.append(LeafRatio(v, p, kappa, max_dev, int(usable.sum()), skipped))
        if kappa >= 0.0:
            violations.append(f"leaf {v}: ratio {kappa:g} is not negative")
        if max_dev > tol_ratio:
            violations.append(
                f"leaf {v}: relative deviation {max_dev:.3e} exceeds {tol_ratio:g}"
            )
    return LeafRatioReport(tuple(ratios), tuple(violations))


def _same_report(report, reference):
    # to_dict turns NaN ratios into None, so equal reports compare equal
    assert report.to_dict() == reference.to_dict()


def test_leaf_ratio_check_equals_reference_loop_on_true_inverses():
    rng = np.random.default_rng(31)
    for _ in range(60):
        g = random_tree(int(rng.integers(1, 80)), rng)
        a = random_tree_dn_matrix(g, rng)
        inv = cholesky_invert(a)
        for rel_tol in (1e-12, 1e-6, 0.5):  # 0.5 skips every row: NaN ratios
            _same_report(
                leaf_ratio_check(a, inv, g, rel_tol=rel_tol),
                _reference_leaf_ratio_check(a, inv, g, rel_tol=rel_tol),
            )


def test_leaf_ratio_check_reads_tol_ratio_at_call_time(monkeypatch):
    # a threshold below the rounding error of true inverses turns their
    # deviations into violations
    monkeypatch.setattr(treesign, "TOL_RATIO", 1e-18)
    rng = np.random.default_rng(33)
    violations = 0
    for _ in range(60):
        g = random_tree(int(rng.integers(1, 80)), rng)
        a = random_tree_dn_matrix(g, rng)
        inv = cholesky_invert(a)
        for rel_tol in (1e-12, 1e-6, 0.5):
            report = leaf_ratio_check(a, inv, g, rel_tol=rel_tol)
            _same_report(
                report, _reference_leaf_ratio_check(a, inv, g, tol_ratio=1e-18, rel_tol=rel_tol)
            )
            violations += sum("exceeds 1e-18" in v for v in report.violations)
    assert violations


def test_leaf_ratio_check_equals_reference_loop_on_arbitrary_matrices():
    # symmetric matrices that are no inverse at all reach every violation:
    # positive ratios, large deviations, vanishing parent columns
    rng = np.random.default_rng(32)
    for _ in range(60):
        g = random_tree(int(rng.integers(3, 30)), rng)
        arr = rng.normal(size=(g.n, g.n)) * (rng.random((g.n, g.n)) < 0.6)
        arr = arr + arr.T
        k = int(rng.integers(g.n))
        arr[:, k] = arr[k, :] = 0.0
        m = SymMatrix(arr)
        _same_report(leaf_ratio_check(m, m, g), _reference_leaf_ratio_check(m, m, g))


def test_leaf_ratio_check_reports_vanishing_parent_column():
    g = UGraph(3, [(1, 2), (2, 3)])
    m = SymMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    report = leaf_ratio_check(m, m, g)
    assert report.violations == (
        "leaf 1: parent column vanishes on comparable rows",
        "leaf 3: parent column vanishes on comparable rows",
    )
    _same_report(report, _reference_leaf_ratio_check(m, m, g))


@pytest.mark.parametrize(
    "g, leaves",
    [
        (UGraph(1), ()),
        (UGraph(2, [(1, 2)]), ()),  # both vertices are leaves, with no rows to compare
        (UGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), ((1, 2), (5, 4))),
        (UGraph(5, [(3, 1), (3, 2), (3, 4), (3, 5)]), ((1, 3), (2, 3), (4, 3), (5, 3))),
        (UGraph(4, [(1, 4), (4, 2), (4, 3)]), ((1, 4), (2, 4), (3, 4))),
        (UGraph(4, [(1, 2), (2, 3), (2, 4)]), ((1, 2), (3, 2), (4, 2))),
    ],
    ids=["n1", "n2", "path", "star", "star-vertex1-leaf", "vertex1-leaf"],
)
def test_tree_layout_edge_cases(g, leaves):
    a = random_tree_dn_matrix(g, 4)
    assert matrix_graph(a) == g
    inv = cholesky_invert(a)
    report = leaf_ratio_check(a, inv, g)
    assert report.passed
    assert tuple((r.leaf, r.parent) for r in report.ratios) == leaves
    _same_report(report, _reference_leaf_ratio_check(a, inv, g))
    coloring = two_coloring(g)
    assert coloring.color_of(1) == 0
    assert all(coloring.differ(i, j) for i, j in g.edges)
    assert predict_tree_sign_pattern(g) == sign_of(inv)


def _graphs_with_n_minus_1_edges(rng):
    """Trees and non-trees with n - 1 edges, under random vertex labels."""
    for _ in range(60):
        n = int(rng.integers(1, 60))
        yield random_tree(n, rng)
        labels = rng.permutation(np.arange(1, n + 1))
        if n >= 4:  # a cycle through n - 1 vertices, and one isolated vertex
            ring = labels[:-1]
            yield UGraph(n, np.column_stack((ring, np.roll(ring, 1))))
        if n >= 2:  # n - 1 distinct random pairs: cycles, components, now and then a tree
            pairs = np.array(list(itertools.combinations(range(1, n + 1), 2)))
            yield UGraph(n, pairs[rng.choice(len(pairs), n - 1, replace=False)])
    for n in (300, 700):  # paths with depths beyond 255 from vertex 1
        labels = rng.permutation(np.arange(1, n + 1))
        yield UGraph(n, np.column_stack((labels[:-1], labels[1:])))


def _reference_layout(g):
    """(parity, leaves, leaf neighbours) by vertex number from networkx and
    bfs_distances, or None when networkx finds no tree."""
    nxg = networkx.Graph()
    nxg.add_nodes_from(range(1, g.n + 1))
    nxg.add_edges_from(g.edges)
    if not networkx.is_tree(nxg):
        return None
    depth = bfs_distances(g, 1)
    assert depth == networkx.single_source_shortest_path_length(nxg, 1)
    leaves = [v for v in range(1, g.n + 1) if nxg.degree(v) == 1]
    return [depth[v] % 2 for v in range(1, g.n + 1)], leaves, [next(iter(nxg[v])) for v in leaves]


def test_tree_layout_matches_a_networkx_and_bfs_distances_reference():
    # the two-coloring read off the forest, and the leaves and their
    # neighbours that leaf_ratio_check takes from the edge array
    trees = 0
    for g in _graphs_with_n_minus_1_edges(np.random.default_rng(51)):
        expected = _reference_layout(g)
        assert is_tree(g) == (expected is not None)
        if expected is None:
            with pytest.raises(NotATree):
                two_coloring(g)
            continue
        trees += 1
        parity, leaves, leaf_nbrs = expected
        assert list(two_coloring(g).colors) == parity
        if g.n >= 3:  # below, no leaf has a row to compare
            a = random_tree_dn_matrix(g, trees)
            report = leaf_ratio_check(a, cholesky_invert(a), g)
            assert [(r.leaf, r.parent) for r in report.ratios] == list(zip(leaves, leaf_nbrs))
    assert trees > 60


def _count_walks(monkeypatch) -> list[int]:
    """The source of every graphs._bfs walk from here on, in call order."""
    walks = []
    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", lambda g, source, *rest: walks.append(source) or bfs(g, source, *rest))
    return walks


def test_one_graph_is_walked_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    g = random_tree(40, 3)
    a = random_tree_dn_matrix(g, 3)
    inv = cholesky_invert(a)
    predict_tree_sign_pattern(g)
    predict_tree_sign_rows(g)
    two_coloring(g)
    leaf_ratio_check(a, inv, g)
    assert is_tree(g)
    assert len(connected_components(g)) == 1
    assert walks == [1]  # one walk, from vertex 1


def test_a_forest_is_walked_once_per_component(monkeypatch):
    walks = _count_walks(monkeypatch)
    g = UGraph(6, [(2, 5), (5, 6), (3, 4)])
    for _ in range(2):  # the second round reads the memo
        assert connected_components(g) == ((1,), (2, 5, 6), (3, 4))
        assert not is_tree(g)
    assert walks == [1, 2, 3]  # each component from its minimum vertex
    assert not is_tree(UGraph(6, [(1, 2)]))  # the edge count rules it out unwalked
    assert walks == [1, 2, 3]


def _labelled_trees(n):
    """Every labelled tree on vertices 1..n, n >= 3, one per Pruefer sequence."""
    for seq in itertools.product(range(n), repeat=n - 2):
        yield UGraph(n, [(i + 1, j + 1) for i, j in networkx.from_prufer_sequence(list(seq)).edges])


def test_census_of_theorem_2_on_every_labelled_tree_up_to_six_vertices():
    count = 0
    for n in range(3, 7):
        for g in _labelled_trees(n):
            count += 1
            assert is_tree(g)
            coloring = two_coloring(g)
            assert all(coloring.differ(i, j) for i, j in g.edges)
            arr = random_tree_dn_matrix(g, count).entries
            # column k of the symmetric inverse is its row k
            exact = [[(y > 0) - (y < 0) for y in exact_inverse_column(arr, k)[0]] for k in range(n)]
            assert predict_tree_sign_pattern(g).signs.tolist() == exact
    assert count == 3 + 4**2 + 5**3 + 6**4


def test_census_of_is_tree_and_components_on_every_graph_with_n_minus_1_edges():
    count = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for edges in itertools.combinations(pairs, n - 1):
            count += 1
            g = UGraph(n, edges)
            nxg = networkx.Graph(edges)
            nxg.add_nodes_from(range(1, n + 1))
            assert is_tree(g) == networkx.is_tree(nxg)
            expected = sorted(tuple(sorted(c)) for c in networkx.connected_components(nxg))
            assert connected_components(g) == tuple(expected)
    assert count == 1 + 1 + 3 + 20 + 210 + 3003


def test_non_tree_memo_does_not_leak():
    cycle = UGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    split = UGraph(4, [(1, 2), (1, 3), (2, 3)])  # three edges on four vertices
    for g in (cycle, split):
        for _ in range(2):  # the second round reads the memo
            assert not is_tree(g)
            for call in (two_coloring, predict_tree_sign_pattern):
                with pytest.raises(NotATree):
                    call(g)
            with pytest.raises(NotATree):
                random_tree_dn_matrix(g, 0)
            with pytest.raises(NotATree):
                odd_distance_predicate(g, 1, 2)
            with pytest.raises(NotATree):
                leaf_ratio_check(SymMatrix.identity(4), SymMatrix.identity(4), g)
    path = UGraph(4, [(1, 2), (2, 3), (3, 4)])
    assert is_tree(path)
    assert two_coloring(path).colors == (0, 1, 0, 1)
    assert path != cycle and is_tree(path) and not is_tree(cycle)


def test_random_tree_dn_matrix_draws_one_weight_per_edge_in_edge_order():
    # the per-edge scalar draws the generator replaced, as its reference
    for seed in range(20):
        g = random_tree(int(np.random.default_rng(seed).integers(1, 60)), seed)
        rng = np.random.default_rng(seed)
        arr = np.zeros((g.n, g.n))
        for i, j in g.edges:
            arr[i - 1, j - 1] = arr[j - 1, i - 1] = rng.uniform(0.5, 2.0)
        np.fill_diagonal(arr, arr.sum(axis=1) + rng.uniform(0.1, 1.0, size=g.n))
        after = rng.random()
        shared = np.random.default_rng(seed)
        assert random_tree_dn_matrix(g, shared) == SymMatrix(arr)
        assert shared.random() == after  # the stream continues where it did


def _deep_random_tree():
    """400 vertices: a 300-vertex spine from vertex 1, then twigs on random earlier vertices."""
    rng = np.random.default_rng(11)
    labels = np.concatenate(([1], rng.permutation(np.arange(2, 401))))
    parent = np.concatenate((np.arange(299), (rng.random(100) * np.arange(300, 400)).astype(int)))
    return UGraph(400, np.column_stack((labels[1:], labels[parent])))


@pytest.mark.parametrize(
    "g",
    [UGraph(300, [(i, i + 1) for i in range(1, 300)]), _deep_random_tree()],
    ids=["path300", "deep-random"],
)
def test_tree_functions_on_trees_deeper_than_int8_depths(g):
    # a layout that narrowed BFS depths to int8 before taking their parity
    # would overflow from depth 128 on
    depth = bfs_distances(g, 1)
    assert max(depth.values()) > 255
    parity = np.array([depth[v] % 2 for v in range(1, g.n + 1)])
    assert two_coloring(g).colors == tuple(parity.tolist())
    expected = np.where(parity[:, None] != parity[None, :], MINUS, PLUS)
    assert np.array_equal(predict_tree_sign_pattern(g).signs, expected)
    a = random_tree_dn_matrix(g, 3)
    assert matrix_graph(a) == g
    report = leaf_ratio_check(a, cholesky_invert(a), g)
    assert report.passed
    leaves = [v for v in range(1, g.n + 1) if g.degree(v) == 1]
    assert [(r.leaf, r.parent) for r in report.ratios] == [
        (v, min(g.neighbors(v))) for v in leaves
    ]
