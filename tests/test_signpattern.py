import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dninverse import (
    MINUS,
    PLUS,
    AsymmetricSignMatrix,
    InfeasiblePattern,
    SignMatrix,
    SymMatrix,
    ambiguous_signs,
    check_feasible,
    cholesky_invert,
    construct_witness,
    negative_sign_graph,
    predict_tree_sign_pattern,
    random_feasible_sign_matrix,
    sign_of,
    two_coloring,
    zero_threshold,
)
from dninverse.graphs import UGraph, is_connected, random_tree

SPLIT_ROWS = ["+-++", "-+++", "+++-", "++-+"]


def test_sign_matrix_row_round_trip():
    s = SignMatrix.from_rows(SPLIT_ROWS)
    assert s.to_rows() == SPLIT_ROWS
    assert s.n == 4
    assert s.is_symmetric


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        SignMatrix.from_rows(["+-", "+"])
    with pytest.raises(ValueError):
        SignMatrix.from_rows(["+0", "0+"])
    with pytest.raises(ValueError):
        SignMatrix(np.array([[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        SignMatrix(np.zeros((2, 3)))
    for wraps_to_a_sign in (257, 255, 1.5):  # int8 casting would turn these into +-1
        with pytest.raises(ValueError):
            SignMatrix(np.array([[1, wraps_to_a_sign], [wraps_to_a_sign, 1]]))


def _reference_to_rows(s):
    """The per-entry loop that SignMatrix.to_rows vectorizes."""
    return ["".join("+" if v == PLUS else "-" for v in row) for row in s.signs]


def _reference_from_rows(rows):
    """The per-character loop that SignMatrix.from_rows vectorizes."""
    n = len(rows)
    out = np.empty((n, n), dtype=np.int8)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} characters, expected {n}")
        for j, ch in enumerate(row):
            if ch not in "+-":
                raise ValueError(f"row {i + 1} has invalid character {ch!r}")
            out[i, j] = PLUS if ch == "+" else MINUS
    return SignMatrix(out)


def test_sign_matrix_rows_equal_reference_loops():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 17, 64):
        s = SignMatrix(np.where(rng.random((n, n)) < 0.5, MINUS, PLUS))
        rows = s.to_rows()
        assert rows == _reference_to_rows(s)
        assert SignMatrix.from_rows(rows) == _reference_from_rows(rows) == s


@pytest.mark.parametrize(
    "rows",
    [["+-", "+"], ["+0", "0+"], ["+-", "-+", "++"], ["++", "+x", "+"], ["+\u00e9", "-+"], []],
)
def test_sign_matrix_from_rows_names_the_first_bad_row(rows):
    with pytest.raises(ValueError) as expected:
        _reference_from_rows(rows)
    with pytest.raises(ValueError) as got:
        SignMatrix.from_rows(rows)
    assert str(got.value) == str(expected.value)


def test_sign_of_zero_maps_to_plus():
    zero = SymMatrix(np.zeros((2, 2)))
    assert sign_of(zero).to_rows() == ["++", "++"]


def test_sign_of_hand_cases():
    assert sign_of(SymMatrix([[2.0, -1.0], [-1.0, 2.0]])).to_rows() == ["+-", "-+"]
    path_inverse = SymMatrix(np.array([[3, -2, 1], [-2, 4, -2], [1, -2, 3]]) / 4.0)
    assert sign_of(path_inverse).to_rows() == ["+-+", "-+-", "+-+"]


def test_sign_of_band_boundary():
    # max entry 1.0 puts the band edge at 1e-12
    inside = SymMatrix([[1.0, -4e-13], [-4e-13, 1.0]])
    outside = SymMatrix([[1.0, -4e-12], [-4e-12, 1.0]])
    assert sign_of(inside)[0, 1] == PLUS
    assert sign_of(outside)[0, 1] == MINUS
    edge = SymMatrix([[1.0, -1e-12, -0.0], [-1e-12, 1.0, np.nextafter(-1e-12, -1.0)],
                      [-0.0, np.nextafter(-1e-12, -1.0), 1.0]])
    assert sign_of(edge).to_rows() == ["+++", "++-", "+-+"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(min_value=1e-6, max_value=1e6))
def test_sign_of_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((4, 4))
    a = SymMatrix(b + b.T)
    scaled = SymMatrix(scale * a.entries)
    assert sign_of(scaled) == sign_of(a)


def test_ambiguous_signs_positions():
    a = SymMatrix([[1.0, 0.0, 2e-13], [0.0, 1.0, -0.5], [2e-13, -0.5, 1.0]])
    assert ambiguous_signs(a) == [(1, 2), (1, 3)]
    assert ambiguous_signs(SymMatrix.identity(2)) == [(1, 2)]


def test_negative_sign_graph_hand_cases():
    assert negative_sign_graph(SignMatrix.from_rows(SPLIT_ROWS)).edges == ((1, 2), (3, 4))
    assert negative_sign_graph(SignMatrix.from_rows(["+++"] * 3)).edges == ()
    assert negative_sign_graph(SignMatrix.from_rows(["+-", "-+"])).edges == ((1, 2),)


def test_negative_sign_graph_requires_symmetry():
    lopsided = SignMatrix(np.array([[1, -1], [1, 1]]))
    with pytest.raises(AsymmetricSignMatrix):
        negative_sign_graph(lopsided)


def test_check_feasible_split_pattern():
    report = check_feasible(SignMatrix.from_rows(SPLIT_ROWS))
    assert not report.feasible
    assert report.symmetric_ok and report.diagonal_ok
    assert not report.delta_connected
    assert report.delta_components == ((1, 2), (3, 4))


def test_check_feasible_positive_cases():
    assert check_feasible(SignMatrix.from_rows(["+-", "-+"])).feasible
    # one vertex: the empty negative-sign graph is trivially connected
    assert check_feasible(SignMatrix.from_rows(["+"])).feasible


def test_check_feasible_all_plus_is_disconnected():
    report = check_feasible(SignMatrix.from_rows(["+++"] * 3))
    assert not report.feasible
    assert len(report.delta_components) == 3


def test_check_feasible_flags_asymmetry_without_raising():
    report = check_feasible(SignMatrix(np.array([[1, -1], [1, 1]])))
    assert not report.symmetric_ok
    assert not report.feasible


def _feasibility_on_an_edge_list(s):
    """check_feasible as it was on the UGraph path, kept as its reference."""
    arr = s.signs
    minus_either = (arr == MINUS) | (arr.T == MINUS)
    rows, cols = np.nonzero(np.triu(minus_either, k=1))
    connected, components = is_connected(UGraph(s.n, np.column_stack((rows + 1, cols + 1))))
    symmetric_ok = s.is_symmetric
    diagonal_ok = bool((arr.diagonal() == PLUS).all())
    return symmetric_ok and diagonal_ok and connected, symmetric_ok, diagonal_ok, connected, components


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_check_feasible_certificate_on_asymmetric_patterns_matches_edge_list_path(n, density, seed):
    rng = np.random.default_rng(seed)
    # each entry drawn on its own: asymmetric, and MINUS on the diagonal too
    s = SignMatrix(np.where(rng.random((n, n)) < density, MINUS, PLUS))
    report = check_feasible(s)
    assert (
        report.feasible,
        report.symmetric_ok,
        report.diagonal_ok,
        report.delta_connected,
        report.delta_components,
    ) == _feasibility_on_an_edge_list(s)


def test_check_feasible_flags_minus_diagonal():
    report = check_feasible(SignMatrix.from_rows(["--", "-+"]))
    assert not report.diagonal_ok


def test_construct_witness_hand_cases():
    q2 = construct_witness(SignMatrix.from_rows(["+-", "-+"]))
    np.testing.assert_array_equal(q2.entries, [[2, -1], [-1, 2]])
    q3 = construct_witness(SignMatrix.from_rows(["+-+", "-+-", "+-+"]))
    np.testing.assert_array_equal(q3.entries, [[3, -1, 0], [-1, 3, -1], [0, -1, 3]])
    q1 = construct_witness(SignMatrix.from_rows(["+"]))
    np.testing.assert_array_equal(q1.entries, [[1.0]])


def test_construct_witness_rejects_infeasible():
    with pytest.raises(InfeasiblePattern, match="connected"):
        construct_witness(SignMatrix.from_rows(SPLIT_ROWS))


def test_witness_is_strictly_diagonally_dominant():
    for seed in range(5):
        s = random_feasible_sign_matrix(9, seed)
        q = construct_witness(s).entries
        offdiag_sums = np.abs(q).sum(axis=1) - np.abs(q.diagonal())
        assert (q.diagonal() > offdiag_sums).all()


def test_witness_inverse_strictly_positive():
    for n in (2, 4, 11):
        s = random_feasible_sign_matrix(n, n)
        realized = cholesky_invert(construct_witness(s))
        assert realized.entries.min() > 0


def test_witness_itself_carries_the_pattern_with_zeros_at_off_diagonal_plus():
    for n in (2, 4, 11):
        s = random_feasible_sign_matrix(n, n)
        q = construct_witness(s)
        assert sign_of(q) == s
        plus_off = (s.signs == PLUS) & ~np.eye(n, dtype=bool)
        assert (q.entries[plus_off] == 0.0).all()


def test_random_feasible_sign_matrix_smallest_sizes():
    assert random_feasible_sign_matrix(1, 5).to_rows() == ["+"]
    # the spanning tree on two vertices forces the unique feasible pattern
    assert random_feasible_sign_matrix(2, 5).to_rows() == ["+-", "-+"]


def test_random_feasible_sign_matrix_always_feasible():
    for seed in range(10):
        for n in (3, 6, 17):
            assert check_feasible(random_feasible_sign_matrix(n, seed)).feasible


def test_random_feasible_sign_matrix_deterministic():
    assert random_feasible_sign_matrix(8, 123) == random_feasible_sign_matrix(8, 123)


def _assert_trusted_pattern(pattern, expected):
    """``pattern`` is stored as the trusted constructor stores it and equals ``expected``."""
    signs = pattern.signs
    assert signs.dtype == np.int8
    assert not signs.flags.writeable
    assert np.isin(signs, (PLUS, MINUS)).all()
    assert pattern == expected


def _public_sign_of(q, rel_tol=1e-12):
    arr = q.entries
    return SignMatrix(np.where(arr < -zero_threshold(arr, rel_tol), MINUS, PLUS))


def test_sign_of_builds_the_pattern_the_public_constructor_gives():
    rng = np.random.default_rng(19)
    band = 1e-12  # the band edge when the largest magnitude is 1.0
    edges = [-band, np.nextafter(-band, -1.0), np.nextafter(-band, 0.0), band, 0.0, -0.0]
    matrices = [SymMatrix(np.zeros((n, n))) for n in (1, 3)]
    matrices.append(SymMatrix(np.full((2, 2), -0.0)))
    for n in (1, 2, 5, 40, 200):
        raw = rng.standard_normal((n, n))
        matrices.append(SymMatrix(raw + raw.T))
        raw = rng.choice(edges, size=(n, n))
        lower = np.tril_indices(n, -1)
        raw[lower] = raw.T[lower]  # mirrored bit for bit, -0.0 included
        raw.flat[:: n + 1] = 1.0
        matrices.append(SymMatrix(raw))
    for q in matrices:
        for rel_tol in (0.0, 1e-12, 0.5):
            _assert_trusted_pattern(sign_of(q, rel_tol), _public_sign_of(q, rel_tol))


def test_predict_builds_the_pattern_the_public_constructor_gives():
    rng = np.random.default_rng(23)
    graphs = [UGraph(1), UGraph(2, [(1, 2)])] + [random_tree(n, rng) for n in (3, 10, 150, 600)]
    for g in graphs:
        colors = np.array(two_coloring(g).colors)
        expected = SignMatrix(np.where(colors[:, None] != colors[None, :], MINUS, PLUS))
        _assert_trusted_pattern(predict_tree_sign_pattern(g), expected)


def test_random_feasible_pattern_is_stored_as_a_trusted_pattern():
    for n in (1, 2, 9, 60):
        s = random_feasible_sign_matrix(n, n)
        _assert_trusted_pattern(s, SignMatrix(s.signs))
