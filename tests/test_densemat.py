import numpy as np
import pytest

from dninverse import (
    AsymmetricMatrix,
    LeafAttachment,
    NotConverged,
    NotPositiveDefinite,
    SymMatrix,
    cholesky_invert,
    leaf_attach_inverse_update,
    matrix_graph,
    min_eigenvalue,
    perron_eigenpair,
    random_dn_matrix,
    random_tree,
    random_tree_dn_matrix,
    verify_doubly_nonnegative,
    zero_threshold,
)

PATH3 = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
PATH3_INVERSE = np.array([[3, -2, 1], [-2, 4, -2], [1, -2, 3]]) / 4.0


def test_construction_symmetrizes_small_noise():
    a = SymMatrix([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
    assert a[0, 1] == a[1, 0]


def test_construction_rejects_real_asymmetry():
    with pytest.raises(AsymmetricMatrix):
        SymMatrix([[1.0, 0.2], [0.1, 1.0]])


def test_construction_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        SymMatrix([[np.nan]])


def test_entries_are_read_only():
    a = SymMatrix.identity(2)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 7.0


def test_equality():
    assert SymMatrix.identity(2) == SymMatrix(np.eye(2))
    assert SymMatrix.identity(2) != SymMatrix(2 * np.eye(2))


def test_zero_threshold_scales_with_magnitude():
    assert zero_threshold([[1.0, -3.0]]) == pytest.approx(3e-12)
    assert zero_threshold([[1e6]]) == pytest.approx(1e-6)


@pytest.mark.parametrize("rel", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300, 1.0])
def test_zero_threshold_rejects_invalid_relative_tolerance(rel):
    with pytest.raises(ValueError, match=r"finite and in \[0, 1\)"):
        zero_threshold([[1.0]], rel)


def test_zero_threshold_accepts_the_edges_of_its_range():
    assert zero_threshold([[2.0]], 0.0) == 0.0
    assert zero_threshold([[2.0]], 0.999) == pytest.approx(1.998)


def test_cholesky_invert_identity():
    assert cholesky_invert(SymMatrix.identity(3)) == SymMatrix.identity(3)


def test_cholesky_invert_hand_cases():
    inv2 = cholesky_invert(SymMatrix([[2.0, -1.0], [-1.0, 2.0]]))
    np.testing.assert_allclose(inv2.entries, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-15)
    inv3 = cholesky_invert(SymMatrix(PATH3))
    np.testing.assert_allclose(inv3.entries, PATH3_INVERSE, atol=1e-15)


def test_cholesky_invert_is_its_own_inverse():
    rng = np.random.default_rng(4)
    for n in (2, 7, 24, 50):
        b = rng.random((n, n))
        a = SymMatrix(b @ b.T + n * np.eye(n))
        back = cholesky_invert(cholesky_invert(a))
        assert np.abs(back.entries - a.entries).max() <= 1e-9 * n


def test_cholesky_invert_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_invert(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky_invert(SymMatrix([[0.0, 0.0], [0.0, 0.0]]))


def test_cholesky_invert_floors_tiny_pivots():
    # second pivot is ~1e-14 of the diagonal scale, below the relative floor
    with pytest.raises(NotPositiveDefinite):
        cholesky_invert(SymMatrix([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_kernels_reject_an_inverse_that_overflows():
    # the pivot floor is relative, so a lone subnormal entry passes it and its
    # inverse overflows; the kernels must not hand inf on to the sign code
    with pytest.raises(ValueError, match="finite"):
        cholesky_invert(SymMatrix([[1e-310]]))
    base = SymMatrix([[1.0]])
    with pytest.raises(ValueError, match="finite"):
        leaf_attach_inverse_update(base, LeafAttachment(base, 1, 1e-160, 1e-310))
    with pytest.raises(ValueError, match="finite"):
        SymMatrix._symmetrized(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_perron_eigenpair_hand_cases():
    pair = perron_eigenpair(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert pair.value == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(pair.vector, [1 / np.sqrt(2)] * 2, atol=1e-8)
    single = perron_eigenpair(SymMatrix([[5.0]]))
    assert single.value == pytest.approx(5.0)
    np.testing.assert_allclose(single.vector, [1.0])
    third = perron_eigenpair(SymMatrix(np.array([[2, 1], [1, 2]]) / 3.0))
    assert third.value == pytest.approx(1.0, abs=1e-10)


def test_perron_vector_strictly_positive_on_dn_input():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9):
        b = rng.random((n, n))
        a = SymMatrix(b @ b.T + 1e-6 * n * np.eye(n))
        pair = perron_eigenpair(a)
        assert (pair.vector > 0).all()
        residual = np.linalg.norm(a.entries @ pair.vector - pair.value * pair.vector)
        assert residual <= 1e-10 * max(1.0, pair.value)


def test_perron_eigenpair_reports_nonconvergence():
    # eigenvalues +1 and -1 tie in magnitude, so the iteration oscillates
    with pytest.raises(NotConverged):
        perron_eigenpair(SymMatrix([[1.0, 0.0], [0.0, -1.0]]))


def test_min_eigenvalue_hand_cases():
    assert min_eigenvalue(SymMatrix.identity(3)) == pytest.approx(1.0)
    assert min_eigenvalue(SymMatrix([[2.0, -1.0], [-1.0, 2.0]])) == pytest.approx(1.0)
    assert min_eigenvalue(SymMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)


def test_min_eigenvalue_inverse_reciprocal_of_dominant():
    rng = np.random.default_rng(3)
    b = rng.random((6, 6))
    a = SymMatrix(b @ b.T + 6e-6 * np.eye(6))
    lam = perron_eigenpair(a).value
    gamma = min_eigenvalue(cholesky_invert(a))
    assert gamma * lam == pytest.approx(1.0, abs=1e-9)


def test_min_eigenvalue_interlacing_spot_check():
    rng = np.random.default_rng(8)
    b = rng.random((7, 7))
    z = b @ b.T + 0.5 * np.eye(7)
    keep = [0, 2, 3, 6]
    sub = z[np.ix_(keep, keep)]
    assert min_eigenvalue(SymMatrix(sub)) >= min_eigenvalue(SymMatrix(z)) - 1e-10


def test_matrix_graph_reads_positive_pattern():
    assert matrix_graph(SymMatrix.identity(3)).edges == ()
    assert matrix_graph(SymMatrix(PATH3)).edges == ((1, 2), (2, 3))
    assert matrix_graph(SymMatrix(np.ones((3, 3)))).edges == ((1, 2), (1, 3), (2, 3))


def test_verify_doubly_nonnegative_accepts_textbook_case():
    verdict = verify_doubly_nonnegative(SymMatrix(np.array([[2, 1], [1, 2]]) / 3.0))
    assert verdict.passed
    assert verdict.min_eigenvalue == pytest.approx(1 / 3, abs=1e-12)
    assert verdict.worst_negative_entry == 0.0


def test_verify_doubly_nonnegative_flags_reducible():
    verdict = verify_doubly_nonnegative(SymMatrix.identity(2))
    assert not verdict.is_irreducible
    assert verdict.is_positive_definite and verdict.is_entrywise_nonneg
    assert not verdict.passed


def test_verify_doubly_nonnegative_flags_negative_entry():
    verdict = verify_doubly_nonnegative(SymMatrix([[1.0, -0.5], [-0.5, 1.0]]))
    assert not verdict.is_entrywise_nonneg
    assert verdict.worst_negative_entry == pytest.approx(-0.5)
    assert verdict.is_positive_definite


def test_verdict_serializes():
    doc = verify_doubly_nonnegative(SymMatrix.identity(2)).to_dict()
    assert doc["passed"] is False
    assert set(doc) == {
        "is_symmetric",
        "is_entrywise_nonneg",
        "is_positive_definite",
        "is_irreducible",
        "min_eigenvalue",
        "worst_negative_entry",
        "passed",
    }


def _kernel_outputs():
    """Inverses from both kernels that store their result through the trusted constructor."""
    out = []
    for seed in range(12):
        n = 2 + seed * 7
        a = random_dn_matrix(n, 0.7, seed)
        out.append(cholesky_invert(a))
        g = random_tree(n, seed)
        base = random_tree_dn_matrix(g, seed)
        attach = LeafAttachment(base, 1 + seed % n, 0.5 + seed / 10, float(base.entries.sum()))
        out.append(leaf_attach_inverse_update(cholesky_invert(base), attach))
    return out


def test_trusted_constructor_is_bit_identical_to_the_public_one(monkeypatch):
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 40):
        raw = rng.standard_normal((n, n))
        raw = raw.T @ raw
        raw[0, -1] *= 1 + 1e-15  # asymmetric within the public tolerance
        trusted = SymMatrix._symmetrized(raw)
        assert np.array_equal(trusted.entries, SymMatrix((raw + raw.T) / 2.0).entries)
        assert not trusted.entries.flags.writeable
    # the kernels as they were: symmetrize, then the public constructor
    trusted = _kernel_outputs()
    monkeypatch.setattr(
        SymMatrix, "_symmetrized", classmethod(lambda cls, arr: cls((arr + arr.T) / 2.0))
    )
    public = _kernel_outputs()
    for mine, theirs in zip(trusted, public, strict=True):
        assert np.array_equal(mine.entries, theirs.entries)
