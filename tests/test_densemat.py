import ctypes
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dninverse import (
    AsymmetricMatrix,
    LeafAttachment,
    NotConverged,
    NotPositiveDefinite,
    SymMatrix,
    cholesky_invert,
    construct_witness,
    leaf_attach_inverse_update,
    matrix_graph,
    min_eigenvalue,
    random_dn_matrix,
    random_feasible_sign_matrix,
    random_tree,
    random_tree_dn_matrix,
    verify_doubly_nonnegative,
    zero_threshold,
)
from dninverse import densemat
from dninverse.densemat import _band_signs, single_blas_thread

PATH3 = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
PATH3_INVERSE = np.array([[3, -2, 1], [-2, 4, -2], [1, -2, 3]]) / 4.0


def test_construction_symmetrizes_small_noise():
    a = SymMatrix([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
    assert a[0, 1] == a[1, 0]


def test_construction_rejects_real_asymmetry():
    with pytest.raises(AsymmetricMatrix):
        SymMatrix([[1.0, 0.2], [0.1, 1.0]])
    # mirrors of opposite sign whose difference overflows: no overflow warning
    big = np.finfo(float).max
    with pytest.raises(AsymmetricMatrix, match="asymmetry inf"):
        SymMatrix([[1e308, -big], [1e308, -big]])


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
    assert cholesky_invert(SymMatrix([[4.0]])) == SymMatrix([[0.25]])


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


def _exact_inverse(arr: np.ndarray) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of the float matrix ``arr`` in rational arithmetic."""
    n = len(arr)
    rows = [
        [Fraction(float(x)) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(arr)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def test_cholesky_invert_meets_the_forward_error_bound_on_ill_conditioned_dn_matrices():
    # b b^T with b of size n x (n-1) is singular, so a ridge of 1e-11..1e-6
    # puts kappa_1 near 1e12 at worst. Each entry of the float inverse X must
    # lie within n u kappa_1 max|X| of the exact inverse of the stored matrix.
    rng = np.random.default_rng(2024)
    unit_roundoff = 2.0**-53
    for _ in range(60):
        n = int(rng.integers(2, 9))
        b = rng.random((n, n - 1))
        a = SymMatrix(b @ b.T + 10.0 ** rng.uniform(-11, -6) * np.eye(n))
        x = cholesky_invert(a).entries
        exact = _exact_inverse(a.entries)
        error = np.array(
            [[abs(Fraction(float(x[i, j])) - exact[i][j]) for j in range(n)] for i in range(n)],
            dtype=float,
        )
        exact_norm = max(sum(abs(row[j]) for row in exact) for j in range(n))
        kappa = float(np.abs(a.entries).sum(axis=0).max() * exact_norm)
        assert error.max() <= n * unit_roundoff * kappa * np.abs(x).max()


def test_cholesky_invert_of_a_large_matrix_is_square_symmetric_and_an_inverse():
    rng = np.random.default_rng(300)
    b = rng.random((300, 300))
    a = SymMatrix(b @ b.T + 0.3 * np.eye(300))
    x = cholesky_invert(a).entries
    assert x.shape == (300, 300)
    assert np.array_equal(x, x.T)
    assert np.abs(a.entries @ x - np.eye(300)).max() <= 1e-9 * 300


def test_kernels_reject_an_inverse_that_overflows():
    # the pivot floor is relative, so a lone subnormal entry passes it and its
    # inverse overflows; the kernels must not hand inf on to the sign code
    with pytest.raises(ValueError, match="finite"):
        cholesky_invert(SymMatrix([[1e-310]]))
    base = SymMatrix([[1.0]])
    with pytest.raises(ValueError, match="finite"):
        leaf_attach_inverse_update(base, LeafAttachment(base, 1, 1e-160, 1e-310))
    with pytest.raises(ValueError, match="finite"):
        SymMatrix._trusted(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_cholesky_invert_returns_the_inverse_it_formed_first(dpotrf_calls):
    a = SymMatrix(PATH3)
    inverse = cholesky_invert(a)
    assert cholesky_invert(a) is inverse
    assert dpotrf_calls == [3]
    assert inverse._inverse is None  # no reference back to a, so no cycle
    assert a == SymMatrix(PATH3) and SymMatrix(PATH3) == a  # == ignores the memo
    assert cholesky_invert(inverse) is not a  # a new matrix, factored on its own
    assert dpotrf_calls == [3, 3]


@pytest.mark.parametrize("verdict_first", [True, False], ids=["verdict-first", "inverse-first"])
def test_the_verdict_and_the_inverse_share_one_factorization(dpotrf_calls, verdict_first):
    a = SymMatrix(PATH3)
    if verdict_first:
        assert verify_doubly_nonnegative(a).is_positive_definite
        inverse = cholesky_invert(a)
    else:
        inverse = cholesky_invert(a)
        assert verify_doubly_nonnegative(a).is_positive_definite
    np.testing.assert_allclose(inverse.entries, PATH3_INVERSE, atol=1e-15)
    assert dpotrf_calls == [3]


def test_a_failed_factorization_is_not_kept(dpotrf_calls):
    a = SymMatrix([[1.0, 2.0], [2.0, 1.0]])
    messages = []
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_invert(a)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert dpotrf_calls == [2, 2]
    assert not verify_doubly_nonnegative(a).is_positive_definite
    assert dpotrf_calls == [2, 2, 2]


def test_the_verdict_of_a_matrix_whose_inverse_overflows_raises():
    # the verdict forms the inverse, so it meets the overflow that verify exits 2 on
    with pytest.raises(ValueError, match="finite"):
        verify_doubly_nonnegative(SymMatrix([[5e-324]]))


def test_a_failing_eigensolver_raises_not_converged(monkeypatch):
    lib = densemat._openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS whose dsyevr could fail")
    dsyevr = lib.scipy_dsyevr_64_

    def failing(*args):
        dsyevr(*args)
        args[20].value = 2  # INFO: two eigenvalues failed to converge

    monkeypatch.setattr(lib, "scipy_dsyevr_64_", failing)
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(NotConverged, match="symmetric eigensolver failed: LAPACK dsyevr info 2"):
        min_eigenvalue(a)


def test_a_failing_numpy_eigensolver_raises_not_converged(no_openblas, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(NotConverged, match="symmetric eigensolver failed: no convergence"):
        min_eigenvalue(a)


def test_the_numpy_kernels_keep_the_pivot_floor_and_the_exception_types(no_openblas):
    with pytest.raises(NotPositiveDefinite, match=r"Cholesky pivot .* at or below floor"):
        cholesky_invert(SymMatrix([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
    with pytest.raises(NotPositiveDefinite, match="Cholesky factorization failed"):
        cholesky_invert(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        cholesky_invert(SymMatrix([[1e-310]]))
    np.testing.assert_allclose(cholesky_invert(SymMatrix(PATH3)).entries, PATH3_INVERSE, atol=1e-15)
    assert min_eigenvalue(SymMatrix(PATH3)) == pytest.approx(2.0 - math.sqrt(2.0))


@pytest.fixture
def scipy_lapack():
    """``scipy.linalg.lapack`` with scipy's own OpenBLAS pool on one thread, as numpy's
    runs inside :func:`single_blas_thread`: a thread count can move a last bit."""
    site = Path(scipy.__file__).resolve().parent.parent
    libs = sorted(site.glob("scipy.libs/libscipy_openblas-*.so"))
    if not libs:
        pytest.skip("scipy is not linked to its bundled OpenBLAS")
    lib = ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD)
    saved = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    yield scipy.linalg.lapack
    lib.scipy_openblas_set_num_threads(saved)


def _reference_matrices():
    """Tree matrices (n = 2..100), dense DN draws (n = 100..300) and witness Q matrices."""
    rng = np.random.default_rng(22)
    for n in range(2, 101):
        yield random_tree_dn_matrix(random_tree(n, rng), rng)
    for n in range(100, 301, 20):
        yield random_dn_matrix(n, float(rng.uniform(0.3, 1.0)), rng)
    for n in (2, 5, 40, 120):
        yield construct_witness(random_feasible_sign_matrix(n, rng))
    yield SymMatrix(np.asfortranarray(random_dn_matrix(50, 0.5, rng).entries))


def test_the_bound_lapack_is_scipys_bit_for_bit(scipy_lapack):
    # numpy's OpenBLAS runs the kernels; scipy's is the reference. A misspelt
    # symbol would fall back to numpy.linalg silently, so the bound path must
    # be the one running wherever numpy bundles its OpenBLAS.
    site = Path(np.__file__).resolve().parent.parent
    if sorted(site.glob(densemat._OPENBLAS)):
        assert densemat._openblas() is not None
    else:
        pytest.skip("numpy bundles no OpenBLAS")
    with single_blas_thread():
        for a in _reference_matrices():
            upper, info = scipy_lapack.dpotrf(a.entries.T, lower=0, clean=1)
            assert info == 0
            assert densemat._cholesky_factor(a).tobytes("F") == upper.tobytes("F"), a.n
            uinv, info = scipy_lapack.dtrtri(upper, lower=0, overwrite_c=1)
            assert info == 0
            assert cholesky_invert(a).entries.tobytes() == (uinv @ uinv.T).tobytes(), a.n
            expected = scipy.linalg.eigh(a.entries, eigvals_only=True, subset_by_index=(0, 0))[0]
            assert min_eigenvalue(a) == expected, a.n


def test_min_eigenvalue_is_scipys_eigvalsh_bit_for_bit(scipy_lapack):
    # the fixture runs scipy's pool on one thread, as numpy's runs here
    a = random_dn_matrix(300, 1.0, seed=7)
    with single_blas_thread():
        assert min_eigenvalue(a) == scipy.linalg.eigvalsh(a.entries, subset_by_index=(0, 0))[0]


def test_min_eigenvalue_hand_cases():
    assert min_eigenvalue(SymMatrix.identity(3)) == pytest.approx(1.0)
    assert min_eigenvalue(SymMatrix([[2.0, -1.0], [-1.0, 2.0]])) == pytest.approx(1.0)
    assert min_eigenvalue(SymMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)


def test_min_eigenvalue_inverse_reciprocal_of_dominant():
    rng = np.random.default_rng(3)
    b = rng.random((6, 6))
    a = SymMatrix(b @ b.T + 6e-6 * np.eye(6))
    lam = np.linalg.eigvalsh(a.entries)[-1]
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


def _off_diagonal(x):
    """[[1, x], [x, 1]]: its band edge is ``zero_threshold`` of it, 1e-12 for |x| <= 1."""
    return SymMatrix([[1.0, x], [x, 1.0]])


def test_matrix_graph_and_irreducibility_at_the_band_edge():
    bound = zero_threshold(_off_diagonal(0.0).entries)
    assert bound == 1e-12
    at_edge = _off_diagonal(bound)  # inside the band: no edge
    assert matrix_graph(at_edge).edges == ()
    assert not verify_doubly_nonnegative(at_edge).is_irreducible
    past_edge = _off_diagonal(np.nextafter(bound, 1.0))
    assert matrix_graph(past_edge).edges == ((1, 2),)
    assert verify_doubly_nonnegative(past_edge).is_irreducible


def test_nonnegativity_at_the_band_edge():
    bound = zero_threshold(_off_diagonal(0.0).entries)
    at_edge = verify_doubly_nonnegative(_off_diagonal(-bound))
    assert at_edge.is_entrywise_nonneg
    assert at_edge.worst_negative_entry == -bound
    past_edge = verify_doubly_nonnegative(_off_diagonal(np.nextafter(-bound, -1.0)))
    assert not past_edge.is_entrywise_nonneg
    # -0.0 is in the band, and the worst negative entry is then 0.0, not -0.0
    signed_zero = verify_doubly_nonnegative(_off_diagonal(-0.0))
    assert signed_zero.is_entrywise_nonneg
    assert math.copysign(1.0, signed_zero.worst_negative_entry) == 1.0


def test_band_signs_classifies_below_inside_and_above_the_band():
    values = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
    signs = _band_signs(values, 0.5)
    assert signs.dtype == np.int8
    assert signs.tolist() == [-1, 0, 0, 0, 0, 0, 1]
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    signs = _band_signs(np.array([-tiny, -0.0, 0.0, tiny]), 0.0)
    assert signs.tolist() == [-1, 0, 0, 1]  # at a zero bound both zeros are in the band


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


def _producer_outputs(n, seed):
    """One output of every producer that stores its result through the trusted constructor."""
    tree = random_tree_dn_matrix(random_tree(n, seed), seed)
    attach = LeafAttachment(tree, 1 + seed % n, 0.5 + seed / 10, float(tree.entries.sum()))
    witness = construct_witness(random_feasible_sign_matrix(n, seed))
    out = [
        tree,
        cholesky_invert(tree),
        attach.attached_matrix(),
        leaf_attach_inverse_update(cholesky_invert(tree), attach),
        witness,
        cholesky_invert(witness),
    ]
    if n >= 2:
        dense = random_dn_matrix(n, 0.7, seed)
        out += [dense, cholesky_invert(dense)]
    return out


def _kernel_outputs():
    return [a for seed in range(12) for a in _producer_outputs(2 + seed * 7, seed)]


def test_trusted_constructor_is_bit_identical_to_the_public_one(monkeypatch):
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 40):
        raw = rng.standard_normal((n, n))
        raw = raw.T @ raw  # exactly symmetric, as every producer's array is
        public = SymMatrix(raw)
        trusted = SymMatrix._trusted(raw)
        assert trusted.entries is raw  # stored as built, not copied
        assert np.array_equal(trusted.entries, public.entries)
        assert not trusted.entries.flags.writeable
    # the producers as they were: symmetrize, then the public constructor
    trusted = _kernel_outputs()
    monkeypatch.setattr(
        SymMatrix, "_trusted", classmethod(lambda cls, arr: cls((arr + arr.T) / 2.0))
    )
    public = _kernel_outputs()
    for mine, theirs in zip(trusted, public, strict=True):
        assert np.array_equal(mine.entries, theirs.entries)


def test_every_producer_builds_an_exactly_symmetric_matrix(monkeypatch):
    # no producer may lean on the public constructor's symmetrization
    def public_constructor(self, entries):
        raise AssertionError("a producer called the public SymMatrix constructor")

    monkeypatch.setattr(SymMatrix, "__init__", public_constructor)
    for seed, n in enumerate((1, 2, 3, 5, 16, 64, 150, 300)):
        for a in _producer_outputs(n, seed):
            assert np.array_equal(a.entries, a.entries.T)
            assert not a.entries.flags.writeable


def test_symmetrizing_entries_near_the_float_maximum_does_not_overflow():
    big = np.finfo(float).max
    raw = np.array([[big, 1.0], [1.0, big]])
    for a in (SymMatrix(raw), SymMatrix._trusted(raw.copy())):
        assert np.isfinite(a.entries).all()
        assert np.array_equal(a.entries, raw)
    verdict = verify_doubly_nonnegative(SymMatrix(raw))
    assert verdict.is_positive_definite and verdict.is_entrywise_nonneg
    assert not verdict.is_irreducible  # 1 is inside the zero band of 1.8e308


def test_symmetrizing_normal_range_entries_matches_the_plain_average_bit_for_bit():
    # halving is exact outside the subnormal range, so the overflow-safe form
    # stores what (arr + arr^T) / 2 did, and leaves an exactly symmetric array
    # as the trusted constructor stores it
    rng = np.random.default_rng(8)
    for scale in (1e-290, 1e-8, 1.0, 1e8, 1e300):
        for n in (1, 2, 7, 40):
            raw = rng.standard_normal((n, n)) * scale
            raw = raw + raw.T
            assert np.array_equal(SymMatrix(raw).entries, raw)
            assert np.array_equal(SymMatrix._trusted(raw.copy()).entries, raw)
            raw[0, -1] *= 1 + 1e-15  # asymmetric within the public tolerance
            plain = (raw + raw.T) / 2.0
            assert np.array_equal(SymMatrix(raw).entries, plain)


@st.composite
def _nearly_symmetric(draw):
    """Square arrays whose mirrored entries differ by at most three ulps, with
    magnitudes anywhere from 1e-300 up to the float maximum."""
    n = draw(st.integers(1, 8))
    magnitude = st.floats(1e-300, np.finfo(float).max)
    entry = st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(lambda t: t[0] * t[1])
    upper = draw(arrays(float, (n, n), elements=entry))
    raw = np.triu(upper) + np.triu(upper, 1).T
    for _ in range(3):  # move some entries one ulp toward zero
        moved = draw(arrays(bool, (n, n)))
        raw = np.where(moved, np.nextafter(raw, 0.0), raw)
    return raw


@settings(max_examples=200, deadline=None)
@given(_nearly_symmetric())
def test_public_constructor_stores_an_exactly_symmetric_matrix(raw):
    a = SymMatrix(raw)
    x = a.entries
    assert np.array_equal(x, x.T)
    assert np.isfinite(x).all()
    scale = float(np.abs(raw).max())
    assert float(np.abs(x - raw).max()) <= 1e-12 * scale


def test_exactly_symmetric_subnormal_entries_are_kept_as_given():
    tiny = 5e-324  # halving it would round to zero
    assert SymMatrix([[tiny]]).entries[0, 0] == tiny
    a = SymMatrix([[1.0, tiny], [tiny, 1.0]])
    assert a[0, 1] == a[1, 0] == tiny


def test_mirrored_signed_zeros_are_stored_as_one_zero():
    # 0.0 and -0.0 compare equal but differ in the sign bit: averaged to 0.0
    a = SymMatrix([[1.0, -0.0], [0.0, 1.0]]).entries
    assert not np.signbit(a).any()
    assert np.array_equal(SymMatrix([[1.0, -0.0], [-0.0, 1.0]]).entries.view(np.int64),
                          np.array([[1.0, -0.0], [-0.0, 1.0]]).view(np.int64))


@st.composite
def _exactly_symmetric(draw):
    """Square arrays mirrored bit for bit, over all finite floats: subnormals,
    signed zeros and magnitudes up to the float maximum."""
    n = draw(st.integers(1, 8))
    tiny = np.finfo(float).smallest_normal
    entry = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-tiny, tiny))
    raw = draw(arrays(float, (n, n), elements=entry))
    lower = np.tril_indices(n, -1)
    raw[lower] = raw.T[lower]
    return raw


@settings(max_examples=200, deadline=None)
@given(_exactly_symmetric())
def test_public_constructor_stores_exactly_symmetric_input_as_given(raw):
    x = SymMatrix(raw).entries
    assert np.array_equal(x, raw)
    assert np.array_equal(x.view(np.int64), raw.view(np.int64))
