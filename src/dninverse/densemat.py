"""Dense symmetric matrix kernels.

Construction with a symmetrization gate, Cholesky-based inversion (LAPACK
``potrf`` + ``trtri``) with a pivot floor, extremal eigenvalues, and the
doubly-nonnegative membership verdict. All tolerances are relative to the
scale of the input and overridable at the call sites that classify entries.
``scipy.linalg`` is imported by the first factorization, and
:func:`single_blas_thread` pins numpy's OpenBLAS pool and, as it loads,
scipy's.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AsymmetricMatrix, NotConverged, NotPositiveDefinite
from .graphs import UGraph, mask_components

REL_TOL_ZERO = 1e-12
REL_PIVOT_FLOOR = 1e-12
REL_TOL_RESIDUAL = 1e-9
REL_SYM_TOL = 1e-12
POWER_TOL = 1e-10
POWER_MAX_ITERS = 10_000

# numpy and scipy each bundle an OpenBLAS with its own thread pool:
# (package, library file pattern, thread-count getter, setter)
_OPENBLAS = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


# (setter, thread count) pairs that the outermost active single_blas_thread
# block puts back on exit; None outside any block. Process-wide, as the thread
# counts it records are.
_pinned = None


@functools.cache
def _linalg():
    """``scipy.linalg``, imported on the first call and then looked up in the cache.

    Only the factorizations and the eigensolver need LAPACK, so ``check`` and
    ``predict`` never load it (a third of a second at import). Importing it
    also loads scipy's OpenBLAS: inside a :func:`single_blas_thread` block,
    that pool is pinned to one thread here and restored with the others when
    the block ends.
    """
    import scipy.linalg

    if _pinned is not None:
        known = [setter for setter, _ in _pinned]  # ctypes functions do not hash
        _pinned.extend(_pin(pool for pool in _openblas_pools() if pool[1] not in known))
    return scipy.linalg


@functools.cache
def _openblas_pool(package, pattern, get_name, set_name):
    """(getter, setter) of a package's bundled OpenBLAS, or None when it bundles none.

    Raises KeyError while the package is not imported and OSError while its
    library is not loaded; an error is not cached, so the pool is looked for
    again on the next call. RTLD_NOLOAD only finds a library the process has
    loaded, so this never brings in a second copy.
    """
    module = sys.modules[package]  # a package not imported has not loaded its OpenBLAS either
    libs = sorted(Path(module.__file__).resolve().parent.parent.glob(pattern))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD)
    try:
        getter, setter = getattr(lib, get_name), getattr(lib, set_name)
    except AttributeError:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return getter, setter


def _openblas_pools() -> tuple:
    """(getter, setter) pairs of the bundled OpenBLAS libraries loaded so far.

    numpy's pool is found from the first call, since the package loads its
    library at import. scipy's is found once ``scipy.linalg`` (or another
    scipy module that links its OpenBLAS) has been imported; until then it
    is left out and looked for again on each call. Empty under any other
    BLAS build.
    """
    pools = []
    for entry in _OPENBLAS:
        try:
            pool = _openblas_pool(*entry)
        except (KeyError, OSError):
            continue
        if pool is not None:
            pools.append(pool)
    return tuple(pools)


def _pin(pools) -> list:
    """Set each (getter, setter) pool to one thread; its (setter, previous count) pairs."""
    saved = [(setter, getter()) for getter, setter in pools]
    for setter, _ in saved:
        setter(1)
    return saved


@contextmanager
def single_blas_thread():
    """Run the block with every OpenBLAS pool on one thread, then restore the counts.

    The matrices here are small enough that a second BLAS thread costs more
    in wake-ups than it saves. The thread count is process-wide, so only
    entry points use this. The pools are those :func:`_openblas_pools` finds
    on entry, plus scipy's when :func:`_linalg` loads it inside the block.
    Pools are left alone when OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set,
    and nothing happens under another BLAS build.
    """
    global _pinned
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        yield
        return
    saved = _pin(_openblas_pools())
    outermost = _pinned is None
    if outermost:
        _pinned = saved
    try:
        yield
    finally:
        if outermost:
            _pinned = None
        for setter, count in saved:
            setter(count)


def check_rel_tolerance(rel: float) -> float:
    """``rel`` itself when it is a usable relative tolerance: finite and in [0, 1)."""
    if not 0.0 <= rel < 1.0:  # also false for nan
        raise ValueError(f"relative tolerance must be finite and in [0, 1), got {rel!r}")
    return rel


def zero_threshold(values, rel: float = REL_TOL_ZERO) -> float:
    """Absolute magnitude below which an entry of ``values`` counts as zero.

    Raises ValueError unless ``rel`` is finite and in [0, 1).
    """
    check_rel_tolerance(rel)
    arr = np.asarray(values, dtype=float)
    return rel * float(np.abs(arr).max())


class SymMatrix:
    """Dense real symmetric matrix, immutable after construction.

    Input from outside the package whose asymmetry stays within ``rel_sym_tol``
    times the largest entry magnitude is symmetrized: each entry that differs
    from its mirror becomes (M + M^T)/2 and the others are kept as given.
    Anything worse is rejected with :class:`AsymmetricMatrix`. Matrices the package
    computes are exactly symmetric as built and are stored by :meth:`_trusted`.
    """

    __slots__ = ("_arr",)

    def __init__(self, entries, rel_sym_tol: float = REL_SYM_TOL) -> None:
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix must have at least one row")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        scale = float(np.abs(arr).max())
        asym = float(np.abs(arr - arr.T).max())
        if asym > rel_sym_tol * scale:
            raise AsymmetricMatrix(
                f"asymmetry {asym:.3e} exceeds {rel_sym_tol:g} * max|entry| = "
                f"{rel_sym_tol * scale:.3e}"
            )
        # Entries equal to their mirror bit for bit are kept as given; the rest
        # are averaged as halves: no overflow near the float maximum, exact
        # above the subnormals, and -0.0 beside 0.0 averages to 0.0.
        bits = arr.view(np.int64)
        half = 0.5 * arr
        np.copyto(arr, half + half.T, where=bits != bits.T)
        arr.setflags(write=False)
        self._arr = arr

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "SymMatrix":
        """Trusted constructor for matrices the package computes: stores ``arr`` as built.

        ``arr`` must be a fresh float array, square, at least 1x1 and exactly
        symmetric; it is neither copied nor checked for shape or symmetry, and
        becomes read-only. Entries are still checked to be finite: a kernel can
        overflow.
        """
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        matrix = object.__new__(cls)
        matrix._arr = arr
        return matrix

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.diag(np.ones(n)))

    @property
    def n(self) -> int:
        return self._arr.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._arr

    def __getitem__(self, index):
        return self._arr[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._arr.shape == other._arr.shape and bool(
            np.array_equal(self._arr, other._arr)
        )

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class DnVerdict:
    """Outcome of the doubly-nonnegative membership check."""

    is_symmetric: bool
    is_entrywise_nonneg: bool
    is_positive_definite: bool
    is_irreducible: bool
    min_eigenvalue: float
    worst_negative_entry: float

    @property
    def passed(self) -> bool:
        return (
            self.is_symmetric
            and self.is_entrywise_nonneg
            and self.is_positive_definite
            and self.is_irreducible
        )

    def to_dict(self) -> dict:
        return {
            "is_symmetric": self.is_symmetric,
            "is_entrywise_nonneg": self.is_entrywise_nonneg,
            "is_positive_definite": self.is_positive_definite,
            "is_irreducible": self.is_irreducible,
            "min_eigenvalue": self.min_eigenvalue,
            "worst_negative_entry": self.worst_negative_entry,
            "passed": self.passed,
        }


def _cholesky_factor(a: SymMatrix) -> np.ndarray:
    """Upper Cholesky factor U with A = U^T U, rejecting pivots at or below the
    relative floor.

    LAPACK ``dpotrf`` on ``A^T``, which is ``A`` and already in Fortran order;
    the strict lower triangle of the result is zeroed.
    """
    arr = a.entries
    diag_max = float(arr.diagonal().max())
    if diag_max <= 0.0:
        raise NotPositiveDefinite(
            f"largest diagonal entry is {diag_max:g}, matrix cannot be positive definite"
        )
    upper, info = _linalg().lapack.dpotrf(arr.T, lower=0, clean=1)
    if info:
        raise NotPositiveDefinite("Cholesky factorization failed")
    floor = REL_PIVOT_FLOOR * diag_max
    pivots = upper.diagonal() ** 2
    worst = float(pivots.min())
    if worst <= floor:
        raise NotPositiveDefinite(
            f"Cholesky pivot {worst:.3e} at or below floor {floor:.3e}"
        )
    return upper


def cholesky_invert(a: SymMatrix) -> SymMatrix:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor.

    A^-1 = U^-1 U^-T, with U inverted in place by LAPACK ``dtrtri`` (n^3/3
    flops) and the product formed as one symmetric rank-n update: numpy runs
    ``x @ x.T`` through BLAS ``syrk`` and mirrors one triangle, so the result
    is exactly symmetric. Raises :class:`NotPositiveDefinite` when
    factorization fails or a pivot falls at or below ``REL_PIVOT_FLOOR``
    times the largest diagonal entry.
    """
    upper = _cholesky_factor(a)
    uinv, info = _linalg().lapack.dtrtri(upper, lower=0, overwrite_c=1)
    if info:  # a zero pivot of U, which the floor above already excludes
        raise NotPositiveDefinite("Cholesky factorization failed")
    # an inverse beyond the float range is reported by the finiteness check
    # of _trusted as a ValueError, not also as numpy's overflow warning
    with np.errstate(over="ignore"):
        product = uinv @ uinv.T
    return SymMatrix._trusted(product)


def _canonical_direction(v: np.ndarray) -> np.ndarray:
    """Flip the vector so its first nonzero component is positive."""
    nonzero = np.nonzero(v)[0]
    if nonzero.size and v[nonzero[0]] < 0:
        return -v
    return v


def perron_eigenpair(
    a: SymMatrix, tol: float = POWER_TOL, max_iters: int = POWER_MAX_ITERS
) -> EigenPair:
    """Dominant eigenpair by power iteration from the all-ones start vector.

    Intended for entrywise-nonnegative irreducible matrices with positive
    diagonal, where the dominant eigenvalue is simple and its eigenvector can
    be taken strictly positive. Convergence is declared when the residual
    ``|A v - lambda v|`` drops to ``tol * max(1, |lambda|)``; after
    ``max_iters`` sweeps :class:`NotConverged` is raised. The returned vector
    has unit Euclidean norm and a positive first nonzero component.
    """
    arr = a.entries
    v = np.ones(a.n) / np.sqrt(a.n)
    for _ in range(max_iters):
        w = arr @ v
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol * max(1.0, abs(lam)):
            return EigenPair(lam, _canonical_direction(v))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            raise NotConverged("iteration vector was annihilated")
        v = w / norm_w
    raise NotConverged(
        f"power iteration missed tolerance {tol:g} after {max_iters} sweeps"
    )


def min_eigenvalue(a: SymMatrix) -> float:
    """Smallest eigenvalue, from the LAPACK symmetric eigensolver."""
    scipy_linalg = _linalg()
    try:
        vals = scipy_linalg.eigvalsh(
            a.entries, subset_by_index=(0, 0), check_finite=False
        )
    except scipy_linalg.LinAlgError as exc:
        raise NotConverged(f"symmetric eigensolver failed: {exc}") from exc
    return float(vals[0])


def matrix_graph(a: SymMatrix, rel_tol: float = REL_TOL_ZERO) -> UGraph:
    """Graph with an edge wherever an off-diagonal entry exceeds the zero threshold."""
    arr = a.entries
    tol = zero_threshold(arr, rel_tol)
    rows, cols = np.nonzero(np.triu(arr > tol, k=1))
    return UGraph(a.n, np.column_stack((rows + 1, cols + 1)))


def verify_doubly_nonnegative(a: SymMatrix, rel_tol: float = REL_TOL_ZERO) -> DnVerdict:
    """Check symmetry, entrywise nonnegativity, positive definiteness, irreducibility.

    Entries within the zero threshold of zero are treated as nonnegative, and
    irreducibility means the positive-entry graph is connected.
    """
    arr = a.entries
    tol = zero_threshold(arr, rel_tol)
    smallest = float(arr.min())
    try:
        _cholesky_factor(a)
        positive_definite = True
    except NotPositiveDefinite:
        positive_definite = False
    return DnVerdict(
        is_symmetric=True,  # SymMatrix construction enforces symmetry
        is_entrywise_nonneg=smallest >= -tol,
        is_positive_definite=positive_definite,
        is_irreducible=len(mask_components(arr > tol)) == 1,
        min_eigenvalue=min_eigenvalue(a),
        worst_negative_entry=min(smallest, 0.0),
    )
