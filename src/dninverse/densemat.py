"""Dense symmetric matrix kernels.

Construction with a symmetrization gate, Cholesky-based inversion with a pivot
floor, extremal eigenvalues, and the doubly-nonnegative membership verdict.
All tolerances are relative to the scale of the input and overridable at the
call sites that classify entries.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from .errors import AsymmetricMatrix, NotConverged, NotPositiveDefinite
from .graphs import UGraph, is_connected

REL_TOL_ZERO = 1e-12
REL_PIVOT_FLOOR = 1e-12
REL_TOL_RESIDUAL = 1e-9
REL_SYM_TOL = 1e-12
POWER_TOL = 1e-10
POWER_MAX_ITERS = 10_000

# numpy and scipy each bundle an OpenBLAS with its own thread pool:
# (package, library file pattern, thread-count getter, setter)
_OPENBLAS = (
    (np, "numpy.libs/libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy.libs/libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_pools() -> tuple:
    """(getter, setter) pairs of the bundled OpenBLAS libraries already loaded.

    Empty under any other BLAS build. RTLD_NOLOAD only finds a library the
    process has loaded, so this never brings in a second copy.
    """
    pools = []
    for package, pattern, get_name, set_name in _OPENBLAS:
        libs = sorted(Path(package.__file__).resolve().parent.parent.glob(pattern))
        try:
            lib = ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD)
            getter, setter = getattr(lib, get_name), getattr(lib, set_name)
        except (IndexError, OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        pools.append((getter, setter))
    return tuple(pools)


@contextmanager
def single_blas_thread():
    """Run the block with every OpenBLAS pool on one thread, then restore the counts.

    The matrices here are small enough that a second BLAS thread costs more
    in wake-ups than it saves. The thread count is process-wide, so only
    entry points use this. Pools are left alone when OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS is set, and nothing happens under another BLAS build.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        yield
        return
    saved = [(setter, getter()) for getter, setter in _openblas_pools()]
    for setter, _ in saved:
        setter(1)
    try:
        yield
    finally:
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

    Input whose asymmetry stays within ``rel_sym_tol`` times the largest entry
    magnitude is symmetrized to (M + M^T)/2; anything worse is rejected with
    :class:`AsymmetricMatrix`.
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
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        self._arr = arr

    @classmethod
    def _symmetrized(cls, arr: np.ndarray) -> "SymMatrix":
        """Trusted constructor for kernel outputs: stores (arr + arr.T) / 2.

        Skips the shape checks and the asymmetry scan, so ``arr`` must be a
        square array that is symmetric up to rounding. Entries are still
        checked to be finite: a kernel can overflow. The result is bit for bit
        what the public constructor makes of ``(arr + arr.T) / 2``.
        """
        sym = (arr + arr.T) / 2.0
        if not np.isfinite(sym).all():
            raise ValueError("matrix entries must be finite")
        sym.setflags(write=False)
        matrix = object.__new__(cls)
        matrix._arr = sym
        return matrix

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

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
    """Lower Cholesky factor, rejecting pivots at or below the relative floor."""
    arr = a.entries
    diag_max = float(arr.diagonal().max())
    if diag_max <= 0.0:
        raise NotPositiveDefinite(
            f"largest diagonal entry is {diag_max:g}, matrix cannot be positive definite"
        )
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky factorization failed") from None
    floor = REL_PIVOT_FLOOR * diag_max
    pivots = lower.diagonal() ** 2
    worst = float(pivots.min())
    if worst <= floor:
        raise NotPositiveDefinite(
            f"Cholesky pivot {worst:.3e} at or below floor {floor:.3e}"
        )
    return lower


def cholesky_invert(a: SymMatrix) -> SymMatrix:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor.

    Raises :class:`NotPositiveDefinite` when factorization fails or a pivot
    falls at or below ``REL_PIVOT_FLOOR`` times the largest diagonal entry.
    """
    lower = _cholesky_factor(a)
    linv = scipy.linalg.solve_triangular(
        lower, np.eye(a.n), lower=True, check_finite=False
    )
    return SymMatrix._symmetrized(linv.T @ linv)


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
    try:
        vals = scipy.linalg.eigvalsh(
            a.entries, subset_by_index=(0, 0), check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:
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
        is_irreducible=is_connected(matrix_graph(a, rel_tol)).connected,
        min_eigenvalue=min_eigenvalue(a),
        worst_negative_entry=min(smallest, 0.0),
    )
