"""Dense symmetric matrix kernels.

Construction with a symmetrization gate, Cholesky-based inversion (LAPACK
``potrf`` + ``trtri``) with a pivot floor, the smallest eigenvalue (LAPACK
``syevr``), and the doubly-nonnegative membership verdict. All tolerances are
relative to the scale of the input and overridable at the call sites that
classify entries. The LAPACK routines are called through ctypes from the
OpenBLAS that numpy bundles and has already loaded, the one library and the
one thread pool behind every product as well, which :func:`single_blas_thread`
pins. Under a numpy that bundles none, ``numpy.linalg`` stands in.
"""

from __future__ import annotations

import ctypes
import functools
import os
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

# numpy's bundled OpenBLAS, which it loads at import; its symbols carry a
# scipy_ prefix and a 64_ suffix, and its Fortran integers are 64-bit
_OPENBLAS = "numpy.libs/libscipy_openblas64_*.so"
# Fortran passes every argument by reference: a scalar as a ctypes instance, an
# array as the instance ``from_buffer`` lays over its first element (cheaper
# than ``ndarray.ctypes``). A CHARACTER's length follows the other arguments.
_INT = ctypes.POINTER(ctypes.c_int64)
_DBL = ctypes.POINTER(ctypes.c_double)
_CHR = ctypes.c_char_p
_LEN = ctypes.c_size_t
# symbol: (argument types, result type)
_ROUTINES = {
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "scipy_dpotrf_64_": ([_CHR, _INT, _DBL, _INT, _INT, _LEN], None),
    "scipy_dlaset_64_": ([_CHR, _INT, _INT, _DBL, _DBL, _DBL, _INT, _LEN], None),
    "scipy_dtrtri_64_": ([_CHR, _CHR, _INT, _DBL, _INT, _INT, _LEN, _LEN], None),
    "scipy_dsyevr_64_": (
        [_CHR, _CHR, _CHR, _INT, _DBL, _INT, _DBL, _DBL, _INT, _INT, _DBL, _INT, _DBL, _DBL,
         _INT, _INT, _DBL, _INT, _INT, _INT, _INT, _LEN, _LEN, _LEN],
        None,
    ),
}


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS with :data:`_ROUTINES` bound, or None under any other build.

    Its thread pool is the only one the process runs, and its LAPACK routines
    are the ones the kernels call. RTLD_NOLOAD only finds a library the
    process has loaded, so this never brings in a second copy.
    """
    libs = sorted(Path(np.__file__).resolve().parent.parent.glob(_OPENBLAS))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD)
        for symbol, (argtypes, restype) in _ROUTINES.items():
            routine = getattr(lib, symbol)  # kept on lib, so later lookups find it bound
            routine.argtypes, routine.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return lib


@contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS pool on one thread, then restore its count.

    A second BLAS thread costs more in wake-ups than it saves at these sizes,
    and one count gives the same last bits in any environment. The count is
    process-wide, so only entry points use this. Under another BLAS: a no-op.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    saved = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(saved)


def check_rel_tolerance(rel: float) -> float:
    """``rel`` itself when it is a usable relative tolerance: finite and in [0, 1)."""
    if not 0.0 <= rel < 1.0:  # also false for nan
        raise ValueError(f"relative tolerance must be finite and in [0, 1), got {rel!r}")
    return rel


def zero_threshold(values, rel: float = REL_TOL_ZERO) -> float:
    """Absolute magnitude up to which an entry of ``values`` counts as zero.

    Raises ValueError unless ``rel`` is finite and in [0, 1).
    """
    check_rel_tolerance(rel)
    arr = np.asarray(values, dtype=float)
    return rel * float(np.abs(arr).max())


def _band_signs(values: np.ndarray, bound) -> np.ndarray:
    """The package's one sign rule: a fresh int8 array, -1 below ``-bound``, +1 above
    the absolute ``bound`` and 0 in the band ``[-bound, bound]``, -0.0 included."""
    signs = (values > bound).view(np.int8)  # fresh bool arrays, viewed as int8
    signs -= (values < -bound).view(np.int8)
    return signs


class SymMatrix:
    """Dense real symmetric matrix, immutable after construction.

    Input from outside the package whose asymmetry stays within ``REL_SYM_TOL``
    times the largest entry magnitude is symmetrized: each entry that differs
    from its mirror becomes (M + M^T)/2 and the others are kept as given.
    Anything worse is rejected with :class:`AsymmetricMatrix`. Matrices the package
    computes are exactly symmetric as built and are stored by :meth:`_trusted`.
    The inverse that :func:`cholesky_invert` forms is kept in ``_inverse``.
    """

    __slots__ = ("_arr", "_inverse")

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix must have at least one row")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        scale = float(np.abs(arr).max())
        # mirrors of opposite sign may differ past the float maximum: inf, rejected
        with np.errstate(over="ignore"):
            asym = float(np.abs(arr - arr.T).max())
        if asym > REL_SYM_TOL * scale:
            raise AsymmetricMatrix(
                f"asymmetry {asym:.3e} exceeds {REL_SYM_TOL:g} * max|entry| = "
                f"{REL_SYM_TOL * scale:.3e}"
            )
        # Entries equal to their mirror bit for bit are kept as given; the rest
        # are averaged as halves: no overflow near the float maximum, exact
        # above the subnormals, and -0.0 beside 0.0 averages to 0.0.
        bits = arr.view(np.int64)
        half = 0.5 * arr
        np.copyto(arr, half + half.T, where=bits != bits.T)
        arr.setflags(write=False)
        self._arr = arr
        self._inverse = None

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
        matrix._inverse = None
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
    """Upper Cholesky factor U with A = U^T U, in Fortran order, rejecting pivots at
    or below the relative floor.

    LAPACK ``dpotrf`` on a copy of A, then ``dlaset`` to zero the strict lower
    triangle, which ``dpotrf`` leaves as A had it (``np.tril`` costs more than
    the factorization itself for n < 50); ``numpy.linalg.cholesky`` when numpy
    bundles no OpenBLAS.
    """
    arr = a.entries
    diag_max = float(arr.diagonal().max())
    if diag_max <= 0.0:
        raise NotPositiveDefinite(
            f"largest diagonal entry is {diag_max:g}, matrix cannot be positive definite"
        )
    lib = _openblas()
    if lib is None:
        try:
            upper = np.linalg.cholesky(arr).T
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("Cholesky factorization failed") from None
    else:
        c = arr.copy(order="C")  # A^T = A in Fortran order; from_buffer needs C order
        n, info = ctypes.c_int64(a.n), ctypes.c_int64()
        lib.scipy_dpotrf_64_(b"U", n, ctypes.c_double.from_buffer(c), n, info, 1)
        if info.value:
            raise NotPositiveDefinite("Cholesky factorization failed")
        if a.n > 1:  # A's strict lower triangle is the (n-1)x(n-1) block at A(2,1) and below
            below, zero = ctypes.c_int64(a.n - 1), ctypes.c_double(0.0)
            block = ctypes.c_double.from_buffer(c, 8)  # A(2,1): one double past A(1,1)
            lib.scipy_dlaset_64_(b"L", below, below, zero, zero, block, n, 1)
        upper = c.T
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
    flops; ``numpy.linalg.inv`` when numpy bundles no OpenBLAS) and the
    product formed as one symmetric rank-n update: numpy runs ``x @ x.T``
    through BLAS ``syrk`` and mirrors one triangle, so the result is exactly
    symmetric. Raises :class:`NotPositiveDefinite` when factorization fails
    or a pivot falls at or below ``REL_PIVOT_FLOOR`` times the largest
    diagonal entry. An inverse beyond the float range raises ValueError. The
    first inverse of ``a`` is kept on it and returned by every later call, so
    a matrix is factored once however many callers ask; a failure is not
    kept, and raises again on the next call.
    """
    if a._inverse is not None:
        return a._inverse
    uinv = _cholesky_factor(a)
    lib = _openblas()
    if lib is None:
        uinv = np.linalg.inv(uinv)  # U is nonsingular past the pivot floor
    else:
        n, info = ctypes.c_int64(a.n), ctypes.c_int64()
        lib.scipy_dtrtri_64_(b"U", b"N", n, ctypes.c_double.from_buffer(uinv.T), n, info, 1, 1)
        if info.value:  # a zero pivot of U, which the pivot floor of _cholesky_factor excludes
            raise NotPositiveDefinite("Cholesky factorization failed")
    # an inverse beyond the float range is reported below, not also as
    # numpy's overflow warning
    with np.errstate(over="ignore"):
        product = uinv @ uinv.T
    try:
        # the inverse does not point back at a: no reference cycle
        a._inverse = SymMatrix._trusted(product)
    except ValueError:  # the finiteness check of _trusted, whose message blames the input
        raise ValueError("inverse overflows the float range: its entries are not finite") from None
    return a._inverse


def min_eigenvalue(a: SymMatrix) -> float:
    """Smallest eigenvalue, from LAPACK ``dsyevr`` on the lower triangle (values only,
    the first by index); ``numpy.linalg.eigvalsh`` when numpy bundles no OpenBLAS.

    A LAPACK failure raises :class:`NotConverged`. The last bits depend on the
    thread count of numpy's OpenBLAS pool: inside :func:`single_blas_thread`,
    as every verb runs, they are the same in any environment.
    """
    lib = _openblas()
    if lib is None:
        try:
            return float(np.linalg.eigvalsh(a.entries)[0])
        except np.linalg.LinAlgError as exc:
            raise NotConverged(f"symmetric eigensolver failed: {exc}") from exc
    arr = a.entries.copy(order="C")  # A itself in Fortran order too; dsyevr overwrites it
    n, one, zero = ctypes.c_int64(a.n), ctypes.c_int64(1), ctypes.c_double(0.0)
    found, info = ctypes.c_int64(), ctypes.c_int64()
    values, support = np.empty(a.n), np.empty(2 * a.n, dtype=np.int64)
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    w, isuppz = ctypes.c_double.from_buffer(values), ctypes.c_int64.from_buffer(support)
    for query in (True, False):
        lib.scipy_dsyevr_64_(
            b"N", b"I", b"L", n, ctypes.c_double.from_buffer(arr), n, zero, zero, one, one, zero,
            found, w, w, one, isuppz,  # Z, the second w, is not referenced for values only
            ctypes.c_double.from_buffer(work), ctypes.c_int64(-1 if query else work.size),
            ctypes.c_int64.from_buffer(iwork), ctypes.c_int64(-1 if query else iwork.size),
            info, 1, 1, 1,
        )
        if info.value:
            raise NotConverged(f"symmetric eigensolver failed: LAPACK dsyevr info {info.value}")
        if query:  # the optimal workspace sizes
            work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    return float(values[0])


def matrix_graph(a: SymMatrix, rel_tol: float = REL_TOL_ZERO) -> UGraph:
    """Graph with an edge wherever an off-diagonal entry is above the zero band."""
    arr = a.entries
    above = _band_signs(arr, zero_threshold(arr, rel_tol)) > 0
    rows, cols = np.nonzero(np.triu(above, k=1))
    return UGraph(a.n, np.column_stack((rows + 1, cols + 1)))


def verify_doubly_nonnegative(a: SymMatrix, rel_tol: float = REL_TOL_ZERO) -> DnVerdict:
    """Check symmetry, entrywise nonnegativity, positive definiteness, irreducibility.

    Entries inside the zero band are treated as nonnegative, and
    irreducibility means the graph of the entries above the band is connected.
    Positive definiteness is whether :func:`cholesky_invert` succeeds, pivot
    floor included; its inverse stays on ``a`` for a later call to return. An
    inverse beyond the float range raises its ValueError here too.
    """
    try:
        cholesky_invert(a)
        positive_definite = True
    except NotPositiveDefinite:
        positive_definite = False
    arr = a.entries
    signs = _band_signs(arr, zero_threshold(arr, rel_tol))
    smallest = float(arr.min())
    return DnVerdict(
        is_symmetric=True,  # SymMatrix construction enforces symmetry
        is_entrywise_nonneg=bool((signs >= 0).all()),
        is_positive_definite=positive_definite,
        is_irreducible=len(mask_components(signs > 0)) == 1,
        min_eigenvalue=min_eigenvalue(a),
        worst_negative_entry=smallest if smallest < 0.0 else 0.0,  # never -0.0
    )
