"""Sign matrices over {+, -} and the feasibility decision.

A sign pattern is achievable as the entrywise sign matrix of the inverse of
some invertible irreducible doubly nonnegative matrix exactly when it is
symmetric, its diagonal is all plus, and its negative-sign graph (one edge per
off-diagonal minus pair) is connected. Feasible patterns come with an explicit
witness: a diagonally dominant symmetric M-matrix Q carrying the pattern, whose
inverse is an entrywise positive DN matrix A; the inverse of A is Q itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densemat import REL_TOL_ZERO, SymMatrix, _band_signs, zero_threshold
from .errors import AsymmetricSignMatrix, InfeasiblePattern
from .graphs import UGraph, mask_components, random_tree

PLUS: int = 1
MINUS: int = -1

# ASCII puts '+' (43) and '-' (45) either side of 44, so 44 - byte maps a
# character to its sign and 44 - sign maps a sign back to its character.
_CHAR_OFFSET = 44


def _sign_text(signs: np.ndarray) -> str:
    """The '+' and '-' characters of the int8 array ``signs``, in C order."""
    return (_CHAR_OFFSET - signs).tobytes().decode("ascii")


class SignMatrix:
    """Square matrix with entries in {PLUS, MINUS}, immutable after construction."""

    __slots__ = ("_signs",)

    def __init__(self, signs) -> None:
        arr = np.asarray(signs)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square sign matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("sign matrix must have at least one row")
        # checked before the cast, which would wrap 257 onto PLUS
        if not ((arr == PLUS) | (arr == MINUS)).all():
            raise ValueError("sign entries must be PLUS (+1) or MINUS (-1)")
        arr = arr.astype(np.int8)  # always a copy
        arr.setflags(write=False)
        self._signs = arr

    @classmethod
    def _trusted(cls, signs: np.ndarray) -> "SignMatrix":
        """Trusted constructor for patterns the package builds: stores ``signs`` as built.

        ``signs`` must be a fresh int8 array, square, at least 1x1 and holding
        only PLUS and MINUS; it is neither copied nor checked, and becomes
        read-only.
        """
        signs.setflags(write=False)
        matrix = object.__new__(cls)
        matrix._signs = signs
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "SignMatrix":
        """Build from strings of '+' and '-' characters, one per row."""
        n = len(rows)
        if n < 1:
            raise ValueError("sign matrix must have at least one row")
        short = next((i for i, row in enumerate(rows) if len(row) != n), n)
        text = "".join(rows[:short])
        codes = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.int8)
        signs = _CHAR_OFFSET - codes
        bad = np.flatnonzero((signs != PLUS) & (signs != MINUS))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"row {k // n + 1} has invalid character {text[k]!r}")
        if short < n:
            raise ValueError(f"row {short + 1} has {len(rows[short])} characters, expected {n}")
        return cls._trusted(signs.reshape(n, n))  # a fresh int8 array of PLUS and MINUS only

    def to_rows(self) -> list[str]:
        n = self.n
        text = _sign_text(self._signs)
        return [text[i : i + n] for i in range(0, n * n, n)]

    @property
    def n(self) -> int:
        return self._signs.shape[0]

    @property
    def signs(self) -> np.ndarray:
        return self._signs

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self._signs, self._signs.T))

    def __getitem__(self, index):
        return self._signs[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignMatrix):
            return NotImplemented
        return self._signs.shape == other._signs.shape and bool(
            np.array_equal(self._signs, other._signs)
        )

    def __repr__(self) -> str:
        return f"SignMatrix({self.to_rows()!r})"


def sign_of(q: SymMatrix, rel_tol: float = REL_TOL_ZERO) -> SignMatrix:
    """Entrywise sign pattern of a matrix.

    Entries below ``-tol`` are MINUS and everything else is PLUS, where ``tol``
    is ``rel_tol`` times the largest entry magnitude. Entries inside the band
    ``[-tol, tol]`` therefore land on PLUS; :func:`ambiguous_signs` lists them.
    """
    arr = q.entries
    signs = _band_signs(arr, zero_threshold(arr, rel_tol))
    signs[signs == 0] = PLUS
    return SignMatrix._trusted(signs)


def ambiguous_signs(
    q: SymMatrix, rel_tol: float = REL_TOL_ZERO
) -> list[tuple[int, int]]:
    """Positions (i, j), i <= j, whose magnitude falls inside the zero band."""
    arr = q.entries
    rows, cols = np.nonzero(np.triu(_band_signs(arr, zero_threshold(arr, rel_tol)) == 0))
    return [(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)]


def negative_sign_graph(s: SignMatrix) -> UGraph:
    """Graph on 1..n with an edge for every symmetric off-diagonal MINUS pair."""
    if not s.is_symmetric:
        raise AsymmetricSignMatrix("negative-sign graph requires a symmetric pattern")
    rows, cols = np.nonzero(np.triu(s.signs == MINUS, k=1))
    return UGraph(s.n, np.column_stack((rows + 1, cols + 1)))


@dataclass(frozen=True)
class FeasibilityReport:
    """Decision plus the three condition flags and the component certificate."""

    feasible: bool
    symmetric_ok: bool
    diagonal_ok: bool
    delta_connected: bool
    delta_components: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "symmetric_ok": self.symmetric_ok,
            "diagonal_ok": self.diagonal_ok,
            "delta_connected": self.delta_connected,
            "delta_components": [list(c) for c in self.delta_components],
        }


def check_feasible(s: SignMatrix) -> FeasibilityReport:
    """Decide whether some invertible irreducible doubly nonnegative matrix has
    an inverse with sign pattern ``s``.

    Never raises on bad patterns: an asymmetric input simply fails the symmetry
    flag, with the negative-sign graph taken over pairs where either
    orientation is MINUS so the certificate is still meaningful.
    """
    arr = s.signs
    symmetric_ok = s.is_symmetric
    diagonal_ok = bool((arr.diagonal() == PLUS).all())
    minus = arr == MINUS
    if not symmetric_ok:
        minus |= minus.T
    components = mask_components(minus)
    connected = len(components) == 1
    return FeasibilityReport(
        feasible=symmetric_ok and diagonal_ok and connected,
        symmetric_ok=symmetric_ok,
        diagonal_ok=diagonal_ok,
        delta_connected=connected,
        delta_components=components,
    )


def construct_witness(s: SignMatrix) -> SymMatrix:
    """M-matrix Q whose inverse is a DN matrix realizing sign pattern ``s``.

    Q puts n on the diagonal and -1 on every MINUS off-diagonal position,
    zero elsewhere: a strictly diagonally dominant irreducible symmetric
    M-matrix, so its inverse A = Q^-1 is, in exact arithmetic, entrywise
    strictly positive, hence DN. The float A is not: its entries decay with
    the distance in the negative-sign graph, and for the path pattern its
    smallest entry is 2.1e-107 at n = 60 and 1.0e-200 at n = 100, while at
    n = 200 it holds 3,660 exact zeros (and 896 subnormals), which the sign
    classification counts as PLUS. It is Q, the inverse of A, that carries
    the pattern: negative at the MINUS positions, positive on the diagonal
    and exactly zero at the off-diagonal PLUS positions, which classify as
    PLUS. Raises :class:`InfeasiblePattern` when :func:`check_feasible`
    rejects ``s``.
    """
    report = check_feasible(s)
    if not report.feasible:
        failed = [
            name
            for name, ok in [
                ("symmetry", report.symmetric_ok),
                ("all-plus diagonal", report.diagonal_ok),
                ("connected negative-sign graph", report.delta_connected),
            ]
            if not ok
        ]
        raise InfeasiblePattern(f"pattern fails: {', '.join(failed)}")
    n = s.n
    q = np.where(s.signs == MINUS, -1.0, 0.0)
    np.fill_diagonal(q, float(n))
    return SymMatrix._trusted(q)  # symmetric: check_feasible passed the pattern


def random_feasible_sign_matrix(n: int, seed) -> SignMatrix:
    """Random feasible pattern: a uniform spanning tree of MINUS pairs, then
    each remaining off-diagonal pair flipped to MINUS with probability 1/2."""
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    signs = np.full((n, n), PLUS, dtype=np.int8)
    if n >= 2:
        rng = np.random.default_rng(seed)
        i, j = (random_tree(n, rng).edge_array - 1).T
        signs[i, j] = signs[j, i] = MINUS
        extra = np.triu(rng.random((n, n)) < 0.5, k=1)
        signs[extra | extra.T] = MINUS
        np.fill_diagonal(signs, PLUS)
    return SignMatrix._trusted(signs)
