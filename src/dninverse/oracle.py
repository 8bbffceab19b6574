"""Brute-force oracles and randomized verification campaigns.

The oracles re-derive facts by exhaustive enumeration so the structural code
can be cross-checked against something that cannot share its bugs. The
campaigns draw random instances, one per (seed, trial-index) pair, so every
failure is reproducible from its recorded trial seed alone and trials can be
merged or reordered without changing the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densemat import REL_TOL_ZERO, SymMatrix, _band_signs, cholesky_invert, zero_threshold
from .errors import AsymmetricSignMatrix, TooLarge
from .graphs import mask_components, random_tree
from .signpattern import MINUS, SignMatrix, check_feasible, sign_of
from .treesign import (
    TOL_RATIO,
    leaf_ratio_check,
    predict_tree_sign_pattern,
    random_tree_dn_matrix,
)

MAX_ORACLE_VERTICES = 16
MAX_RESAMPLES = 1000
DENSITY_RANGE = (0.3, 1.0)
RIDGE_FACTOR = 1e-6


def bipartition_crossing_oracle(s: SignMatrix) -> bool:
    """Exhaustively test whether every nontrivial bipartition has a MINUS crossing.

    This is connectivity of the negative-sign graph, re-derived by enumerating
    all 2^(n-1) - 1 splits instead of traversing the graph. Sizes above
    ``MAX_ORACLE_VERTICES`` are rejected with :class:`TooLarge`.
    """
    if s.n > MAX_ORACLE_VERTICES:
        raise TooLarge(f"{s.n} vertices exceeds the enumeration cap {MAX_ORACLE_VERTICES}")
    if not s.is_symmetric:
        raise AsymmetricSignMatrix("crossing oracle requires a symmetric pattern")
    n = s.n
    if n == 1:
        return True
    minus = s.signs == MINUS
    shifts = np.arange(n - 1)
    for mask in range(1, 1 << (n - 1)):
        bits = (mask >> shifts) & 1
        side_two = np.concatenate(([False], bits.astype(bool)))
        if not minus[~side_two][:, side_two].any():
            return False
    return True


def random_dn_matrix(n: int, density: float, seed) -> SymMatrix:
    """Random irreducible doubly nonnegative matrix of size n.

    A nonnegative Gram matrix B B^T (B uniform on [0, 1), entries kept with
    probability ``density``) plus the ridge 1e-6 n I. Draws whose
    positive-entry graph is disconnected are resampled, up to MAX_RESAMPLES
    attempts; running out raises RuntimeError, which only happens at densities
    far below the connectivity threshold.
    """
    if n < 2:
        raise ValueError(f"size must be at least 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    ridge = RIDGE_FACTOR * n
    for _ in range(MAX_RESAMPLES):
        b = rng.random((n, n))
        b *= rng.random((n, n)) < density  # b >= 0: dropped entries become +0.0
        arr = b @ b.T  # BLAS syrk mirrors one triangle: exactly symmetric
        arr.flat[:: n + 1] += ridge  # the ridge, on the diagonal only
        # at the fixed REL_TOL_ZERO: a seed's draws must not depend on the tolerance
        if len(mask_components(_band_signs(arr, zero_threshold(arr)) > 0)) == 1:
            return SymMatrix._trusted(arr)
    raise RuntimeError(
        f"no irreducible draw of size {n} in {MAX_RESAMPLES} attempts "
        f"at density {density}"
    )


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of a randomized campaign; margins show how close calls came."""

    trials: int
    failures: int
    failure_seeds: tuple[int, ...]
    min_margins: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "failure_seeds": list(self.failure_seeds),
            "min_margins": dict(self.min_margins),
        }


def trial_seed(seed: int, index: int) -> int:
    """Derived seed for one trial; a pure function of the campaign seed and index."""
    state = np.random.SeedSequence((seed, index)).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _run_trials(n_range, trials, seed, trial, summed=()) -> CampaignReport:
    """The report of ``trials`` runs of ``trial(rng, n) -> (passed, margins)``.

    Each run's generator is seeded by its trial seed and first draws n from
    ``n_range`` (inclusive). The report keeps each margin's minimum, in
    first-seen order, then the totals of the margins named in ``summed``.
    """
    lo, hi = n_range
    if not 2 <= lo <= hi:
        raise ValueError(f"size range must satisfy 2 <= lo <= hi, got {n_range}")
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    failures = []
    margins: dict[str, float] = {}
    totals = dict.fromkeys(summed, 0)
    for index in range(trials):
        ts = trial_seed(seed, index)
        rng = np.random.default_rng(ts)
        passed, values = trial(rng, int(rng.integers(lo, hi + 1)))
        for key, value in values.items():
            if key in totals:
                totals[key] += value
            elif key not in margins or value < margins[key]:
                margins[key] = value
        if not passed:
            failures.append(ts)
    margins.update((key, float(total)) for key, total in totals.items())
    return CampaignReport(trials, len(failures), tuple(failures), margins)


def necessity_campaign(
    n_range: tuple[int, int],
    trials: int,
    seed: int,
    density: float | None = None,
    rel_tol: float = REL_TOL_ZERO,
) -> CampaignReport:
    """Fuzz the three feasibility conditions on inverses of random DN matrices.

    Each trial draws a size uniformly from ``n_range`` (inclusive) and a
    density uniformly from [0.3, 1.0] unless one is fixed, builds a random
    irreducible DN matrix, inverts it, and fails the trial unless
    :func:`check_feasible` accepts :func:`sign_of` of the inverse.
    """

    def trial(rng, n):
        dens = float(rng.uniform(*DENSITY_RANGE)) if density is None else density
        inverse = cholesky_invert(random_dn_matrix(n, dens, rng))
        pattern = sign_of(inverse, rel_tol)
        inv = inverse.entries
        minus = pattern.signs == MINUS
        margins = {"min_diagonal_entry": float(inv.diagonal().min())}
        if minus.any():
            margins["min_minus_magnitude"] = -float(np.where(minus, inv, -np.inf).max())
        return check_feasible(pattern).feasible, margins

    return _run_trials(n_range, trials, seed, trial)


def tree_sign_campaign(
    n_range: tuple[int, int],
    trials: int,
    seed: int,
    rel_tol: float = REL_TOL_ZERO,
) -> CampaignReport:
    """Fuzz the two-coloring prediction on random tree-structured DN matrices.

    A trial fails on a significant contradiction: an entry of the inverse whose
    band sign is opposite to its predicted sign, a nonpositive diagonal entry,
    or a failed leaf-ratio check.
    Off-diagonal entries whose true magnitude falls inside the threshold band
    carry no sign information at working precision, whatever their predicted
    color; they are tallied under ``ambiguous_minus_entries`` and
    ``ambiguous_plus_entries`` rather than treated as contradictions or as
    confirmations (deep trees produce inverse entries below any fixed
    relative threshold, since magnitudes decay geometrically with tree
    distance).
    """

    def trial(rng, n):
        g = random_tree(n, rng)
        a = random_tree_dn_matrix(g, rng)
        inverse = cholesky_invert(a)
        inv = inverse.entries
        band = _band_signs(inv, zero_threshold(inv, rel_tol))
        predicted = predict_tree_sign_pattern(g).signs
        minus_mask = predicted == MINUS
        plus_off = ~minus_mask
        plus_off.flat[:: n + 1] = False  # the diagonal is PLUS and tested on its own
        diagonal = inv.diagonal()
        contradiction = bool((band == -predicted).any() or (diagonal <= 0.0).any())
        ratio_report = leaf_ratio_check(a, inverse, g, rel_tol=rel_tol)
        in_band = band == 0
        margins = {"min_diagonal_entry": float(diagonal.min())}
        if minus_mask.any():
            margins["min_minus_magnitude"] = -float(np.where(minus_mask, inv, -np.inf).max())
        if plus_off.any():
            margins["min_plus_offdiag"] = float(np.where(plus_off, inv, np.inf).min())
        deviations = [r.max_rel_deviation for r in ratio_report.ratios]
        if deviations:
            margins["ratio_deviation_headroom"] = TOL_RATIO - max(deviations)
        margins["ambiguous_minus_entries"] = np.count_nonzero(in_band & minus_mask)
        margins["ambiguous_plus_entries"] = np.count_nonzero(in_band & plus_off)
        return not contradiction and ratio_report.passed, margins

    summed = ("ambiguous_minus_entries", "ambiguous_plus_entries")
    return _run_trials(n_range, trials, seed, trial, summed)


@dataclass(frozen=True)
class NonUniquenessPair:
    """Two DN matrices on the same complete graph with different inverse patterns."""

    first: SymMatrix
    second: SymMatrix
    first_pattern: SignMatrix
    second_pattern: SignMatrix
    trials_used: int


def search_nonunique_complete(
    n: int, max_trials: int, seed: int, rel_tol: float = REL_TOL_ZERO
) -> NonUniquenessPair | None:
    """Search random complete-graph DN matrices for two inverse sign patterns.

    Unlike trees, a complete positive-entry graph does not pin down the
    inverse pattern; this finds an explicit pair demonstrating that, usually
    within a handful of draws at n = 3. Returns None when the trial budget is
    exhausted without a second pattern. Below n = 3 every pattern is forced,
    so those sizes are rejected.
    """
    if n < 3:
        raise ValueError(f"complete-graph patterns are forced below size 3, got {n}")
    if max_trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {max_trials}")
    rng = np.random.default_rng(seed)
    first = None
    first_pattern = None
    for index in range(max_trials):
        a = random_dn_matrix(n, 1.0, rng)
        # complete: every entry above the band, which is at the fixed REL_TOL_ZERO
        # since a seed's draws must not depend on rel_tol; the ridge clears the diagonal
        if not (_band_signs(a.entries, zero_threshold(a.entries)) > 0).all():
            continue
        pattern = sign_of(cholesky_invert(a), rel_tol)
        if first is None:
            first, first_pattern = a, pattern
        elif pattern != first_pattern:
            return NonUniquenessPair(first, a, first_pattern, pattern, index + 1)
    return None
