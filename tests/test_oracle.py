import numpy as np
import pytest

from dninverse import (
    MINUS,
    PLUS,
    AsymmetricSignMatrix,
    FeasibilityReport,
    LeafRatioReport,
    SignMatrix,
    SymMatrix,
    TooLarge,
    bipartition_crossing_oracle,
    check_feasible,
    cholesky_invert,
    connected_components,
    is_connected,
    matrix_graph,
    necessity_campaign,
    negative_sign_graph,
    predict_tree_sign_pattern,
    random_dn_matrix,
    random_feasible_sign_matrix,
    random_tree,
    random_tree_dn_matrix,
    search_nonunique_complete,
    sign_of,
    tree_sign_campaign,
    trial_seed,
    verify_doubly_nonnegative,
    zero_threshold,
)

from dninverse import oracle
from dninverse.densemat import _band_signs
from dninverse.oracle import DENSITY_RANGE, RIDGE_FACTOR, _run_trials
from dninverse.treesign import TOL_RATIO

SPLIT = SignMatrix.from_rows(["+-++", "-+++", "+++-", "++-+"])


def test_crossing_oracle_hand_cases():
    assert not bipartition_crossing_oracle(SPLIT)
    assert bipartition_crossing_oracle(SignMatrix.from_rows(["+-", "-+"]))
    assert bipartition_crossing_oracle(SignMatrix.from_rows(["+"]))


def test_crossing_oracle_guards(monkeypatch):
    with pytest.raises(TooLarge):
        bipartition_crossing_oracle(random_feasible_sign_matrix(17, 0))
    monkeypatch.setattr(oracle, "MAX_ORACLE_VERTICES", 4)  # read at call time
    assert bipartition_crossing_oracle(random_feasible_sign_matrix(4, 0))
    with pytest.raises(TooLarge, match="cap 4"):
        bipartition_crossing_oracle(random_feasible_sign_matrix(5, 0))
    with pytest.raises(AsymmetricSignMatrix):
        bipartition_crossing_oracle(SignMatrix(np.array([[1, -1], [1, 1]])))


def test_crossing_oracle_agrees_with_connectivity():
    rng = np.random.default_rng(14)
    verdicts = set()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            s = random_feasible_sign_matrix(n, rng)
        else:
            coin = np.triu(rng.random((n, n)) < 0.4, k=1)
            signs = np.where(coin | coin.T, MINUS, 1)
            np.fill_diagonal(signs, 1)
            s = SignMatrix(signs)
        expected = is_connected(negative_sign_graph(s)).connected
        assert bipartition_crossing_oracle(s) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def _feasibility_census(n):
    """Every symmetric pattern on n vertices with a PLUS diagonal, one per subset
    of the C(n, 2) upper positions made MINUS."""
    rows, cols = np.triu_indices(n, k=1)
    bits = 1 << np.arange(rows.size)
    for mask in range(1 << rows.size):
        signs = np.full((n, n), PLUS, dtype=np.int8)
        minus = (mask & bits) > 0
        signs[rows[minus], cols[minus]] = signs[cols[minus], rows[minus]] = MINUS
        yield SignMatrix(signs)


# connected labelled graphs on n = 1..6 vertices (OEIS A001187)
CONNECTED_LABELLED_GRAPHS = [1, 1, 4, 38, 728, 26704]


@pytest.mark.parametrize("n", range(1, 7))
def test_feasible_patterns_are_counted_by_connected_labelled_graphs(n):
    # the theorem's condition, exhaustively: a symmetric pattern with a PLUS
    # diagonal is feasible exactly when its negative-sign graph is connected,
    # and the crossing oracle re-derives each verdict by enumerating splits
    feasible = 0
    for s in _feasibility_census(n):
        verdict = check_feasible(s).feasible
        feasible += verdict
        if n <= 5:
            assert bipartition_crossing_oracle(s) == verdict, s
    assert feasible == CONNECTED_LABELLED_GRAPHS[n - 1]


def _perron_vector(a):
    """numpy's unit eigenvector of the largest eigenvalue, signed to sum positive."""
    top = np.linalg.eigh(a.entries)[1][:, -1]
    return top if top.sum() > 0 else -top


def _bipartitions(n):
    """Each nontrivial split of the n vertices as a mask of side two; vertex 1
    stays on side one."""
    bits = 1 << np.arange(n - 1)
    for mask in range(1, 1 << (n - 1)):
        yield np.concatenate(([False], (mask & bits) > 0))


def test_perron_cross_terms_never_positive():
    # replay of the infeasibility mechanism: under the dominant eigenvector of
    # a DN matrix, every bipartition's inverse cross term is nonpositive, and
    # no bipartition has an entrywise-nonnegative off-diagonal inverse block
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = random_dn_matrix(n, float(rng.uniform(0.4, 1.0)), rng)
        inv = cholesky_invert(a)
        tol = zero_threshold(inv.entries)
        x = _perron_vector(a)
        slack = 1e-8 * float(np.abs(inv.entries).max())
        for two in _bipartitions(n):
            one = ~two
            block = inv.entries[np.ix_(one, two)]
            assert x[one] @ block @ x[two] <= slack
            assert (block < -tol).any()


def test_random_dn_matrix_properties():
    a = random_dn_matrix(2, 1.0, 0)
    assert a[0, 1] > 0
    for seed in (1, 2):
        m = random_dn_matrix(7, 0.6, seed)
        assert verify_doubly_nonnegative(m).passed
    assert random_dn_matrix(6, 0.3, 5) == random_dn_matrix(6, 0.3, 5)


def test_random_dn_matrix_equals_the_public_constructor_draw_for_draw():
    # each draw checked with the public constructor and an edge-list graph, as
    # before the trusted constructor and the mask: the same values, bit for bit
    for n, density in [(2, 0.3), (5, 0.4), (17, 0.3), (60, 0.9), (120, 1.0)]:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            while True:
                b = rng.random((n, n))
                b[rng.random((n, n)) >= density] = 0.0
                expected = SymMatrix(b @ b.T + RIDGE_FACTOR * n * np.eye(n))
                if is_connected(matrix_graph(expected)).connected:
                    break
            assert np.array_equal(random_dn_matrix(n, density, seed).entries, expected.entries)


def test_random_dn_matrix_validation():
    with pytest.raises(ValueError):
        random_dn_matrix(1, 1.0, 0)
    with pytest.raises(ValueError):
        random_dn_matrix(4, 0.0, 0)
    with pytest.raises(ValueError):
        random_dn_matrix(4, 1.5, 0)


def test_trial_seed_is_pure_and_spread():
    assert trial_seed(42, 7) == trial_seed(42, 7)
    seeds = {trial_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert trial_seed(42, 0) != trial_seed(43, 0)


def test_necessity_campaign_passes_and_reproduces():
    report = necessity_campaign((2, 9), 60, seed=5)
    assert report.passed
    assert report.trials == 60
    assert report.failure_seeds == ()
    assert report.min_margins["min_diagonal_entry"] > 0
    assert report.min_margins["min_minus_magnitude"] > 0
    assert report == necessity_campaign((2, 9), 60, seed=5)


def test_necessity_campaign_empty_run():
    report = necessity_campaign((2, 5), 0, seed=1)
    assert report.passed
    assert report.trials == 0
    assert report.min_margins == {}


def test_necessity_campaign_fixed_density():
    assert necessity_campaign((2, 6), 25, seed=8, density=0.5).passed


def _reference_necessity_trial(rel_tol):
    """The necessity trial classified through the pattern API: sign_of, then
    its MINUS entries, its symmetry and its all-PLUS diagonal."""

    def trial(rng, n):
        dens = float(rng.uniform(*DENSITY_RANGE))
        a_inv = cholesky_invert(random_dn_matrix(n, dens, rng))
        inv = a_inv.entries
        pattern = sign_of(a_inv, rel_tol)
        minus = pattern.signs == MINUS
        passed = (
            pattern.is_symmetric
            and bool((pattern.signs.diagonal() == PLUS).all())
            and len(connected_components(negative_sign_graph(pattern))) == 1
        )
        margins = {"min_diagonal_entry": float(inv.diagonal().min())}
        if minus.any():
            margins["min_minus_magnitude"] = -float(inv[minus].max())
        return passed, margins

    return trial


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-3, 0.05, 0.5])
def test_necessity_campaign_matches_a_trial_classified_through_the_pattern_api(rel_tol):
    # wide bands put whole MINUS pairs on PLUS and disconnect the negative-sign
    # graph, so the failing path is compared as well as the passing one
    for n_range, trials in (((2, 40), 12), ((100, 140), 3)):
        report = necessity_campaign(n_range, trials, seed=5, rel_tol=rel_tol)
        reference = _run_trials(n_range, trials, 5, _reference_necessity_trial(rel_tol))
        assert report.to_dict() == reference.to_dict()


def test_necessity_campaign_takes_each_verdict_from_check_feasible(monkeypatch):
    judged = []

    def infeasible(pattern):
        judged.append(pattern)
        return FeasibilityReport(False, False, False, False, ())

    monkeypatch.setattr(oracle, "check_feasible", infeasible)
    report = necessity_campaign((2, 40), 12, seed=5)
    assert report.failures == 12
    assert report.failure_seeds == tuple(trial_seed(5, index) for index in range(12))
    assert len(judged) == 12 and all(isinstance(p, SignMatrix) for p in judged)


def test_necessity_campaign_validates_range():
    with pytest.raises(ValueError):
        necessity_campaign((1, 5), 10, seed=0)
    with pytest.raises(ValueError):
        necessity_campaign((6, 5), 10, seed=0)


@pytest.mark.parametrize("campaign", [necessity_campaign, tree_sign_campaign])
def test_campaigns_reject_a_negative_trial_count(campaign):
    # as the CLI's --trials does; range(-1) would report trials=-1 and pass
    with pytest.raises(ValueError, match=r"^trial count must be nonnegative, got -1$"):
        campaign((2, 3), -1, 0)


def test_tree_sign_campaign_passes_and_reproduces():
    report = tree_sign_campaign((2, 30), 40, seed=13)
    assert report.passed
    assert report.min_margins["min_minus_magnitude"] > 0
    assert report.min_margins["min_plus_offdiag"] > 0
    assert report.min_margins["ratio_deviation_headroom"] > 0
    assert "ambiguous_minus_entries" in report.min_margins
    assert "ambiguous_plus_entries" in report.min_margins
    assert report == tree_sign_campaign((2, 30), 40, seed=13)


def test_tree_sign_campaign_tallies_in_band_entries_of_both_colors():
    # a wide band puts many off-diagonal entries of either predicted color inside it
    rel_tol = 0.05
    report = tree_sign_campaign((3, 25), 20, seed=4, rel_tol=rel_tol)
    counts = {MINUS: 0, PLUS: 0}
    for index in range(20):
        rng = np.random.default_rng(trial_seed(4, index))
        n = int(rng.integers(3, 26))
        g = random_tree(n, rng)
        inv = cholesky_invert(random_tree_dn_matrix(g, rng)).entries
        in_band = np.abs(inv) <= zero_threshold(inv, rel_tol)
        np.fill_diagonal(in_band, False)
        predicted = predict_tree_sign_pattern(g).signs
        for color in counts:
            counts[color] += int((in_band & (predicted == color)).sum())
    assert counts[MINUS] > 0 and counts[PLUS] > 0
    assert report.min_margins["ambiguous_minus_entries"] == counts[MINUS]
    assert report.min_margins["ambiguous_plus_entries"] == counts[PLUS]


def _reference_tree_trial(rel_tol):
    """The tree trial classified through a product: the band of the inverse times
    the predicted signs, which is negative where an entry contradicts its
    prediction, with the margins taken over that product."""

    def trial(rng, n):
        g = random_tree(n, rng)
        a = random_tree_dn_matrix(g, rng)
        a_inv = cholesky_invert(a)
        inv = a_inv.entries
        predicted = oracle.predict_tree_sign_pattern(g).signs
        signed = inv * predicted
        agreement = _band_signs(signed, zero_threshold(inv, rel_tol))
        minus = predicted == MINUS
        plus_off = ~minus
        np.fill_diagonal(plus_off, False)
        ratios = oracle.leaf_ratio_check(a, a_inv, g, rel_tol=rel_tol)
        passed = not (agreement < 0).any() and (inv.diagonal() > 0).all() and ratios.passed
        margins = {"min_diagonal_entry": float(inv.diagonal().min())}
        if minus.any():
            margins["min_minus_magnitude"] = float(signed[minus].min())
        if plus_off.any():
            margins["min_plus_offdiag"] = float(signed[plus_off].min())
        deviations = [r.max_rel_deviation for r in ratios.ratios]
        if deviations:
            margins["ratio_deviation_headroom"] = TOL_RATIO - max(deviations)
        margins["ambiguous_minus_entries"] = int(((agreement == 0) & minus).sum())
        margins["ambiguous_plus_entries"] = int(((agreement == 0) & plus_off).sum())
        return bool(passed), margins

    return trial


def _all_offdiagonal_minus(g):
    signs = np.full((g.n, g.n), MINUS)
    np.fill_diagonal(signs, PLUS)
    return SignMatrix(signs)


@pytest.mark.parametrize("rel_tol", [0.0, 1e-12, 0.05, 0.5])
def test_tree_sign_campaign_matches_a_trial_classified_through_the_product(rel_tol, monkeypatch):
    # a wrong prediction drives trials to fail, so the contradiction path is
    # compared as well as the passing one
    summed = ("ambiguous_minus_entries", "ambiguous_plus_entries")
    for wrong_prediction in (False, True):
        if wrong_prediction:
            monkeypatch.setattr(oracle, "predict_tree_sign_pattern", _all_offdiagonal_minus)
        report = tree_sign_campaign((2, 60), 30, seed=9, rel_tol=rel_tol)
        reference = _run_trials((2, 60), 30, 9, _reference_tree_trial(rel_tol), summed)
        assert report.to_dict() == reference.to_dict()
        if not wrong_prediction:
            assert report.passed
        elif rel_tol < 0.5:  # a band of half the largest entry holds every off-diagonal one
            assert report.failures > 0


def test_tree_sign_campaign_fails_every_trial_whose_leaf_ratio_check_fails(monkeypatch):
    def failing(*args, **kwargs):
        return LeafRatioReport((), ("a leaf ratio off its parent's",))

    monkeypatch.setattr(oracle, "leaf_ratio_check", failing)
    report = tree_sign_campaign((2, 40), 12, seed=5)
    assert report.failures == 12
    assert report.failure_seeds == tuple(trial_seed(5, index) for index in range(12))


def test_campaign_report_serializes():
    doc = tree_sign_campaign((2, 6), 5, seed=2).to_dict()
    assert set(doc) == {"trials", "failures", "failure_seeds", "min_margins"}
    assert doc["trials"] == 5
    assert doc["failures"] == len(doc["failure_seeds"])


def test_search_nonunique_finds_pair_at_three():
    found = search_nonunique_complete(3, 500, seed=77)
    assert found is not None
    assert found.first_pattern != found.second_pattern
    assert found.trials_used <= 500
    for matrix, pattern in (
        (found.first, found.first_pattern),
        (found.second, found.second_pattern),
    ):
        assert matrix_graph(matrix).edge_count == 3
        assert sign_of(cholesky_invert(matrix)) == pattern
        assert verify_doubly_nonnegative(matrix).passed


def test_search_nonunique_budget_exhaustion():
    assert search_nonunique_complete(3, 1, seed=0) is None


def test_search_nonunique_rejects_forced_sizes():
    with pytest.raises(ValueError):
        search_nonunique_complete(2, 10, seed=0)


def test_search_nonunique_rejects_a_negative_budget():
    # as both campaigns do; range(-1) would return None as if the budget ran out
    with pytest.raises(ValueError, match=r"^trial count must be nonnegative, got -1$"):
        search_nonunique_complete(3, -1, 0)


def test_search_nonunique_skips_a_draw_that_is_not_complete(monkeypatch):
    pair = search_nonunique_complete(3, 500, seed=77)
    path = SymMatrix([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 2.0]])  # no (1, 2) entry
    draws = iter([path, pair.first, pair.second])
    monkeypatch.setattr(oracle, "random_dn_matrix", lambda n, density, rng: next(draws))
    found = search_nonunique_complete(3, 3, seed=0)
    assert (found.first, found.second, found.trials_used) == (pair.first, pair.second, 3)


def test_random_dn_matrix_gives_up_after_max_resamples(monkeypatch):
    # at density 1e-9 no draw of n = 2 keeps its off-diagonal entries: never connected
    monkeypatch.setattr(oracle, "MAX_RESAMPLES", 3)
    with pytest.raises(RuntimeError, match=r"^no irreducible draw of size 2 in 3 attempts at density 1e-09$"):
        random_dn_matrix(2, 1e-9, 0)


def test_thinning_by_multiplication_matches_the_scatter_bit_for_bit():
    # b *= keep leaves a kept entry as drawn and turns a dropped one into 0.0,
    # as the scatter b[~keep] = 0.0 does; b >= 0, so no -0.0 appears
    rng = np.random.default_rng(21)
    for n in (2, 100, 300):
        for density in (0.3, 0.55, 0.97, 1.0):
            b = rng.random((n, n))
            b[:, 0] = 0.0  # exact zeros, kept and dropped
            draw = rng.random((n, n))
            scattered = b.copy()
            scattered[draw >= density] = 0.0
            multiplied = b.copy()
            multiplied *= draw < density
            assert np.array_equal(scattered.view(np.uint64), multiplied.view(np.uint64))
            assert np.array_equal(np.signbit(scattered), np.signbit(multiplied))
            assert not np.signbit(multiplied).any()


def test_campaign_trials_build_no_pattern_through_the_public_constructor(monkeypatch):
    # sign_of and the tree prediction store their patterns as built
    def public_constructor(self, signs):
        raise AssertionError("a trial called the public SignMatrix constructor")

    monkeypatch.setattr(SignMatrix, "__init__", public_constructor)
    assert necessity_campaign((2, 40), 15, seed=3).passed
    assert necessity_campaign((100, 120), 2, seed=3, density=0.3).passed
    assert tree_sign_campaign((2, 60), 15, seed=3).passed
