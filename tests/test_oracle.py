import numpy as np
import pytest

from dninverse import (
    MINUS,
    PLUS,
    AsymmetricSignMatrix,
    Bipartition,
    DimensionMismatch,
    SignMatrix,
    SymMatrix,
    TooLarge,
    all_bipartitions,
    bipartition_crossing_oracle,
    cholesky_invert,
    is_connected,
    matrix_graph,
    necessity_campaign,
    negative_sign_graph,
    perron_eigenpair,
    predict_tree_sign_pattern,
    quadratic_form_gap,
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

from dninverse.oracle import RIDGE_FACTOR

SPLIT = SignMatrix.from_rows(["+-++", "-+++", "+++-", "++-+"])


def test_bipartition_validation():
    part = Bipartition(frozenset({1, 3}), frozenset({2}))
    assert part.n == 3
    with pytest.raises(ValueError):
        Bipartition(frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        Bipartition(frozenset({1, 2}), frozenset({2}))
    with pytest.raises(ValueError):
        Bipartition(frozenset({1}), frozenset({3}))


def test_all_bipartitions_enumeration():
    parts = list(all_bipartitions(4))
    assert len(parts) == 7
    assert all(1 in p.side_one for p in parts)
    assert len({(tuple(sorted(p.side_two))) for p in parts}) == 7
    assert list(all_bipartitions(1)) == []


def test_crossing_oracle_hand_cases():
    assert not bipartition_crossing_oracle(SPLIT)
    assert bipartition_crossing_oracle(SignMatrix.from_rows(["+-", "-+"]))
    assert bipartition_crossing_oracle(SignMatrix.from_rows(["+"]))


def test_crossing_oracle_guards():
    with pytest.raises(TooLarge):
        bipartition_crossing_oracle(random_feasible_sign_matrix(17, 0))
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


def test_quadratic_form_gap_hand_cases():
    part = Bipartition(frozenset({1}), frozenset({2}))
    assert quadratic_form_gap(SymMatrix.identity(2), np.ones(2), part) == 0.0
    z = SymMatrix([[2.0, -1.0], [-1.0, 2.0]])
    x = np.ones(2) / np.sqrt(2)
    assert quadratic_form_gap(z, x, part) == pytest.approx(-0.5)


def test_quadratic_form_gap_dimension_checks():
    part = Bipartition(frozenset({1}), frozenset({2}))
    with pytest.raises(DimensionMismatch):
        quadratic_form_gap(SymMatrix.identity(3), np.ones(3), part)
    with pytest.raises(DimensionMismatch):
        quadratic_form_gap(SymMatrix.identity(2), np.ones(3), part)


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
        x = perron_eigenpair(a).vector
        slack = 1e-8 * float(np.abs(inv.entries).max())
        for part in all_bipartitions(n):
            assert quadratic_form_gap(inv, x, part) <= slack
            one = np.array(sorted(part.side_one)) - 1
            two = np.array(sorted(part.side_two)) - 1
            block = inv.entries[np.ix_(one, two)]
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


def test_necessity_campaign_validates_range():
    with pytest.raises(ValueError):
        necessity_campaign((1, 5), 10, seed=0)
    with pytest.raises(ValueError):
        necessity_campaign((6, 5), 10, seed=0)


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
