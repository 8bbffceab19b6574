import argparse
import contextlib
import functools
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import dninverse
from dninverse import (
    SymMatrix,
    ambiguous_signs,
    check_feasible,
    cholesky_invert,
    cli,
    densemat,
    oracle,
    read_matrix,
    read_sign_matrix,
    sign_of,
    signpattern,
    verify_doubly_nonnegative,
    write_matrix,
)
from dninverse.cli import main
from dninverse.oracle import necessity_campaign

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_check_feasible_pattern(capsys):
    code = main(["check", str(FIXTURES / "path3.signs")])
    assert code == 0
    assert "FEASIBLE" in capsys.readouterr().out


def test_check_infeasible_pattern_reports_components(capsys):
    code = main(["check", str(FIXTURES / "infeasible_split.signs")])
    assert code == 1
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out
    assert "{1,2} {3,4}" in out


def test_check_json_document(capsys):
    code = main(["check", str(FIXTURES / "infeasible_split.signs"), "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False
    assert doc["delta_components"] == [[1, 2], [3, 4]]


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.signs"
    bad.write_text("2\n+-\n")
    code = main(["check", str(bad)])
    assert code == 2
    assert "bad.signs" in capsys.readouterr().err


def test_witness_writes_realizing_matrix(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    code = main(["witness", str(FIXTURES / "path3.signs"), "--out", str(out)])
    assert code == 0
    assert "exact match" in capsys.readouterr().out
    a = read_matrix(out)
    assert verify_doubly_nonnegative(a).passed


def test_witness_two_by_two_value(tmp_path):
    pattern = tmp_path / "p.signs"
    pattern.write_text("2\n+-\n-+\n")
    out = tmp_path / "w.txt"
    assert main(["witness", str(pattern), "--out", str(out)]) == 0
    a = read_matrix(out)
    np.testing.assert_allclose(a.entries, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-15)


def test_witness_refuses_infeasible(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code = main(
        ["witness", str(FIXTURES / "infeasible_split.signs"), "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert "no witness" in capsys.readouterr().out


def test_predict_path(capsys):
    code = main(["predict", str(FIXTURES / "path3.graph")])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["3", "+-+", "-+-", "+-+"]


def test_predict_distances_justification(capsys):
    code = main(["predict", str(FIXTURES / "path3.graph"), "--distances"])
    assert code == 0
    out = capsys.readouterr().out
    assert "d(1,3) = 2 (even) -> +" in out


def test_predict_distances_list_every_pair_in_order_in_text_and_json(tmp_path, capsys):
    n = 5
    path = tmp_path / "path.graph"
    path.write_text(f"{n}\n" + "".join(f"{i + 1} {i}\n" for i in range(1, n)))
    pairs = [(i, j, j - i) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    assert main(["predict", str(path), "--distances"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[n + 1 :] == [
        f"# d({i},{j}) = {d} ({'odd' if d % 2 else 'even'}) -> {'-' if d % 2 else '+'}"
        for i, j, d in pairs
    ]
    assert main(["predict", str(path), "--distances", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["distances"] == [
        {"i": i, "j": j, "distance": d, "sign": "-" if d % 2 else "+"} for i, j, d in pairs
    ]


def test_predict_writes_pattern_file(tmp_path):
    out = tmp_path / "predicted.signs"
    code = main(["predict", str(FIXTURES / "path3.graph"), "--out", str(out)])
    assert code == 0
    assert read_sign_matrix(out).to_rows() == ["+-+", "-+-", "+-+"]


def test_predict_out_escapes_a_graph_path_that_is_not_utf8(tmp_path, capsys):
    # the byte 0xe9 comes through argv as a lone surrogate, which the comment
    # naming the graph writes as a backslash escape
    graph = tmp_path / os.fsdecode(b"tree\xe9.graph")
    graph.write_text("3\n1 2\n2 3\n", encoding="utf-8")
    out = tmp_path / "predicted.signs"
    code = main(["predict", str(graph), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert read_sign_matrix(out).to_rows() == printed[1:4] == ["+-+", "-+-", "+-+"]
    assert out.read_text(encoding="utf-8").startswith("# predicted from ")
    assert "tree\\udce9.graph" in out.read_text(encoding="utf-8")


def test_predict_rejects_non_tree(capsys):
    code = main(["predict", str(FIXTURES / "triangle.graph")])
    assert code == 1
    assert "not a tree" in capsys.readouterr().err


def test_verify_doubly_nonnegative_matrix(capsys):
    code = main(["verify", str(FIXTURES / "path3_matrix.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert "doubly nonnegative" in out
    assert "+-+" in out


def test_verify_rejects_negative_entry(tmp_path, capsys):
    bad = tmp_path / "neg.txt"
    bad.write_text("2\n1 -0.5\n-0.5 1\n")
    code = main(["verify", str(bad)])
    assert code == 1
    assert "NOT doubly nonnegative" in capsys.readouterr().out
    assert main(["verify", str(bad), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["is_entrywise_nonneg"] is False


def test_verify_rejects_a_matrix_whose_inverse_overflows(tmp_path, capsys):
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("1\n1e-310\n")
    assert main(["verify", str(tiny)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.9999999", "0.1234567"])
def test_the_tolerance_header_prints_the_tolerance_used(value, capsys):
    # six significant digits would print 0.9999999 as 1, which --tol-zero rejects
    main(["verify", str(FIXTURES / "path3_matrix.txt"), "--tol-zero", value])
    assert capsys.readouterr().out.splitlines()[0] == f"# tol_zero_rel = {value}"


def test_verify_gives_a_verdict_on_entries_near_the_float_maximum(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("2\n1.7976931348623157e308 1\n1 1.7976931348623157e308\n")
    assert np.isfinite(read_matrix(path).entries).all()
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "matrix 2x2: NOT doubly nonnegative" in captured.out
    assert "irreducible: no" in captured.out
    assert captured.err == ""


def test_verify_factors_its_matrix_once(dpotrf_calls, capsys):
    assert main(["verify", str(FIXTURES / "path3_matrix.txt")]) == 0
    assert dpotrf_calls == [3]  # the verdict's factor is the one inverted


def test_witness_factors_each_of_its_two_matrices_once(dpotrf_calls, tmp_path, capsys):
    assert main(["witness", str(FIXTURES / "path3.signs"), "--out", str(tmp_path / "w.txt")]) == 0
    assert dpotrf_calls == [3, 3]  # Q, then the witness A for its round trip and its verdict


def test_witness_that_fails_to_factor_reports_the_factorization_error(monkeypatch, tmp_path, capsys):
    # with this floor Q's smallest relative pivot (0.875) passes and its
    # inverse's (7/9) does not
    monkeypatch.setattr(densemat, "REL_PIVOT_FLOOR", 0.8)
    pattern = read_sign_matrix(FIXTURES / "path3.signs")
    a = densemat.cholesky_invert(signpattern.construct_witness(pattern))
    with pytest.raises(densemat.NotPositiveDefinite) as expected:
        densemat.cholesky_invert(a)
    out = tmp_path / "w.txt"
    assert main(["witness", str(FIXTURES / "path3.signs"), "--out", str(out), "--json"]) == 1
    assert capsys.readouterr() == ("", f"error: {expected.value}\n")
    assert "at or below floor" in str(expected.value)
    assert not out.exists()


def test_verify_json_of_a_dense_300_matrix_equals_the_public_kernels(tmp_path, capsys):
    rng = np.random.default_rng(300)
    b = rng.random((300, 300))
    path = tmp_path / "m.txt"
    write_matrix(path, SymMatrix(b @ b.T + 300 * np.eye(300)))
    a = read_matrix(path)
    assert main(["verify", "--json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    with densemat.single_blas_thread():  # as main runs them: a thread count can move a last bit
        inverse = cholesky_invert(a)
        verdict = verify_doubly_nonnegative(a)
    assert doc["inverse_pattern_rows"] == sign_of(inverse).to_rows()
    assert doc["verdict"] == verdict.to_dict()
    assert doc["ambiguous_entries"] == [list(pair) for pair in ambiguous_signs(inverse)]
    assert "-" in "".join(doc["inverse_pattern_rows"])


def _verb_json(argv, capsys):
    """Exit code and JSON document of one verb run with ``--json``."""
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_tol_zero_reaches_every_sign_decision_of_verify(capsys):
    # at 0.5 the unit off-diagonal entries of the path matrix (max 2) and the
    # -1/2 and 1/4 entries of its inverse (max 1) all fall inside the band
    path = FIXTURES / "path3_matrix.txt"
    a = read_matrix(path)
    code, doc = _verb_json(["verify", str(path), "--tol-zero", "0.5"], capsys)
    with densemat.single_blas_thread():  # as main runs them: a thread count can move a last bit
        verdict = verify_doubly_nonnegative(a, rel_tol=0.5)
        inverse = cholesky_invert(a)
    pattern = sign_of(inverse, 0.5)
    assert code == 1
    assert doc["verdict"] == verdict.to_dict()
    assert doc["inverse_pattern_rows"] == pattern.to_rows()
    assert doc["inverse_pattern_feasible"] == check_feasible(pattern).to_dict()
    assert doc["ambiguous_entries"] == [list(pair) for pair in ambiguous_signs(inverse, 0.5)]
    # and none of it is what the default band gives
    _, default = _verb_json(["verify", str(path)], capsys)
    assert not doc["verdict"]["is_irreducible"] and default["verdict"]["is_irreducible"]
    assert doc["inverse_pattern_rows"] == ["+++"] * 3 != default["inverse_pattern_rows"]
    assert doc["ambiguous_entries"] == [[1, 2], [1, 3], [2, 3]] != default["ambiguous_entries"]


def test_tol_zero_reaches_every_sign_decision_of_witness(tmp_path, capsys):
    # the witness A of the path pattern is (1/21) [[8, 3, 1], [3, 9, 3], [1, 3, 8]]
    # and its round trip Q has -1 off the diagonal and 3 on it: at 0.5 the
    # band holds A's 3 and 1 entries and Q's -1 entries
    pattern = read_sign_matrix(FIXTURES / "path3.signs")
    argv = ["witness", str(FIXTURES / "path3.signs"), "--out", str(tmp_path / "w.txt")]
    code, doc = _verb_json([*argv, "--tol-zero", "0.5"], capsys)
    with densemat.single_blas_thread():
        realizing = cholesky_invert(signpattern.construct_witness(pattern))
        verdict = verify_doubly_nonnegative(realizing, rel_tol=0.5)
        roundtrip = cholesky_invert(realizing)
    assert code == 1
    assert doc["verdict"] == verdict.to_dict()
    assert doc["roundtrip_exact"] is (sign_of(roundtrip, 0.5) == pattern) is False
    _, default = _verb_json(argv, capsys)
    assert default["verdict"]["passed"] and default["roundtrip_exact"]
    assert not doc["verdict"]["passed"]


def test_tol_zero_reaches_the_necessity_campaign(capsys):
    argv = ["fuzz", "--theorem", "1", "--trials", "6", "--seed", "3", "--n-min", "2", "--n-max", "12"]
    code, doc = _verb_json([*argv, "--tol-zero", "0.5"], capsys)
    with densemat.single_blas_thread():
        report = necessity_campaign((2, 12), 6, 3, rel_tol=0.5)
    assert code == (0 if report.passed else 1)
    assert doc == report.to_dict()
    _, default = _verb_json(argv, capsys)
    assert doc != default


def test_verify_reports_no_negative_zero_as_the_worst_negative_entry(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 -0\n-0 1\n")
    assert main(["verify", str(path)]) == 1  # reducible
    assert "(worst negative entry 0.000e+00)" in capsys.readouterr().out
    _, doc = _verb_json(["verify", str(path)], capsys)
    assert math.copysign(1.0, doc["verdict"]["worst_negative_entry"]) == 1.0


@pytest.mark.parametrize("verb", ["verify", "check"])
def test_a_byte_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys, verb):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2\n1 0\xff\n0 1\n")
    assert main([verb, str(path)]) == 2
    assert f"error: {path}:2: byte 0xff" in capsys.readouterr().err


def test_fuzz_both_campaigns(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "fuzz",
            "--trials",
            "20",
            "--seed",
            "5",
            "--n-max",
            "10",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert set(doc) == {"1", "2"}
    assert doc["1"]["failures"] == 0


def test_fuzz_single_campaign_json_schema(capsys):
    code = main(["fuzz", "--theorem", "2", "--trials", "10", "--seed", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"trials", "failures", "failure_seeds", "min_margins"}
    assert doc["trials"] == 10


def test_fuzz_zero_trials(capsys):
    code = main(["fuzz", "--theorem", "1", "--trials", "0", "--seed", "1"])
    assert code == 0


def test_fuzz_requires_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--trials", "5"])
    assert info.value.code == 2


def test_fuzz_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--trials", "5", "--seed", "-1"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fuzz", "--trials", "5", "--seed", "1.5"], "seed must be an integer, got '1.5'"),
        (["fuzz", "--trials", "-3", "--seed", "1"], "value must be nonnegative"),
        (["search-nonunique", "--seed", "1", "--max-trials", "-1"], "value must be nonnegative"),
    ],
)
def test_a_bad_seed_or_count_is_a_usage_error_that_says_why(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_density_under_theorem_2_alone_exits_2_before_any_trial(monkeypatch, capsys):
    # theorem 2's trials draw trees, so the flag would be silently ignored
    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(oracle, "necessity_campaign", no_campaign)
    monkeypatch.setattr(oracle, "tree_sign_campaign", no_campaign)
    code = main(["fuzz", "--theorem", "2", "--trials", "2", "--seed", "1", "--density", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: --density ")


def test_search_nonunique_writes_pair(tmp_path, capsys):
    prefix = str(tmp_path / "pair")
    code = main(["search-nonunique", "--seed", "3", "--out", prefix])
    assert code == 0
    first = read_matrix(prefix + "-a.txt")
    second = read_matrix(prefix + "-b.txt")
    assert verify_doubly_nonnegative(first).passed
    assert verify_doubly_nonnegative(second).passed
    assert "differing positions" in capsys.readouterr().out


@pytest.mark.parametrize("n, pair", [(3, "nonunique_pair"), (4, "nonunique_pair_n4")])
def test_search_nonunique_output_is_pinned(n, pair, tmp_path, capsys):
    expected = json.loads((FIXTURES / "search_nonunique_seed3.json").read_text())[str(n)]
    argv = ["search-nonunique", "--seed", "3", "--n", str(n)]
    prefix = str(tmp_path / "text")
    assert main(argv + ["--out", prefix]) == 0
    files = [f"{prefix}-{part}.txt" for part in ("a", "b", "diff")]
    wrote = "wrote " + " ".join(files)
    assert capsys.readouterr().out.splitlines() == expected["text"] + [wrote]
    for path, part in zip(files, ("a", "b", "diff")):
        assert pathlib.Path(path).read_bytes() == (FIXTURES / f"{pair}-{part}.txt").read_bytes()
    prefix = str(tmp_path / "json")
    assert main(argv + ["--json", "--out", prefix]) == 0
    files = [f"{prefix}-{part}.txt" for part in ("a", "b", "diff")]
    assert json.loads(capsys.readouterr().out) == {**expected["json"], "files": files}


def _feasible_minus(n, rng):
    """MINUS mask of a feasible pattern: a random recursive tree of MINUS pairs
    plus random extra pairs, drawn as the benchmark's ``feasible_minus`` draws it."""
    order = rng.permutation(n) + 1
    parent_pos = (rng.random(n - 1) * np.arange(1, n)).astype(int)
    edges = np.column_stack([order[1:], order[parent_pos]])
    flip = rng.random(n - 1) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    edges = edges[rng.permutation(n - 1)]
    minus = np.triu(rng.random((n, n)) < 0.5, k=1)
    minus[edges[:, 0] - 1, edges[:, 1] - 1] = True
    return minus | minus.T


def test_witness_file_is_pinned(tmp_path, capsys):
    minus = _feasible_minus(40, np.random.default_rng(40))
    pattern = tmp_path / "p.signs"
    pattern.write_text("40\n" + "".join("".join("-" if m else "+" for m in row) + "\n" for row in minus))
    out = tmp_path / "witness.txt"
    assert main(["witness", str(pattern), "--out", str(out)]) == 0
    assert f"witness 40x40 written to {out}" in capsys.readouterr().out
    assert out.read_bytes() == (FIXTURES / "witness_feasible40_seed40.txt").read_bytes()


def test_search_alias_and_budget_exhaustion(capsys):
    code = main(["search", "--seed", "0", "--max-trials", "1"])
    assert code == 1
    assert "no second" in capsys.readouterr().out


def test_unknown_verb_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1", "2", "abc"])
def test_tol_zero_outside_unit_interval_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", str(FIXTURES / "path3_matrix.txt"), f"--tol-zero={value}"])
    assert info.value.code == 2
    assert "--tol-zero" in capsys.readouterr().err


def _file_system_error_cases(tmp_path):
    missing = str(tmp_path / "missing.txt")
    directory = str(tmp_path)
    no_dir = str(tmp_path / "no" / "such" / "out.txt")
    out = str(tmp_path / "out.txt")
    signs, graph = str(FIXTURES / "path3.signs"), str(FIXTURES / "path3.graph")
    return [
        ["check", missing],
        ["check", directory],
        ["witness", missing, "--out", out],
        ["witness", directory, "--out", out],
        ["witness", signs, "--out", no_dir],
        ["verify", missing],
        ["verify", directory],
        ["predict", missing],
        ["predict", directory],
        ["predict", graph, "--out", no_dir],
        ["fuzz", "--trials", "1", "--seed", "1", "--out", no_dir],
        ["search-nonunique", "--seed", "3", "--out", no_dir],
    ]


def test_file_system_errors_exit_2_with_a_message(tmp_path, capsys):
    for argv in _file_system_error_cases(tmp_path):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno"), (argv, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-0.5", "0", "nan", "7", "inf", "abc"])
@pytest.mark.parametrize("theorem, trials", [("1", "2"), ("2", "2"), ("all", "2"), ("all", "0")])
def test_density_outside_the_unit_interval_is_a_usage_error(value, theorem, trials, capsys):
    argv = ["fuzz", "--theorem", theorem, "--trials", trials, "--seed", "1"]
    with pytest.raises(SystemExit) as info:
        main([*argv, f"--density={value}"])
    assert info.value.code == 2
    assert "--density" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.5", "1"])
def test_density_in_the_unit_interval_fixes_the_campaign_density(value, capsys):
    argv = ["fuzz", "--theorem", "all", "--trials", "4", "--seed", "9", "--json"]
    assert main([*argv, "--density", value]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = necessity_campaign((2, 12), 4, 9, density=float(value))
    assert report["1"] == expected.to_dict()


def test_fuzz_report_matches_golden_seed_42(capsys):
    # Both campaigns, sizes 2..100, 500 trials each. Counts must match
    # exactly and margins to 1e-12 relative, which leaves another BLAS build
    # room to round the last digits differently.
    argv = ["fuzz", "--theorem", "all", "--trials", "500", "--seed", "42"]
    code = main([*argv, "--n-min", "2", "--n-max", "100", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    golden = json.loads((FIXTURES / "fuzz_all_seed42.json").read_text())
    assert set(report) == set(golden) == {"1", "2"}
    for key, expected in golden.items():
        got = report[key]
        for field in ("trials", "failures", "failure_seeds"):
            assert got[field] == expected[field]
        assert got["min_margins"] == pytest.approx(expected["min_margins"], rel=1e-12, abs=0.0)


def test_dense_fuzz_report_matches_golden_seed_7(capsys):
    # The necessity campaign alone at sizes 100..300, 40 trials, where each
    # draw is thinned and each margin reduced over large matrices. Same
    # tolerance as the seed-42 fixture.
    argv = ["fuzz", "--theorem", "1", "--trials", "40", "--seed", "7"]
    assert main([*argv, "--n-min", "100", "--n-max", "300", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    expected = json.loads((FIXTURES / "fuzz_theorem1_seed7_n100_300.json").read_text())
    assert set(got) == set(expected)
    for field in ("trials", "failures", "failure_seeds"):
        assert got[field] == expected[field]
    assert got["min_margins"] == pytest.approx(expected["min_margins"], rel=1e-12, abs=0.0)


def test_tree_fuzz_report_matches_golden_seed_7(capsys):
    # The tree campaign alone at sizes 2..200, 300 trials: deeper trees than
    # the seed-42 fixture, so most in-band tallies come from long paths. Same
    # tolerance as the seed-42 fixture.
    argv = ["fuzz", "--theorem", "2", "--trials", "300", "--seed", "7"]
    assert main([*argv, "--n-min", "2", "--n-max", "200", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    expected = json.loads((FIXTURES / "fuzz_theorem2_seed7_n2_200.json").read_text())
    assert set(got) == set(expected)
    for field in ("trials", "failures", "failure_seeds"):
        assert got[field] == expected[field]
    assert got["min_margins"] == pytest.approx(expected["min_margins"], rel=1e-12, abs=0.0)


def test_golden_necessity_margin_is_within_1e_8_of_the_exact_inverse_entry():
    # The golden "1".min_minus_magnitude comes from trial 372 (n = 85, kappa_2
    # about 6.9e4), entry (25, 37). Its float value depends on how the kernel
    # rounds; the exact inverse of the stored matrix does not. A 30-digit
    # solve for that column pins the fixture to within 1e-8 relative of it.
    import mpmath

    from dninverse.oracle import DENSITY_RANGE, random_dn_matrix, trial_seed

    rng = np.random.default_rng(trial_seed(42, 372))
    n = int(rng.integers(2, 101))
    a = random_dn_matrix(n, float(rng.uniform(*DENSITY_RANGE)), rng)
    inv = dninverse.cholesky_invert(a).entries
    i, j = np.unravel_index(np.argmin(np.where(inv < 0, -inv, np.inf)), inv.shape)
    assert (n, i, j) == (85, 24, 36)
    with mpmath.workdps(30):
        column = mpmath.lu_solve(mpmath.matrix(a.entries.tolist()), mpmath.eye(n)[:, int(j)])
        exact = float(-column[int(i)])
    golden = json.loads((FIXTURES / "fuzz_all_seed42.json").read_text())
    assert golden["1"]["min_margins"]["min_minus_magnitude"] == pytest.approx(exact, rel=1e-8, abs=0.0)


def _pool_count():
    return densemat._openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def blas_pool():
    """numpy's OpenBLAS pool with its thread count raised to two (as far as the
    machine allows), restored afterwards; the count it has then."""
    lib = densemat._openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS")
    saved = _pool_count()
    lib.scipy_openblas_set_num_threads64_(2)
    yield _pool_count()
    lib.scipy_openblas_set_num_threads64_(saved)


def _recording_check(seen):
    def verb(args):
        seen.append(_pool_count())
        return 0

    return verb


def test_main_runs_verbs_on_one_blas_thread_and_restores_the_pools(blas_pool, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_check", _recording_check(seen))
    assert main(["check", str(FIXTURES / "path3.signs")]) == 0
    assert seen == [1]
    assert _pool_count() == blas_pool


def test_main_restores_the_pools_when_a_verb_fails(blas_pool, monkeypatch, capsys):
    def failing(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_cmd_check", failing)
    assert main(["check", str(FIXTURES / "path3.signs")]) == 2
    assert "boom" in capsys.readouterr().err
    assert _pool_count() == blas_pool


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_main_pins_the_pools_under_a_thread_variable(blas_pool, monkeypatch, name):
    # the variable sets OpenBLAS's count at load; a verb runs one thread all the same
    seen = []
    monkeypatch.setenv(name, "2")
    monkeypatch.setattr(cli, "_cmd_check", _recording_check(seen))
    assert main(["check", str(FIXTURES / "path3.signs")]) == 0
    assert seen == [1]
    assert _pool_count() == blas_pool


def test_dense_fuzz_prints_the_golden_report_under_either_thread_variable():
    # Two OpenBLAS threads move the last bits of this campaign's margins (a
    # relative 9e-6 in min_minus_magnitude), so a verb pins one thread in
    # every environment. A fresh interpreter, since the variables are read
    # when OpenBLAS loads.
    argv = ["fuzz", "--theorem", "1", "--trials", "40", "--seed", "7"]
    argv += ["--n-min", "100", "--n-max", "300", "--json"]
    code = "import sys; from dninverse.cli import main; sys.exit(main(sys.argv[1:]))"
    golden = (FIXTURES / "fuzz_theorem1_seed7_n100_300.json").read_text().strip()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env = {key: value for key, value in os.environ.items() if "NUM_THREADS" not in key}
        assert _fresh_python(code, *argv, env={**env, name: "2"}) == golden, name


def test_nested_blocks_keep_the_pool_pinned_until_the_outer_block_ends(blas_pool):
    seen = []
    with densemat.single_blas_thread():
        with densemat.single_blas_thread():
            seen.append(_pool_count())
        seen.append(_pool_count())
    assert seen == [1, 1]
    assert _pool_count() == blas_pool


def test_verify_runs_every_lapack_call_on_one_blas_thread(blas_pool, monkeypatch):
    lib = densemat._openblas()
    seen = []
    for symbol in ("scipy_dpotrf_64_", "scipy_dtrtri_64_", "scipy_dsyevr_64_"):

        def recording(*args, routine=getattr(lib, symbol), name=symbol[6:12]):
            seen.append((name, _pool_count()))
            routine(*args)

        monkeypatch.setattr(lib, symbol, recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(FIXTURES / "path3_matrix.txt")]) == 0
    # dsyevr is called twice: the workspace query, then the solve
    assert seen == [("dpotrf", 1), ("dtrtri", 1), ("dsyevr", 1), ("dsyevr", 1)]
    assert _pool_count() == blas_pool


def _json_outputs(argv, tmp_path, capsys, number=float):
    """Exit code, stdout and the tokens of each file written under ``tmp_path`` by
    one ``main`` call, with every number read by ``number``; the files are removed."""

    def token(text):
        try:
            return number(float(text))
        except ValueError:
            return text

    code = main(argv)
    out = json.loads(capsys.readouterr().out, parse_float=token)
    files = []
    for path in sorted(tmp_path.iterdir()):
        files.append((path.name, [token(text) for text in path.read_text().split()]))
        path.unlink()
    return code, out, files


def test_main_runs_when_no_openblas_is_found(monkeypatch, tmp_path, capsys):
    # under a numpy that bundles no OpenBLAS the kernels are numpy.linalg's and
    # nothing is pinned: the last bits may move, the answers do not
    calls = [
        ["verify", str(FIXTURES / "path3_matrix.txt"), "--json"],
        ["verify", str(FIXTURES / "nonunique_pair_n4-a.txt"), "--json"],
        ["witness", str(FIXTURES / "path3.signs"), "--json", "--out", str(tmp_path / "w.txt")],
        ["witness", str(FIXTURES / "infeasible_split.signs"), "--json", "--out", str(tmp_path / "x.txt")],
        ["fuzz", "--theorem", "all", "--trials", "20", "--seed", "3", "--json"],
        ["search-nonunique", "--seed", "3", "--n", "4", "--json", "--out", str(tmp_path / "pair")],
    ]
    close = functools.partial(pytest.approx, rel=1e-9)
    expected = [_json_outputs(argv, tmp_path, capsys, close) for argv in calls]
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0, 0]
    monkeypatch.setattr(densemat, "_openblas", lambda: None)
    assert main(["check", str(FIXTURES / "path3.signs")]) == 0
    assert "FEASIBLE" in capsys.readouterr().out
    for argv, (code, out, files) in zip(calls, expected):
        got_code, got_out, got_files = _json_outputs(argv, tmp_path, capsys)
        assert (got_code, got_out, got_files) == (code, out, files), argv


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(), "error: out of memory"),
        (
            MemoryError("Unable to allocate 26.8 GiB for an array with shape (60000, 60000) and data type float64"),
            "error: Unable to allocate 26.8 GiB for an array with shape (60000, 60000) and data type float64",
        ),
    ],
    ids=["bare", "numpy"],
)
def test_running_out_of_memory_exits_2_with_one_error_line(error, line, monkeypatch, capsys):
    # exit 1 is a negative domain answer; a size the machine cannot hold is not one
    def exhausted(*args):
        raise error

    monkeypatch.setattr(oracle, "random_dn_matrix", exhausted)
    argv = ["fuzz", "--theorem", "1", "--trials", "1", "--seed", "1", "--n-min", "60000", "--n-max", "60000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


def test_the_out_of_memory_line_is_written_after_the_failed_verb_is_freed(monkeypatch):
    # while the handler runs, its traceback keeps the verb's frames and whatever
    # exhausted memory alive, so writing the line there can raise MemoryError again
    hoard = []

    def exhausted(args):
        held = np.zeros(1 << 16)
        hoard.append(weakref.ref(held))
        raise MemoryError

    writes = []

    class Stderr:
        def write(self, text):
            writes.append((text, hoard[0]() is None))
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(cli, "_cmd_fuzz", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["fuzz", "--trials", "1", "--seed", "1"]) == 2
    assert "".join(text for text, _ in writes) == "error: out of memory\n"
    assert all(freed for _, freed in writes)


def test_predict_on_a_huge_edgeless_graph_exits_1_without_adjacency(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("1000000000\n")
    tracemalloc.start()
    try:
        code = main(["predict", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "not a tree" in capsys.readouterr().err
    assert peak < 2**20


def test_predict_renders_a_long_path_in_memory_linear_in_n(tmp_path):
    # the pattern of a tree has two distinct rows, so neither stdout nor --out
    # needs the n^2 pattern or its n^2 characters at once
    n = 3000
    path = tmp_path / "path.graph"
    path.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    out = tmp_path / "path.signs"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["predict", str(FIXTURES / "path3.graph")]) == 0  # the parser is cached
        tracemalloc.start()
        try:
            code = main(["predict", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < n * n // 4
    rows = read_sign_matrix(out).to_rows()
    assert rows[0] == "+-" * (n // 2) and rows[1] == "-+" * (n // 2)
    assert rows[2:] == rows[:-2]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_predict_distances_prints_a_long_path_without_keeping_its_pair_table(tmp_path, flags):
    # both modes print the n(n - 1)/2 pairs a vertex at a time; the table of
    # 79,800 pairs took 23 MiB in text mode and 81 MiB as JSON when it was kept whole
    n = 400
    path = tmp_path / "path.graph"
    path.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["predict", str(FIXTURES / "path3.graph")]) == 0  # the parser is cached
        tracemalloc.start()
        try:
            code = main(["predict", str(path), "--distances", *flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**21


@pytest.mark.parametrize(
    "edges", [[], [(1, 2)], [(2, 1), (2, 3)], [(1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (2, 7)]],
    ids=["n1", "n2", "n3", "n7"],
)
def test_predict_json_distances_prints_the_bytes_of_dumping_the_whole_document(tmp_path, capsys, edges):
    n = len(edges) + 1
    path = tmp_path / "tree.graph"
    path.write_text(f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    assert main(["predict", str(path), "--distances"]) == 0
    lines = capsys.readouterr().out.splitlines()
    pair = re.compile(r"# d\((\d+),(\d+)\) = (\d+) \((?:odd|even)\) -> ([+-])")
    pairs = [pair.fullmatch(line).groups() for line in lines[n + 1 :]]
    assert len(pairs) == n * (n - 1) // 2
    document = {
        "n": n,
        "rows": lines[1 : n + 1],
        "distances": [{"i": int(i), "j": int(j), "distance": int(d), "sign": s} for i, j, d, s in pairs],
    }
    assert main(["predict", str(path), "--json", "--distances"]) == 0
    assert capsys.readouterr().out == json.dumps(document, indent=2) + "\n"


def _fresh_python(code, *args, env=None):
    """stdout of ``code`` run in a new interpreter that imports this checkout's package."""
    package_root = pathlib.Path(dninverse.__file__).resolve().parent.parent
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(package_root)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # the package never imports scipy.sparse; loading it with the CLI would
    # cost every verb its import time and memory
    code = "import sys, dninverse.cli; print('scipy.sparse' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_dense_verbs_leave_scipy_sparse_unloaded(tmp_path):
    # check, verify, witness and the necessity campaign test connectivity on
    # the boolean mask they hold, and nothing in the package loads scipy.sparse
    calls = [
        ["check", str(FIXTURES / "path3.signs")],
        ["check", str(FIXTURES / "infeasible_split.signs")],
        ["verify", str(FIXTURES / "path3_matrix.txt")],
        ["witness", str(FIXTURES / "path3.signs"), "--out", str(tmp_path / "w.txt")],
        ["fuzz", "--theorem", "1", "--trials", "5", "--seed", "3", "--n-min", "2", "--n-max", "30"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from dninverse.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'scipy.sparse' in sys.modules)\n"
    )
    assert _fresh_python(code, json.dumps(calls)) == "[0, 1, 0, 0, 0] False"


def test_the_tree_verbs_and_the_edge_list_connectivity_leave_scipy_sparse_unloaded():
    # the dense verbs are covered above
    calls = [
        ["predict", str(FIXTURES / "path3.graph"), "--distances"],
        ["fuzz", "--trials", "4", "--seed", "3", "--n-max", "12"],
        ["search-nonunique", "--seed", "3", "--max-trials", "200"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from dninverse import UGraph, connected_components, is_connected\n"
        "from dninverse.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "g = UGraph(4, [(1, 2), (3, 4)])\n"
        "print(codes, connected_components(g), is_connected(g).connected,\n"
        "      'scipy.sparse' in sys.modules)\n"
    )
    expected = "[0, 0, 0] ((1, 2), (3, 4)) False False"
    assert _fresh_python(code, json.dumps(calls)) == expected


def test_importing_the_package_and_the_cli_leaves_scipy_unloaded():
    # scipy.linalg is a third of a second of import time, and the package
    # never loads it
    code = (
        "import sys\n"
        "import dninverse\n"
        "print(sorted({'scipy', 'scipy.linalg'} & set(sys.modules)))\n"
        "import dninverse.cli\n"
        "print(sorted({'scipy', 'scipy.linalg'} & set(sys.modules)))\n"
    )
    assert _fresh_python(code).splitlines() == ["[]", "[]"]


_SCIPY_AFTER_MAIN = (
    "import contextlib, io, json, sys\n"
    "from dninverse.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(json.loads(sys.argv[1]))\n"
    "print(code, sorted({'scipy', 'scipy.linalg'} & set(sys.modules)))\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", str(FIXTURES / "path3.signs")], 0),
        (["check", str(FIXTURES / "infeasible_split.signs"), "--json"], 1),
        (["predict", str(FIXTURES / "path3.graph"), "--distances"], 0),
        (["predict", str(FIXTURES / "triangle.graph")], 1),
    ],
    ids=["check", "check-infeasible", "predict", "predict-not-a-tree"],
)
def test_check_and_predict_leave_scipy_unloaded(argv, code):
    assert _fresh_python(_SCIPY_AFTER_MAIN, json.dumps(argv)) == f"{code} []"


def test_no_verb_loads_scipy(tmp_path):
    # the LAPACK kernels run on the OpenBLAS numpy has loaded, so scipy, a
    # second BLAS library and a third of a second of import time, stays out
    calls = [
        ["check", str(FIXTURES / "path3.signs")],
        ["predict", str(FIXTURES / "path3.graph")],
        ["verify", str(FIXTURES / "path3_matrix.txt")],
        ["witness", str(FIXTURES / "path3.signs"), "--out", str(tmp_path / "w.txt")],
        ["fuzz", "--theorem", "all", "--trials", "5", "--seed", "3"],
        ["search-nonunique", "--seed", "3", "--out", str(tmp_path / "pair")],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from dninverse.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(code, json.dumps(calls)) == "[0, 0, 0, 0, 0, 0] []"


# The package modules loaded by `import dninverse` alone (argv null), by
# `import dninverse.cli` (argv []), or by one main call
_MODULES_AFTER_MAIN = (
    "import contextlib, io, json, sys\n"
    "import dninverse\n"
    "argv = json.loads(sys.argv[1])\n"
    "if argv is not None:\n"
    "    from dninverse.cli import main\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        argv and main(argv)\n"
    "print(sorted(name for name in sys.modules if name.startswith('dninverse.')))\n"
)
_CLI_MODULES = ["cli", "densemat", "errors", "fileio", "graphs", "signpattern"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, []),
        ([], _CLI_MODULES),
        (["check", str(FIXTURES / "path3.signs")], _CLI_MODULES),
        (["verify", str(FIXTURES / "path3_matrix.txt")], _CLI_MODULES),
        (["witness", str(FIXTURES / "path3.signs"), "--out", os.devnull], _CLI_MODULES),
        (["predict", str(FIXTURES / "path3.graph")], _CLI_MODULES + ["treesign"]),
        (["fuzz", "--trials", "2", "--seed", "1"], _CLI_MODULES + ["oracle", "treesign"]),
    ],
    ids=["package", "cli", "check", "verify", "witness", "predict", "fuzz"],
)
def test_each_verb_loads_only_the_package_modules_it_runs(argv, loaded):
    # the campaign modules oracle and treesign are imported by the verbs that
    # call them, and the package itself imports none of its modules
    expected = sorted(f"dninverse.{name}" for name in loaded)
    assert _fresh_python(_MODULES_AFTER_MAIN, json.dumps(argv)) == str(expected)


def test_no_subcommand_declares_whether_it_loads_lapack():
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert subparsers.choices
    for name, parser in subparsers.choices.items():
        assert parser.get_default("lapack") is None, name


def test_main_builds_the_parser_once_for_many_calls(capsys):
    cli.build_parser.cache_clear()
    try:
        for argv in (["check", str(FIXTURES / "path3.signs")], ["predict", str(FIXTURES / "path3.graph")]) * 2:
            assert main(argv) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
    finally:
        cli.build_parser.cache_clear()


def test_the_cached_parser_survives_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "--trials", "x", "--seed", "1"])
    assert info.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert main(["check", str(FIXTURES / "path3.signs"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    # nothing of an earlier call's options carries over to the next
    assert main(["check", str(FIXTURES / "path3.signs")]) == 0
    assert capsys.readouterr().out.startswith("pattern 3x3: FEASIBLE")


def test_importing_the_cli_builds_no_parser():
    code = "import dninverse.cli as cli; print(cli.build_parser.cache_info().currsize)"
    assert _fresh_python(code) == "0"


def test_verify_keeps_a_subnormal_matrix_and_rejects_its_overflowing_inverse(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1\n5e-324\n")
    assert read_matrix(path).entries[0, 0] == 5e-324
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "positive definite: no" not in captured.out
    assert "finite" in captured.err


def test_an_overflowing_inverse_prints_only_the_error_line(tmp_path, capfd):
    # numpy's overflow warning would name an internal source line above the
    # error line (and, with warnings as errors here, escape main altogether)
    path = tmp_path / "tiny.txt"
    path.write_text("1\n5e-324\n")
    assert main(["verify", str(path)]) == 2
    assert capfd.readouterr().err == (
        "error: inverse overflows the float range: its entries are not finite\n"
    )


@pytest.mark.parametrize("module", ["dninverse", "dninverse.cli"])
def test_the_cli_runs_as_a_module(module, tmp_path):
    package_root = pathlib.Path(dninverse.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    env.pop("PYTHONWARNINGS", None)  # the default filter, as a user runs it
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("1\n5e-324\n")

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120
        )

    done = cli("check", str(FIXTURES / "path3.signs"))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("pattern 3x3: FEASIBLE\n")
    done = cli("check", str(FIXTURES / "infeasible_split.signs"))
    assert (done.returncode, done.stderr) == (1, "")
    assert "  components: {1,2} {3,4}\n" in done.stdout
    done = cli("check", str(tmp_path / "missing.signs"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ")
    done = cli("verify", str(tiny))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: inverse overflows the float range: its entries are not finite\n"
    )
