import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dninverse
from dninverse import cli, densemat, read_matrix, read_sign_matrix, verify_doubly_nonnegative
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


def test_predict_writes_pattern_file(tmp_path):
    out = tmp_path / "predicted.signs"
    code = main(["predict", str(FIXTURES / "path3.graph"), "--out", str(out)])
    assert code == 0
    assert read_sign_matrix(out).to_rows() == ["+-+", "-+-", "+-+"]


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_verify_rejects_a_matrix_whose_inverse_overflows(tmp_path, capsys):
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("1\n1e-310\n")
    assert main(["verify", str(tiny)]) == 2
    assert "finite" in capsys.readouterr().err


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


def _pool_counts():
    return [getter() for getter, _ in densemat._openblas_pools()]


@pytest.fixture
def blas_pools(monkeypatch):
    """The OpenBLAS pools with their thread counts raised to two, restored afterwards."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    pools = densemat._openblas_pools()
    if not pools:
        pytest.skip("numpy and scipy are not linked to their bundled OpenBLAS")
    saved = _pool_counts()
    for _, setter in pools:
        setter(2)
    yield _pool_counts()
    for (_, setter), count in zip(pools, saved):
        setter(count)


def _recording_check(seen):
    def verb(args):
        seen.append(_pool_counts())
        return 0

    return verb


def test_main_runs_verbs_on_one_blas_thread_and_restores_the_pools(blas_pools, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_check", _recording_check(seen))
    assert main(["check", str(FIXTURES / "path3.signs")]) == 0
    assert seen == [[1] * len(blas_pools)]
    assert _pool_counts() == blas_pools


def test_main_restores_the_pools_when_a_verb_fails(blas_pools, monkeypatch, capsys):
    def failing(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_cmd_check", failing)
    assert main(["check", str(FIXTURES / "path3.signs")]) == 2
    assert "boom" in capsys.readouterr().err
    assert _pool_counts() == blas_pools


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_main_leaves_the_pools_alone_under_a_thread_variable(blas_pools, monkeypatch, name):
    seen = []
    monkeypatch.setenv(name, "2")
    monkeypatch.setattr(cli, "_cmd_check", _recording_check(seen))
    assert main(["check", str(FIXTURES / "path3.signs")]) == 0
    assert seen == [blas_pools]


def test_main_runs_when_no_openblas_is_found(monkeypatch, capsys):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    missing = tuple((pkg, "no-such-dir/libnothing-*.so", get, put) for pkg, _, get, put in densemat._OPENBLAS)
    monkeypatch.setattr(densemat, "_OPENBLAS", missing)
    densemat._openblas_pools.cache_clear()
    try:
        assert densemat._openblas_pools() == ()
        assert main(["check", str(FIXTURES / "path3.signs")]) == 0
        assert "FEASIBLE" in capsys.readouterr().out
    finally:
        densemat._openblas_pools.cache_clear()


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


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # scipy.sparse is imported by the first connectivity test of a UGraph only;
    # loading it with the CLI would cost every verb its import time and memory
    package_root = pathlib.Path(dninverse.__file__).resolve().parent.parent
    code = "import sys, dninverse.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_dense_verbs_leave_scipy_sparse_unloaded(tmp_path):
    # check, verify, witness and the necessity campaign test connectivity on
    # the boolean mask they hold, never through an edge-list graph
    package_root = pathlib.Path(dninverse.__file__).resolve().parent.parent
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
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 1, 0, 0, 0] False"


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
    package_root = pathlib.Path(dninverse.__file__).resolve().parent.parent
    code = "import dninverse.cli as cli; print(cli.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_verify_keeps_a_subnormal_matrix_and_rejects_its_overflowing_inverse(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1\n5e-324\n")
    assert read_matrix(path).entries[0, 0] == 5e-324
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "positive definite: no" not in captured.out
    assert "finite" in captured.err
