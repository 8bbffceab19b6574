import argparse
import contextlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dninverse
from dninverse import cli, densemat, oracle, read_matrix, read_sign_matrix, verify_doubly_nonnegative
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
    densemat._openblas_pool.cache_clear()
    try:
        assert densemat._openblas_pools() == ()
        assert main(["check", str(FIXTURES / "path3.signs")]) == 0
        assert "FEASIBLE" in capsys.readouterr().out
    finally:
        densemat._openblas_pool.cache_clear()


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
    # scipy.sparse is imported by the first connectivity test of a UGraph only;
    # loading it with the CLI would cost every verb its import time and memory
    code = "import sys, dninverse.cli; print('scipy.sparse' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_dense_verbs_leave_scipy_sparse_unloaded(tmp_path):
    # check, verify, witness and the necessity campaign test connectivity on
    # the boolean mask they hold, never through an edge-list graph
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


def test_importing_the_package_and_the_cli_leaves_scipy_unloaded():
    # scipy.linalg is a third of a second of import time; only the verbs that
    # factor a matrix load it
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


def test_verify_loads_scipy_linalg():
    argv = ["verify", str(FIXTURES / "path3_matrix.txt")]
    assert _fresh_python(_SCIPY_AFTER_MAIN, json.dumps(argv)) == "0 ['scipy', 'scipy.linalg']"


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


# Thread count of numpy's and of scipy's bundled OpenBLAS pool, None for one
# not loaded yet, read without dninverse's own lookup
_POOL_COUNTS = """
import ctypes, os
from pathlib import Path

import numpy

SITE = Path(numpy.__file__).resolve().parent.parent
POOLS = [
    (sorted(SITE.glob(pattern)), symbol)
    for pattern, symbol in (
        ("numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
    )
]


def pool_counts():
    counts = []
    for libs, symbol in POOLS:
        try:
            counts.append(getattr(ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD), symbol)())
        except OSError:
            counts.append(None)
    return counts
"""


def test_a_factoring_verb_runs_both_blas_pools_on_one_thread_in_a_fresh_interpreter():
    # A fresh interpreter has not loaded scipy's OpenBLAS when main starts, so
    # verify loads it inside the pin: the pin must take that pool on as it
    # loads, or verify factors with scipy's pool at its old count; and the
    # pools found by the check before it must not be kept as the final set.
    code = _POOL_COUNTS + (
        "import contextlib, io, json\n"
        "from dninverse import cli, densemat\n"
        "if not all(libs for libs, _ in POOLS):\n"
        "    print(json.dumps(None))\n"
        "    raise SystemExit\n"
        "during = []\n"
        "def recording(kernel):\n"
        "    def wrapped(*args, **kwargs):\n"
        "        during.append(pool_counts())\n"
        "        return kernel(*args, **kwargs)\n"
        "    return wrapped\n"
        "cli.cholesky_invert = recording(cli.cholesky_invert)\n"
        "densemat.min_eigenvalue = recording(densemat.min_eigenvalue)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['check', sys.argv[1]])]\n"
        "    before = pool_counts()\n"
        "    codes.append(cli.main(['verify', sys.argv[2]]))\n"
        "print(json.dumps({'codes': codes, 'before': before, 'during': during, 'after': pool_counts()}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["OPENBLAS_DEFAULT_NUM_THREADS"] = "2"  # both pools start with two threads when loaded
    files = str(FIXTURES / "path3.signs"), str(FIXTURES / "path3_matrix.txt")
    seen = json.loads(_fresh_python("import sys\n" + code, *files, env=env))
    if seen is None:
        pytest.skip("numpy and scipy are not linked to their bundled OpenBLAS")
    if seen["before"][0] != 2:
        pytest.skip("OpenBLAS starts fewer than two threads on this machine")
    assert seen["codes"] == [0, 0]
    assert seen["before"] == [2, None]  # scipy's OpenBLAS is loaded by the second main
    assert len(seen["during"]) == 2  # the inverse and the eigenvalue
    assert all(counts == [1, 1] for counts in seen["during"]), seen["during"]
    assert seen["after"] == [2, 2]


@pytest.mark.parametrize("nested", [False, True], ids=["one-block", "nested-blocks"])
def test_the_pin_covers_scipys_pool_when_the_block_loads_it(nested):
    # scipy.linalg is first imported by the factorization inside the block; a
    # nested block that loads it leaves it pinned until the outer block ends
    code = _POOL_COUNTS + (
        "import contextlib, json, sys\n"
        "from dninverse import densemat\n"
        "if not all(libs for libs, _ in POOLS):\n"
        "    print(json.dumps(None))\n"
        "    raise SystemExit\n"
        "before = pool_counts()\n"
        "during = []\n"
        "factor = densemat._cholesky_factor\n"
        "def recording(a):\n"
        "    upper = factor(a)\n"
        "    during.append(pool_counts())\n"
        "    return upper\n"
        "densemat._cholesky_factor = recording\n"
        "with densemat.single_blas_thread():\n"
        "    inner = densemat.single_blas_thread() if json.loads(sys.argv[1]) else contextlib.nullcontext()\n"
        "    with inner:\n"
        "        densemat.cholesky_invert(densemat.SymMatrix([[2.0, 1.0], [1.0, 2.0]]))\n"
        "    during.append(pool_counts())\n"
        "print(json.dumps({'before': before, 'during': during, 'after': pool_counts()}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["OPENBLAS_DEFAULT_NUM_THREADS"] = "2"
    seen = json.loads(_fresh_python(code, json.dumps(nested), env=env))
    if seen is None:
        pytest.skip("numpy and scipy are not linked to their bundled OpenBLAS")
    if seen["before"][0] != 2:
        pytest.skip("OpenBLAS starts fewer than two threads on this machine")
    assert seen["before"] == [2, None]  # scipy.linalg is not imported yet
    assert seen["during"] == [[1, 1], [1, 1]]  # after the factor, and at the end of the block
    assert seen["after"] == [2, 2]


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
    assert capfd.readouterr().err == "error: matrix entries must be finite\n"


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
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: matrix entries must be finite\n")
