"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HELD_OUT_SEED = 987_654_321  # never used while the workloads were tuned


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_benchmark_json_matches_the_metrics_the_script_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_held_out_seed_runs_clean_on_every_workload():
    done = bench("--workload", "all", "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    results = result_lines(done.stdout)
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m[0] for m in run.END_TO_END}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly_at_one_seed():
    args = ("--workload", "tree_campaign", "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = (bench(*args) for _ in range(2))
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    (a,), (b,) = result_lines(first.stdout), result_lines(second.stdout)
    assert set(a["metrics"]) == {m[0] for m in run.PER_LAYER}
    exact = [name for name, unit, _ in run.PER_LAYER if unit not in ("s", "Gflop/s", "ratio")]
    assert {k: a["metrics"][k] for k in exact} == {k: b["metrics"][k] for k in exact}
    m = {k: v["value"] for k, v in a["metrics"].items()}
    trials = m["oracle.trial_seed.calls"]
    assert trials > 0
    assert m["treesign.is_tree.calls_per_trial"] == m["treesign.is_tree.calls"] / trials
    assert all(m[f"{name}.self_s"] >= 0 for name in {k.rsplit(".", 1)[0] for k in m if k.endswith(".self_s")})


def test_tracer_records_nested_spans_and_restores_every_name():
    run.import_cli()
    import dninverse
    import dninverse.treesign as treesign
    from dninverse.graphs import UGraph

    original_init, original_is_tree = UGraph.__init__, treesign.is_tree
    tracer = Tracer()
    with tracer.installed():
        coloring = treesign.two_coloring(UGraph(4, [(1, 2), (2, 3), (2, 4)]))
    assert coloring.colors == (0, 1, 0, 0)
    assert UGraph.__init__ is original_init and treesign.is_tree is original_is_tree
    assert dninverse.is_tree is original_is_tree
    name_of = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    parents = {(name, name_of.get(parent)) for _, parent, name, _, _ in tracer.spans}
    assert ("treesign.is_tree", "treesign.two_coloring") in parents
    assert ("graphs.is_connected", "treesign.is_tree") in parents
    summary = tracer.summary()
    assert summary["calls"]["graphs.UGraph"] == 1 and summary["counts"]["edges_built"] == 3
    assert all(seconds >= 0 for seconds in summary["self_s"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "tree_campaign", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not result_lines(done.stdout)
