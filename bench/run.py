"""Benchmark of dninverse: campaign throughput and CLI verb latency, with per-module timings.

Run from the repository root:

    python3 bench/run.py --workload tree_campaign --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. Each workload is a closed
loop with one client that calls ``dninverse.cli.main(argv)`` in process (see
``workloads.py``); the package is imported from ``src/`` of the checkout the
script sits in, and BLAS threading is left as the environment sets it.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs a
fixed, seed-determined slice of the workload alternately untraced and traced
(see ``tracer.py``) and reports calls, self time and work counts per module
function; the counts repeat exactly for one seed. Every call's output is
checked in both modes, and traced outputs must equal untraced ones.

Output: ``name = value unit`` lines, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. Results, the environment stamp, each
call's latency and the spans of the first traced pass are also written under
``bench/out/``.
Exit status: 0 when every check passed, 1 otherwise or when ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS for the thread stamp)

import workloads
from tracer import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5

# (name, unit, better, bound); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("calls_per_s", "1/s", "higher", 0.25),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("call_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)
PER_LAYER = tuple(
    metric
    for name in SPAN_NAMES
    for metric in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))
) + (
    ("treesign.is_tree.calls_per_trial", "count", "lower"),
    ("graphs.UGraph.edges_built", "count", "lower"),
    ("oracle.random_dn_matrix.accept_ratio", "ratio", "higher"),
    ("densemat.cholesky_invert.gflop_computed", "Gflop", "lower"),
    ("densemat.cholesky_invert.gflop_per_s", "Gflop/s", "higher"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dninverse.cli; print(time.perf_counter() - t, dninverse.cli.__file__)"
)


def import_cli():
    """``dninverse.cli`` from this checkout's ``src/``; exits when that tree is missing."""
    package = SRC / "dninverse"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no dninverse sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dninverse.cli

    if Path(dninverse.cli.__file__).resolve().parent != package:
        sys.exit(f"error: imported {dninverse.cli.__file__}, not the checkout under {SRC}")
    return dninverse.cli


def blas_threads() -> dict:
    """Live thread count of numpy's and of scipy's OpenBLAS pool (two separate libraries)."""
    pools = {
        "numpy": (numpy, "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        "scipy": (scipy, "scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
    }
    found = {}
    for key, (package, pattern, symbol) in pools.items():
        libs = sorted(Path(package.__file__).resolve().parent.parent.glob(pattern))
        found[key] = None
        if libs:
            try:
                getter = getattr(ctypes.CDLL(str(libs[0])), symbol)
            except (OSError, AttributeError):
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            found[key] = {"library": libs[0].name, "threads": getter()}
    return found


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args, workload: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dninverse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def measure_setup() -> float:
    """Median import time of ``dninverse.cli`` in fresh interpreters; the first run only fills caches."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = done.stdout.split()
        if Path(path).resolve().parent != SRC / "dninverse":
            raise RuntimeError(f"fresh interpreter imported {path}")
        if k:
            times.append(float(seconds))
    return statistics.median(times)


class Runner:
    """Issues calls one at a time and keeps the tally of attempted and failed ones."""

    def __init__(self, cli, workload) -> None:
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.problems: list[str] = []

    def run(self, call: workloads.Call) -> tuple[float, tuple]:
        """Seconds the call took and a digest of everything it produced."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(call.argv)  # looked up per call, so a traced main is seen
            except SystemExit as exc:  # argparse refused the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        self.attempted += 1
        problem = f"raised\n{err.getvalue()}" if rc is None else call.check(rc, stdout)
        if problem:
            self.problems.append(f"{' '.join(call.argv)}: {problem}")
        written = call.out_path.read_bytes() if call.out_path and call.out_path.exists() else b""
        digest = (rc, hashlib.sha256(stdout.encode()).hexdigest(), hashlib.sha256(written).hexdigest())
        return elapsed, digest


def measure_untraced(runner: Runner, seconds: float) -> list[tuple[str, float, int]]:
    """(verb, seconds, trials) of each call in whole rounds, until ``seconds`` have passed."""
    w = runner.workload
    for i in range(w.warmup_calls):
        runner.run(w.call(i))
    i = w.warmup_calls
    samples = []
    start = time.perf_counter()
    while len(samples) < 2 or time.perf_counter() - start < seconds:
        for _ in range(w.round_size):
            call = w.call(i)
            i += 1
            elapsed, _ = runner.run(call)
            samples.append((call.verb, elapsed, call.trials))
    return samples


def end_to_end_metrics(samples, setup_s: float) -> tuple[dict, dict]:
    busy = sum(seconds for _, seconds, _ in samples)
    latencies = [1000.0 * seconds for _, seconds, _ in samples]
    metrics = {
        "setup_s": setup_s,
        "calls_per_s": len(samples) / busy,
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"calls": (len(samples), "count"), "busy_s": (busy, "s")}
    trials = sum(t for _, _, t in samples)
    if trials:
        extra["trials"] = (trials, "count")
        extra["trials_per_s"] = (trials / busy, "1/s")
    for verb in sorted({v for v, _, _ in samples}):
        own = [1000.0 * s for v, s, _ in samples if v == verb]
        extra[f"{verb}_p50_ms"] = (statistics.median(own), "ms")
        extra[f"{verb}_calls"] = (len(own), "count")
    return metrics, extra


def run_pass(runner: Runner, calls) -> tuple[float, list]:
    total, digests = 0.0, []
    for call in calls:
        elapsed, digest = runner.run(call)
        total += elapsed
        digests.append(digest)
    return total, digests


def measure_traced(runner: Runner, seconds: float) -> tuple[list, list, list, list]:
    """Alternate untraced and traced passes over the same calls until ``seconds`` have passed."""
    w = runner.workload
    calls = [w.call(i) for i in range(w.trace_calls)]
    for call in calls[: w.warmup_calls]:
        runner.run(call)
    plain_times, traced_times, summaries, first_spans = [], [], [], []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        plain_time, plain_out = run_pass(runner, calls)
        tracer = Tracer()
        with tracer.installed():
            traced_time, traced_out = run_pass(runner, calls)
        if traced_out != plain_out:
            runner.problems.append("traced outputs differ from untraced outputs of the same calls")
        plain_times.append(plain_time)
        traced_times.append(traced_time)
        summaries.append(tracer.summary())
        first_spans = first_spans or tracer.spans
    return plain_times, traced_times, summaries, first_spans


def per_layer_metrics(runner: Runner, plain_times, traced_times, summaries) -> dict:
    first = summaries[0]
    exact = ("calls", "counts", "random_dn_matrix_attempts")
    if any(tuple(s[k] for k in exact) != tuple(first[k] for k in exact) for s in summaries):
        runner.problems.append("call counts differ between traced passes of the same calls")
    calls, counts = first["calls"], first["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = statistics.median(s["self_s"].get(name, 0.0) for s in summaries)
    trials = calls.get("oracle.trial_seed", 0)
    attempts = first["random_dn_matrix_attempts"]
    gflop = counts.get("cholesky_flop", 0) * 1e-9
    chol_s = metrics["densemat.cholesky_invert.self_s"]
    metrics.update({
        "treesign.is_tree.calls_per_trial": calls.get("treesign.is_tree", 0) / trials if trials else 0.0,
        "graphs.UGraph.edges_built": counts.get("edges_built", 0),
        "oracle.random_dn_matrix.accept_ratio": calls.get("oracle.random_dn_matrix", 0) / attempts if attempts else 0.0,
        "densemat.cholesky_invert.gflop_computed": gflop,
        "densemat.cholesky_invert.gflop_per_s": gflop / chol_s if chol_s > 0 else 0.0,
        "fileio.bytes_read": counts.get("bytes_read", 0),
        "fileio.bytes_written": counts.get("bytes_written", 0),
        "trace.overhead_ratio": statistics.median(traced_times) / statistics.median(plain_times),
    })
    return metrics


def run_workload(cli, name: str, args) -> bool:
    """Run one workload, print its metrics and result line; True when every check passed."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir()
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s = measure_setup() if args.trace == 0 else None
        runner = Runner(cli, workloads.make(name, args.seed, workdir))
        if args.trace == 0:
            samples = measure_untraced(runner, args.seconds)
            values, extra = end_to_end_metrics(samples, setup_s)
            units = {m[0]: m[1] for m in END_TO_END}
            detail = {"samples_ms": [[verb, 1000.0 * seconds] for verb, seconds, _ in samples]}
        else:
            plain, traced, summaries, spans = measure_traced(runner, args.seconds)
            values = per_layer_metrics(runner, plain, traced, summaries)
            units = {m[0]: m[1] for m in PER_LAYER}
            extra = {"traced_passes": (len(summaries), "count")}
            detail = {}
            with open(stem.with_name(stem.name + "-spans.jsonl"), "w", encoding="utf-8") as handle:
                for span_id, parent, span, begin, end in spans:
                    handle.write(json.dumps({"id": span_id, "parent": parent, "name": span, "start": begin, "end": end}) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.problems)
    extra["failure_ratio"] = (failed / runner.attempted, "ratio")
    env = environment(args, name)
    print(f"# workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for key, (value, unit) in {**{k: (v, units[k]) for k, v in values.items()}, **extra}.items():
        print(f"{key} = {value!r} {unit}")
    for problem in runner.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    stem.with_suffix(".json").write_text(
        json.dumps({**result, "extra": extra, "env": env, "problems": runner.problems[:50], **detail}) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    cli = import_cli()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(cli, name, args) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
