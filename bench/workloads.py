"""Workloads of the benchmark: seeded inputs, the call sequence, output checks.

Every workload is a closed loop with one client: an endless, seed-determined
sequence of ``dninverse.cli.main(argv)`` calls, each issued after the previous
one returned. Input files are generated here with numpy alone, so the program
under test receives only the finished files, and the expected answers come
from the generator, not from dninverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its exit code and stdout must pass."""

    verb: str
    argv: list[str]
    check: Check
    trials: int = 0  # campaign trials the call runs
    out_path: Path | None = None  # file the call writes, compared in traced runs


def derived_seed(seed: int, *stream: int) -> int:
    """Unsigned 64-bit seed for one stream of a run, a pure function of its arguments."""
    state = np.random.SeedSequence([seed, *stream]).generate_state(1, dtype=np.uint64)
    return int(state[0])


def _json_check(expect_rc: int, predicate: Callable[[dict], "str | None"]) -> Check:
    def check(rc: int, stdout: str) -> str | None:
        if rc != expect_rc:
            return f"exit code {rc}, expected {expect_rc}"
        try:
            document = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not one JSON document: {exc}"
        return predicate(document)

    return check


class Campaign:
    """``fuzz --theorem T`` over a size range, a fixed number of trials per call.

    Call i runs its own campaign seed derived from (run seed, i), so the trial
    instances never repeat within a run and the sequence is fixed by the seed.
    """

    round_size = 1
    warmup_calls = 3

    def __init__(self, theorem: str, n_range: tuple[int, int], trials: int, trace_calls: int, seed: int) -> None:
        self.theorem = theorem
        self.n_range = n_range
        self.trials = trials
        self.trace_calls = trace_calls
        self.seed = seed
        self._check = _json_check(0, self._report_ok)

    def _report_ok(self, report: dict) -> str | None:
        if report.get("trials") != self.trials:
            return f"report has {report.get('trials')} trials, expected {self.trials}"
        if report.get("failures") != 0:
            return f"campaign failures {report.get('failures')}: seeds {report.get('failure_seeds')}"
        return None

    def call(self, i: int) -> Call:
        lo, hi = self.n_range
        argv = [
            "fuzz", "--theorem", self.theorem, "--trials", str(self.trials),
            "--seed", str(derived_seed(self.seed, 0, i)),
            "--n-min", str(lo), "--n-max", str(hi), "--json",
        ]
        return Call("fuzz", argv, self._check, trials=self.trials)


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_matrix(path: Path, a: np.ndarray) -> Path:
    rows = (" ".join(f"{v:.17g}" for v in row) for row in a)
    return _write_lines(path, [str(a.shape[0]), *rows])


def _write_signs(path: Path, minus: np.ndarray) -> Path:
    rows = ("".join("-" if m else "+" for m in row) for row in minus)
    return _write_lines(path, [str(minus.shape[0]), *rows])


def random_tree(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random recursive tree on shuffled labels 1..n: (edges as an (n-1, 2) array, depth of each label)."""
    order = rng.permutation(n) + 1
    parent_pos = (rng.random(n - 1) * np.arange(1, n)).astype(int)
    depth = np.zeros(n + 1, dtype=int)
    for k in range(1, n):
        depth[order[k]] = depth[order[parent_pos[k - 1]]] + 1
    edges = np.column_stack([order[1:], order[parent_pos]])
    flip = rng.random(n - 1) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges[rng.permutation(n - 1)], depth[1:]


def tree_dn_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Doubly nonnegative matrix whose positive-entry graph is a random tree (diagonally dominant)."""
    edges, _ = random_tree(n, rng)
    a = np.zeros((n, n))
    weights = rng.uniform(0.5, 2.0, size=n - 1)
    a[edges[:, 0] - 1, edges[:, 1] - 1] = weights
    a[edges[:, 1] - 1, edges[:, 0] - 1] = weights
    np.fill_diagonal(a, a.sum(axis=1) + rng.uniform(0.1, 1.0, size=n))
    return a


def dense_dn_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse-factor Gram matrix B B^T plus a small ridge, density drawn from [0.3, 1]."""
    density = rng.uniform(0.3, 1.0)
    b = rng.random((n, n))
    b[rng.random((n, n)) >= density] = 0.0
    a = b @ b.T + 1e-6 * n * np.eye(n)
    return (a + a.T) / 2.0


def feasible_minus(n: int, rng: np.random.Generator) -> np.ndarray:
    """MINUS mask of a feasible pattern: a spanning tree of MINUS pairs plus random extra pairs."""
    edges, _ = random_tree(n, rng)
    minus = np.triu(rng.random((n, n)) < 0.5, k=1)
    minus[edges[:, 0] - 1, edges[:, 1] - 1] = True
    return minus | minus.T


def infeasible_minus(n: int, rng: np.random.Generator) -> np.ndarray:
    """MINUS mask with no MINUS pair across a random split, so the negative-sign graph is disconnected."""
    side = rng.random(n) < 0.5
    side[0], side[-1] = True, False
    minus = np.triu(rng.random((n, n)) < 0.5, k=1) & (side[:, None] == side[None, :])
    return minus | minus.T


class FileVerbs:
    """In-process ``predict``, ``verify``, ``witness`` and ``check`` over generated files.

    One round is twenty calls: predict 1, verify 7, witness 7, check 5. The
    checks are the fastest quarter and the single predict the slowest call, so
    the median and the 90th percentile both land inside the verify/witness
    group, away from a boundary between groups, where most samples are.
    """

    warmup_calls = 4  # one call of each verb
    round_size = 20
    trace_calls = 20
    tree_n, matrix_n, pattern_n = 2000, 300, 200

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(derived_seed(seed, 1))
        tree = workdir / "tree.graph"
        self._expected = self._write_tree(tree, rng)
        dense = [_write_matrix(workdir / f"dense{k}.txt", dense_dn_matrix(self.matrix_n, rng)) for k in range(2)]
        tree_mats = [_write_matrix(workdir / f"treemat{k}.txt", tree_dn_matrix(self.matrix_n, rng)) for k in range(2)]
        feasible = [_write_signs(workdir / f"feasible{k}.signs", feasible_minus(self.pattern_n, rng)) for k in range(2)]
        infeasible = _write_signs(workdir / "infeasible.signs", infeasible_minus(self.pattern_n, rng))
        matrices = [dense[0], tree_mats[0], dense[1], tree_mats[1]]
        checks = [(feasible[0], True), (infeasible, False), (feasible[1], True), (infeasible, False), (feasible[0], True)]
        witness = workdir / "witness.txt"
        self._round = [self._predict(tree, workdir / "predicted.signs")]
        for k in range(7):
            self._round += [self._verify(matrices[k % 4]), self._witness(feasible[k % 2], witness)]
            if k < len(checks):
                self._round.append(self._check(*checks[k]))

    def call(self, i: int) -> Call:
        return self._round[i % len(self._round)]

    def _write_tree(self, path: Path, rng: np.random.Generator) -> str:
        """Write a random tree; return the rows its two-colouring predicts, as ``predict`` prints them."""
        n = self.tree_n
        edges, depth = random_tree(n, rng)
        _write_lines(path, [str(n), *(f"{i} {j}" for i, j in edges)])
        color = (depth - depth[0]) % 2
        row_of = ["".join(np.where(color == c, "+", "-")) for c in (0, 1)]
        return "\n".join([str(n), *(row_of[c] for c in color)]) + "\n"

    def _predict(self, graph: Path, out: Path) -> Call:
        expected = self._expected

        def check(rc: int, stdout: str) -> str | None:
            if rc != 0:
                return f"predict exit code {rc}"
            if stdout != expected:
                return f"predict rows on stdout differ from the two-colouring of {graph.name}"
            with open(out, encoding="utf-8") as handle:
                body = "".join(line for line in handle if not line.startswith("#"))
            if body != expected:
                return f"predict --out file differs from the two-colouring of {graph.name}"
            return None

        return Call("predict", ["predict", str(graph), "--out", str(out)], check, out_path=out)

    @staticmethod
    def _verify(matrix: Path) -> Call:
        def ok(doc: dict) -> str | None:
            if not doc["verdict"]["passed"]:
                return f"verify rejects the DN matrix {matrix.name}: {doc['verdict']}"
            if not doc["inverse_pattern_feasible"]["feasible"]:
                return f"inverse pattern of {matrix.name} fails the feasibility test"
            return None

        return Call("verify", ["verify", "--json", str(matrix)], _json_check(0, ok))

    def _witness(self, pattern: Path, out: Path) -> Call:
        n = self.pattern_n

        def ok(doc: dict) -> str | None:
            if not (doc["roundtrip_exact"] and doc["verdict"]["passed"]):
                return f"witness for {pattern.name}: round trip {doc['roundtrip_exact']}, verdict {doc['verdict']}"
            with open(out, encoding="utf-8") as handle:
                first = next(line for line in handle if not line.startswith("#"))
            if first.strip() != str(n):
                return f"witness file starts with size {first.strip()!r}, expected {n}"
            return None

        argv = ["witness", "--json", str(pattern), "--out", str(out)]
        return Call("witness", argv, _json_check(0, ok), out_path=out)

    @staticmethod
    def _check(pattern: Path, feasible: bool) -> Call:
        def ok(doc: dict) -> str | None:
            if doc["feasible"] != feasible or doc["delta_connected"] != feasible:
                return f"check {pattern.name}: feasible {doc['feasible']}, expected {feasible}"
            return None

        return Call("check", ["check", "--json", str(pattern)], _json_check(0 if feasible else 1, ok))


def make(name: str, seed: int, workdir: Path):
    """The workload called ``name``, with its inputs generated from ``seed`` under ``workdir``."""
    if name == "tree_campaign":  # the criterion 05/07 configuration
        return Campaign("2", (2, 100), trials=10, trace_calls=20, seed=seed)
    if name == "dense_campaign":
        return Campaign("1", (100, 300), trials=2, trace_calls=20, seed=seed)
    if name == "file_verbs":
        return FileVerbs(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tree_campaign", "dense_campaign", "file_verbs")
