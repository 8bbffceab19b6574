"""The benchmark's files (bench/tracer.py, bench/workloads.py) must still run on the package.

The tracer swaps module functions and class methods by name, so renaming or
moving one of them breaks the traced benchmark run without failing any other
test. One round of the file workload runs through ``cli.main`` with its output
checks, so a fault in a verb or in file I/O fails here before it fails the
benchmark. Both files are loaded from their paths and nothing under bench/ is
written.
"""

import importlib
import importlib.util
import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return _load(monkeypatch, "tracer")


@pytest.fixture
def workloads(monkeypatch):
    return _load(monkeypatch, "workloads")


def test_every_traced_name_resolves_on_the_package(tracer):
    assert tracer.TARGETS
    for span, home, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"dninverse.{home}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(method)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{span}: dninverse.{home}.{attr} is gone"


def test_traced_campaign_records_its_layers(tracer):
    from dninverse import cli

    recorder = tracer.Tracer()
    with recorder.installed(), redirect_stdout(io.StringIO()):
        assert cli.main(["fuzz", "--theorem", "2", "--trials", "3", "--seed", "1", "--json"]) == 0
    calls = recorder.summary()["calls"]
    for span in ("cli.main", "oracle.tree_sign_campaign", "treesign.predict_tree_sign_pattern",
                 "treesign.random_tree_dn_matrix", "densemat.cholesky_invert", "graphs.UGraph"):
        assert calls.get(span, 0) > 0, span


def test_one_round_of_file_verbs_passes_its_checks(workloads, tmp_path):
    from dninverse import cli

    workload = workloads.FileVerbs(seed=1, workdir=tmp_path)
    verbs = []
    for i in range(workload.round_size):
        call = workload.call(i)
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(call.argv)
        assert call.check(rc, out.getvalue()) is None, call.argv
        verbs.append(call.verb)
    assert sorted(set(verbs)) == ["check", "predict", "verify", "witness"]
