"""The benchmark's tracer (bench/tracer.py) must still find every name it wraps.

The tracer swaps module functions and class methods by name, so renaming or
moving one of them breaks the traced benchmark run without failing any other
test. The tracer is loaded from its file and nothing under bench/ is written.
"""

import importlib
import importlib.util
import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
