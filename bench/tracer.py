"""Spans around the calls into each dninverse module, recorded from outside the package.

Functions are wrapped where they are looked up: every ``dninverse`` module
namespace that binds the function gets the wrapper, so calls between modules
(``oracle`` calling ``cholesky_invert``) and inside one module (``two_coloring``
calling ``is_tree``) are both seen. Classes are never replaced, because
``UGraph.__eq__`` and friends rely on ``isinstance``; only the traced method
on the class is swapped. Everything is restored when tracing ends.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _edges_built(counts, graph, *_):
    counts["edges_built"] += graph.edge_count


def _cholesky_flop(counts, a, *_):
    # Nominal work of inverting an SPD matrix: n^3/3 to factor plus 2n^3/3 to
    # invert the factor. A count of work asked for, not of what the code runs.
    counts["cholesky_flop"] += a.n**3


def _bytes_read(counts, path, *_):
    counts["bytes_read"] += os.path.getsize(path)


def _bytes_written(counts, path, *_):
    counts["bytes_written"] += os.path.getsize(path)


# (span name, defining module, attribute, count hook run after a successful call)
TARGETS = (
    ("graphs.UGraph", "graphs", "UGraph.__init__", _edges_built),
    ("graphs.is_connected", "graphs", "is_connected", None),
    ("graphs.bfs_distances", "graphs", "bfs_distances", None),
    ("graphs.random_tree", "graphs", "random_tree", None),
    ("densemat.SymMatrix", "densemat", "SymMatrix.__init__", None),
    ("densemat.cholesky_invert", "densemat", "cholesky_invert", _cholesky_flop),
    ("densemat.min_eigenvalue", "densemat", "min_eigenvalue", None),
    ("densemat.matrix_graph", "densemat", "matrix_graph", None),
    ("densemat.verify_doubly_nonnegative", "densemat", "verify_doubly_nonnegative", None),
    ("signpattern.sign_of", "signpattern", "sign_of", None),
    ("signpattern.ambiguous_signs", "signpattern", "ambiguous_signs", None),
    ("signpattern.negative_sign_graph", "signpattern", "negative_sign_graph", None),
    ("signpattern.check_feasible", "signpattern", "check_feasible", None),
    ("signpattern.construct_witness", "signpattern", "construct_witness", None),
    ("signpattern.SignMatrix.to_rows", "signpattern", "SignMatrix.to_rows", None),
    ("treesign.is_tree", "treesign", "is_tree", None),
    ("treesign.two_coloring", "treesign", "two_coloring", None),
    ("treesign.predict_tree_sign_pattern", "treesign", "predict_tree_sign_pattern", None),
    ("treesign.leaf_ratio_check", "treesign", "leaf_ratio_check", None),
    ("treesign.random_tree_dn_matrix", "treesign", "random_tree_dn_matrix", None),
    ("oracle.trial_seed", "oracle", "trial_seed", None),
    ("oracle.random_dn_matrix", "oracle", "random_dn_matrix", None),
    ("oracle.necessity_campaign", "oracle", "necessity_campaign", None),
    ("oracle.tree_sign_campaign", "oracle", "tree_sign_campaign", None),
    ("fileio.read_matrix", "fileio", "read_matrix", _bytes_read),
    ("fileio.read_sign_matrix", "fileio", "read_sign_matrix", _bytes_read),
    ("fileio.read_graph", "fileio", "read_graph", _bytes_read),
    ("fileio.write_matrix", "fileio", "write_matrix", _bytes_written),
    ("fileio.write_sign_matrix", "fileio", "write_sign_matrix", _bytes_written),
    ("cli.main", "cli", "main", None),
)
SPAN_NAMES = tuple(target[0] for target in TARGETS)


class Tracer:
    """Records one span per traced call: (id, parent id or -1, name, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(counts, *args)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced name for its wrapper for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "dninverse"]
        undo = []
        try:
            for name, home, attr, hook in TARGETS:
                owner = importlib.import_module(f"dninverse.{home}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original, hook))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hook)
                for module in modules:
                    if vars(module).get(attr) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counts taken at the boundaries.

        Self time is a span's duration minus the durations of its child spans.
        """
        name_of = {}
        child_time: defaultdict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end in self.spans:
            name_of[span_id] = name
            child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child_time[span_id]
        draw_attempts = sum(
            1
            for _, parent, name, _, _ in self.spans
            if name == "graphs.is_connected" and name_of.get(parent) == "oracle.random_dn_matrix"
        )
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "random_dn_matrix_attempts": draw_attempts,
        }
