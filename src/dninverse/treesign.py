"""Tree-structured matrices and their inverse sign patterns.

When the positive-entry graph of a doubly nonnegative matrix is a tree, the
inverse sign pattern is forced: entry (i, j) is MINUS exactly when i and j get
different colors in the tree's two-coloring, equivalently when their tree
distance is odd. This module provides the prediction, the leaf-attachment
rank-one inverse update that drives the induction behind it, the proportional
leaf-column property, and a generator of random tree-structured instances.
A graph is a tree when it has n - 1 edges and is connected; connectivity and
the two-coloring, the parities of the BFS depths from vertex 1, both read the
breadth-first forest that ``graphs`` walks once per graph and memoizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .densemat import REL_TOL_ZERO, SymMatrix, zero_threshold
from .errors import DimensionMismatch, NotATree, SchurNotPositiveDefinite
from .graphs import UGraph, _check_vertex, _walk, bfs_distances, is_connected
from .signpattern import MINUS, PLUS, SignMatrix, _sign_text

TOL_RATIO = 1e-8
SCHUR_FLOOR = 1e-12
RATIO_SKIP_FACTOR = 1e3


@dataclass(frozen=True)
class TwoColoring:
    """Proper two-coloring of a tree; vertex 1 always gets color 0."""

    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, v: int) -> int:
        _check_vertex(self.n, v)
        return self.colors[v - 1]

    def differ(self, i: int, j: int) -> bool:
        return self.color_of(i) != self.color_of(j)


def is_tree(g: UGraph) -> bool:
    # the edge count comes first, so a graph with the wrong count is never walked
    return g.edge_count == g.n - 1 and is_connected(g).connected


def _require_tree(g: UGraph) -> None:
    if not is_tree(g):
        raise NotATree(f"graph with {g.n} vertices and {g.edge_count} edges is not a tree")


def _tree_parity(g: UGraph) -> np.ndarray:
    """The two-coloring as int8 BFS depth parities from vertex 1, by 0-based vertex."""
    _require_tree(g)
    # one component, walked from vertex 1; depths reach n - 1: take the parity, then narrow
    return (np.array(_walk(g).depth[1:], dtype=np.intp) & 1).astype(np.int8)


def two_coloring(g: UGraph) -> TwoColoring:
    """Two-coloring by BFS layer parity from vertex 1. Raises NotATree otherwise."""
    return TwoColoring(tuple(_tree_parity(g).tolist()))


def predict_tree_sign_pattern(g: UGraph) -> SignMatrix:
    """Inverse sign pattern forced by a tree: MINUS where the two-coloring differs."""
    parity = _tree_parity(g)
    signs = parity[:, None] ^ parity[None, :]  # int8: 1 where the colors differ
    signs *= MINUS - PLUS
    signs += PLUS
    return SignMatrix._trusted(signs)


def predict_tree_sign_rows(g: UGraph) -> list[str]:
    """The rows of :func:`predict_tree_sign_pattern` as text, in O(n) memory.

    Equal to ``predict_tree_sign_pattern(g).to_rows()``. A tree's pattern has
    only two distinct rows, one per color, so the list holds n references to
    two strings instead of n^2 characters. Raises NotATree otherwise.
    """
    parity = _tree_parity(g)
    signs = np.stack((parity, parity ^ 1))  # row c: 1 where a color differs from c
    signs *= MINUS - PLUS
    signs += PLUS
    text = _sign_text(signs)
    by_color = (text[: g.n], text[g.n :])
    return [by_color[c] for c in parity.tolist()]


def odd_distance_predicate(g: UGraph, i: int, j: int) -> bool:
    """Whether the tree distance between distinct vertices i and j is odd."""
    _require_tree(g)
    if i == j:
        raise ValueError("vertices must be distinct")
    _check_vertex(g.n, j)  # bfs_distances checks i
    return bfs_distances(g, i)[j] % 2 == 1


@dataclass(frozen=True)
class LeafAttachment:
    """One induction step: hang a new last vertex as a leaf on ``attach_vertex``.

    The extended matrix keeps ``base`` as its leading block, puts
    ``edge_weight`` in the new row and column at the attachment position, and
    ``new_diagonal`` in the corner. Positive definiteness of the extension is
    checked where the update is applied, not here.
    """

    base: SymMatrix
    attach_vertex: int
    edge_weight: float
    new_diagonal: float

    def __post_init__(self) -> None:
        if not (1 <= self.attach_vertex <= self.base.n):
            raise ValueError(
                f"attach vertex {self.attach_vertex} out of range 1..{self.base.n}"
            )
        for name, value in (("edge weight", self.edge_weight), ("new diagonal", self.new_diagonal)):
            if not 0.0 < value < math.inf:  # also false for nan
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def attached_matrix(self) -> SymMatrix:
        k = self.base.n
        out = np.zeros((k + 1, k + 1))
        out[:k, :k] = self.base.entries
        out[self.attach_vertex - 1, k] = self.edge_weight
        out[k, self.attach_vertex - 1] = self.edge_weight
        out[k, k] = self.new_diagonal
        return SymMatrix._trusted(out)


def leaf_attach_inverse_update(
    prev_inverse: SymMatrix, attachment: LeafAttachment
) -> SymMatrix:
    """Inverse of the leaf-extended matrix from the inverse of the base.

    With P the base inverse, attachment column c e_i and corner d, the new
    top-left block is the rank-one update P + (c^2/d) (P e_i)(P e_i)^T / t with
    t = 1 - (c^2/d) P_ii, the border is -(c/d) times column i of that block,
    and the corner is 1/d + (c^2/d^2) times its (i, i) entry. The extension is
    positive definite exactly when t > 0; at or below SCHUR_FLOOR the update
    raises :class:`SchurNotPositiveDefinite`.
    """
    if prev_inverse.n != attachment.base.n:
        raise DimensionMismatch(
            f"inverse has size {prev_inverse.n}, base has size {attachment.base.n}"
        )
    p = prev_inverse.entries
    i = attachment.attach_vertex - 1
    c = attachment.edge_weight
    d = attachment.new_diagonal
    w = c * c / d
    t = 1.0 - w * p[i, i]
    if t <= SCHUR_FLOOR:
        raise SchurNotPositiveDefinite(
            f"Schur scalar {t:.3e} at or below floor {SCHUR_FLOOR:g} "
            f"(edge weight {c:g}, diagonal {d:g})"
        )
    k = prev_inverse.n
    u = p[:, i]
    top = p + (w / t) * np.outer(u, u)
    border = -(c / d) * top[:, i]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = top
    out[:k, k] = border
    out[k, :k] = border
    out[k, k] = 1.0 / d + (c / d) ** 2 * top[i, i]
    return SymMatrix._trusted(out)


class LeafRatio(NamedTuple):
    """Proportionality constant between a leaf column and its parent column.

    A named tuple: a check builds one per leaf, and a tuple is the cheapest
    immutable record to build.
    """

    leaf: int
    parent: int
    ratio: float
    max_rel_deviation: float
    rows_checked: int
    rows_skipped: int


@dataclass(frozen=True)
class LeafRatioReport:
    ratios: tuple[LeafRatio, ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ratios": [
                {
                    "leaf": r.leaf,
                    "parent": r.parent,
                    "ratio": None if math.isnan(r.ratio) else r.ratio,
                    "max_rel_deviation": r.max_rel_deviation,
                    "rows_checked": r.rows_checked,
                    "rows_skipped": r.rows_skipped,
                }
                for r in self.ratios
            ],
            "violations": list(self.violations),
            "passed": self.passed,
        }


def leaf_ratio_check(
    a: SymMatrix,
    a_inverse: SymMatrix,
    g: UGraph,
    rel_tol: float = REL_TOL_ZERO,
) -> LeafRatioReport:
    """Verify that leaf columns of the inverse are negative multiples of their
    parent columns.

    For each leaf v with neighbor p, the rows j outside {v, p} must satisfy
    inverse[j][v] = kappa * inverse[j][p] for one negative constant kappa,
    within ``TOL_RATIO`` relative deviation. Row pairs whose two entries are
    both smaller in magnitude than RATIO_SKIP_FACTOR times the zero threshold
    are skipped as numerically uninformative; leaves with no comparable rows
    (the 2 x 2 case) contribute nothing.
    """
    _require_tree(g)
    if a.n != g.n or a_inverse.n != g.n:
        raise DimensionMismatch(
            f"matrix sizes {a.n}, {a_inverse.n} do not match graph size {g.n}"
        )
    inv = a_inverse.entries
    floor = RATIO_SKIP_FACTOR * zero_threshold(inv, rel_tol)
    if g.n < 3:
        return LeafRatioReport((), ())
    # the degree-1 vertices, ascending, and each one's neighbor, 0-based: each
    # endpoint is given the other end of its row, and a leaf has only one row
    edges = g.edge_array - 1
    nbr = np.empty(g.n, dtype=np.intp)
    nbr[edges.ravel()] = edges[:, ::-1].ravel()
    leaves = np.flatnonzero(np.bincount(edges.ravel(), minlength=g.n) == 1)
    nbrs = nbr[leaves]
    # one row per leaf: the leaf's inverse column against its neighbor's, read
    # as rows since the inverse is exactly symmetric, compared on every entry
    # except those two
    rows = np.arange(leaves.size)
    x = inv[leaves]
    y = inv[nbrs]
    abs_x = np.abs(x)
    abs_y = np.abs(y)
    # "not both below the floor"; the entries are finite, so no NaN tells them apart
    usable = (abs_x >= floor) | (abs_y >= floor)
    usable[rows, leaves] = False
    usable[rows, nbrs] = False
    anchor = np.where(usable, abs_y, -1.0).argmax(axis=1)  # first largest |y|
    x_anchor = x[rows, anchor]
    y_anchor = y[rows, anchor]
    kappa = np.divide(x_anchor, y_anchor, out=np.zeros_like(x_anchor), where=y_anchor != 0.0)
    fitted = kappa[:, None] * y
    scale = np.abs(fitted)
    np.maximum(scale, abs_x, out=scale)
    np.maximum(scale, 1e-300, out=scale)
    deviation = x - fitted
    np.abs(deviation, out=deviation)
    deviation /= scale
    max_dev = np.where(usable, deviation, 0.0).max(axis=1)
    ratios = []
    violations = []
    for v, p, count, y0, ratio, dev in zip(
        (leaves + 1).tolist(),
        (nbrs + 1).tolist(),
        usable.sum(axis=1).tolist(),
        y_anchor.tolist(),
        kappa.tolist(),
        max_dev.tolist(),
    ):
        skipped = g.n - 2 - count
        if not count:
            ratios.append(LeafRatio(v, p, float("nan"), 0.0, 0, skipped))
            continue
        if y0 == 0.0:
            violations.append(f"leaf {v}: parent column vanishes on comparable rows")
            continue
        ratios.append(LeafRatio(v, p, ratio, dev, count, skipped))
        if ratio >= 0.0:
            violations.append(f"leaf {v}: ratio {ratio:g} is not negative")
        if dev > TOL_RATIO:
            violations.append(
                f"leaf {v}: relative deviation {dev:.3e} exceeds {TOL_RATIO:g}"
            )
    return LeafRatioReport(tuple(ratios), tuple(violations))


def random_tree_dn_matrix(g: UGraph, seed) -> SymMatrix:
    """Random doubly nonnegative matrix whose positive-entry graph is ``g``.

    Edge weights are uniform on [0.5, 2.0]; each diagonal entry is the incident
    weight sum plus a slack uniform on [0.1, 1.0], which makes the matrix
    strictly diagonally dominant and hence positive definite.
    """
    _require_tree(g)
    i, j = (g.edge_array - 1).T
    rng = np.random.default_rng(seed)
    arr = np.zeros((g.n, g.n))
    weights = rng.uniform(0.5, 2.0, size=g.n - 1)  # one draw per edge, in edge order
    arr[i, j] = weights
    arr[j, i] = weights
    np.fill_diagonal(arr, arr.sum(axis=1) + rng.uniform(0.1, 1.0, size=g.n))
    return SymMatrix._trusted(arr)
