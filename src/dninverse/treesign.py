"""Tree-structured matrices and their inverse sign patterns.

When the positive-entry graph of a doubly nonnegative matrix is a tree, the
inverse sign pattern is forced: entry (i, j) is MINUS exactly when i and j get
different colors in the tree's two-coloring, equivalently when their tree
distance is odd. This module provides the prediction, the leaf-attachment
rank-one inverse update that drives the induction behind it, the proportional
leaf-column property, and a generator of random tree-structured instances.
A graph is validated as a tree once, by one BFS from vertex 1 over its CSR
adjacency, into a layout memoized on the graph: the parities of the BFS depths
are the two-coloring, and the CSR degrees give the leaves and their neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densemat import REL_TOL_ZERO, SymMatrix, zero_threshold
from .errors import DimensionMismatch, NotATree, SchurNotPositiveDefinite
from .graphs import UGraph, _bfs, bfs_distances
from .signpattern import MINUS, PLUS, SignMatrix

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
        return self.colors[v - 1]

    def differ(self, i: int, j: int) -> bool:
        return self.colors[i - 1] != self.colors[j - 1]


@dataclass(frozen=True, eq=False)
class _TreeLayout:
    """A graph validated as a tree by one BFS from vertex 1; arrays are 0-based."""

    parity: np.ndarray  # int8 BFS depth parity, the two-coloring
    leaves: np.ndarray  # degree-1 vertices, ascending
    leaf_nbrs: np.ndarray  # the one neighbor of each leaf


def _build_layout(g: UGraph) -> _TreeLayout | bool:
    """The layout of ``g``, or False when ``g`` is not a tree."""
    n = g.n
    if g.edge_count != n - 1:
        return False
    # with n - 1 edges, reaching every vertex from vertex 1 makes g a tree
    order, depth = _bfs(g, 1)
    if len(order) != n:
        return False
    # depths reach n - 1, so take the parity before narrowing to int8
    parity = (np.array(depth[1:]) & 1).astype(np.int8)
    indptr, indices = g._adjacency()
    leaves = np.flatnonzero(np.diff(indptr[1:]) == 1)
    return _TreeLayout(parity, leaves, indices[indptr[leaves + 1]] - 1)


def _tree_layout(g: UGraph) -> _TreeLayout | bool:
    """The layout memoized on ``g``: built on first use, False for a non-tree."""
    if g._tree is None:
        g._tree = _build_layout(g)
    return g._tree


def _require_tree(g: UGraph) -> _TreeLayout:
    layout = _tree_layout(g)
    if layout is False:
        raise NotATree(f"graph with {g.n} vertices and {g.edge_count} edges is not a tree")
    return layout


def is_tree(g: UGraph) -> bool:
    return _tree_layout(g) is not False


def two_coloring(g: UGraph) -> TwoColoring:
    """Two-coloring by BFS layer parity from vertex 1. Raises NotATree otherwise."""
    return TwoColoring(tuple(_require_tree(g).parity.tolist()))


def predict_tree_sign_pattern(g: UGraph) -> SignMatrix:
    """Inverse sign pattern forced by a tree: MINUS where the two-coloring differs."""
    parity = _require_tree(g).parity
    signs = parity[:, None] ^ parity[None, :]  # int8: 1 where the colors differ
    signs *= MINUS - PLUS
    signs += PLUS
    return SignMatrix._trusted(signs)


def odd_distance_predicate(g: UGraph, i: int, j: int) -> bool:
    """Whether the tree distance between distinct vertices i and j is odd."""
    _require_tree(g)
    if i == j:
        raise ValueError("vertices must be distinct")
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
        if self.edge_weight <= 0.0:
            raise ValueError(f"edge weight must be positive, got {self.edge_weight}")
        if self.new_diagonal <= 0.0:
            raise ValueError(f"new diagonal must be positive, got {self.new_diagonal}")

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


@dataclass(frozen=True)
class LeafRatio:
    """Proportionality constant between a leaf column and its parent column."""

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
    tol_ratio: float = TOL_RATIO,
    rel_tol: float = REL_TOL_ZERO,
) -> LeafRatioReport:
    """Verify that leaf columns of the inverse are negative multiples of their
    parent columns.

    For each leaf v with neighbor p, the rows j outside {v, p} must satisfy
    inverse[j][v] = kappa * inverse[j][p] for one negative constant kappa,
    within ``tol_ratio`` relative deviation. Row pairs whose two entries are
    both smaller in magnitude than RATIO_SKIP_FACTOR times the zero threshold
    are skipped as numerically uninformative; leaves with no comparable rows
    (the 2 x 2 case) contribute nothing.
    """
    layout = _require_tree(g)
    if a.n != g.n or a_inverse.n != g.n:
        raise DimensionMismatch(
            f"matrix sizes {a.n}, {a_inverse.n} do not match graph size {g.n}"
        )
    if g.n < 3:
        return LeafRatioReport((), ())
    # one column per leaf: the leaf's inverse column against its neighbor's,
    # compared on every row except those two
    inv = a_inverse.entries
    floor = RATIO_SKIP_FACTOR * zero_threshold(inv, rel_tol)
    leaves, nbrs = layout.leaves, layout.leaf_nbrs
    cols = np.arange(leaves.size)
    x = inv[:, leaves]
    y = inv[:, nbrs]
    compared = np.ones(x.shape, dtype=bool)
    compared[leaves, cols] = False
    compared[nbrs, cols] = False
    usable = compared & ~((np.abs(x) < floor) & (np.abs(y) < floor))
    checked = usable.sum(axis=0)
    skipped = (g.n - 2) - checked
    anchor = np.where(usable, np.abs(y), -1.0).argmax(axis=0)  # first largest |y|
    x_anchor = x[anchor, cols]
    y_anchor = y[anchor, cols]
    kappa = np.divide(x_anchor, y_anchor, out=np.zeros_like(x_anchor), where=y_anchor != 0.0)
    fitted = kappa * y
    scale = np.maximum(np.maximum(np.abs(x), np.abs(fitted)), 1e-300)
    max_dev = np.where(usable, np.abs(x - fitted) / scale, 0.0).max(axis=0)
    ratios = []
    violations = []
    for k, (v, p) in enumerate(zip((leaves + 1).tolist(), (nbrs + 1).tolist())):
        if not checked[k]:
            ratios.append(LeafRatio(v, p, float("nan"), 0.0, 0, int(skipped[k])))
            continue
        if y_anchor[k] == 0.0:
            violations.append(f"leaf {v}: parent column vanishes on comparable rows")
            continue
        ratio = float(kappa[k])
        dev = float(max_dev[k])
        ratios.append(LeafRatio(v, p, ratio, dev, int(checked[k]), int(skipped[k])))
        if ratio >= 0.0:
            violations.append(f"leaf {v}: ratio {ratio:g} is not negative")
        if dev > tol_ratio:
            violations.append(
                f"leaf {v}: relative deviation {dev:.3e} exceeds {tol_ratio:g}"
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
