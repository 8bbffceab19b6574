"""Sign patterns of inverses of doubly nonnegative matrices.

Feasibility of a {+, -} pattern as the entrywise sign matrix of the inverse of
an invertible irreducible doubly nonnegative matrix, explicit witness
synthesis, the forced two-coloring pattern for tree-structured matrices, and
brute-force oracles plus randomized campaigns for verifying all of it.

Importing the package loads none of its modules: each public name, and each
module named as an attribute (``dninverse.oracle``), is imported from its
defining module on first access. A resolved name is not kept here, so the
package always hands out what the defining module binds at that moment.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it defines
_EXPORTS = {
    "densemat": """POWER_MAX_ITERS POWER_TOL REL_PIVOT_FLOOR REL_SYM_TOL
        REL_TOL_RESIDUAL REL_TOL_ZERO DnVerdict EigenPair SymMatrix
        cholesky_invert matrix_graph min_eigenvalue perron_eigenpair
        verify_doubly_nonnegative zero_threshold""",
    "errors": """AsymmetricMatrix AsymmetricSignMatrix DimensionMismatch
        DnInverseError InfeasiblePattern NotATree NotConverged
        NotPositiveDefinite SchurNotPositiveDefinite TooLarge""",
    "fileio": """ParseError read_graph read_matrix read_sign_matrix write_graph
        write_matrix write_sign_matrix""",
    "graphs": """Connectivity UGraph bfs_distances connected_components
        is_connected random_tree""",
    "oracle": """Bipartition CampaignReport NonUniquenessPair all_bipartitions
        bipartition_crossing_oracle necessity_campaign quadratic_form_gap
        random_dn_matrix search_nonunique_complete tree_sign_campaign
        trial_seed""",
    "signpattern": """MINUS PLUS FeasibilityReport SignMatrix ambiguous_signs
        check_feasible construct_witness negative_sign_graph
        random_feasible_sign_matrix sign_of""",
    "treesign": """LeafAttachment LeafRatio LeafRatioReport TwoColoring is_tree
        leaf_attach_inverse_update leaf_ratio_check odd_distance_predicate
        predict_tree_sign_pattern predict_tree_sign_rows random_tree_dn_matrix
        two_coloring""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
