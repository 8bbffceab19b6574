"""The public names of the package, resolved from their defining modules on use."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import dninverse

# defining module -> public names, as the package exported them when it
# imported every module eagerly
PUBLIC = {
    "densemat": [
        "DnVerdict", "EigenPair", "POWER_MAX_ITERS", "POWER_TOL", "REL_PIVOT_FLOOR",
        "REL_SYM_TOL", "REL_TOL_RESIDUAL", "REL_TOL_ZERO", "SymMatrix", "cholesky_invert",
        "matrix_graph", "min_eigenvalue", "perron_eigenpair", "verify_doubly_nonnegative",
        "zero_threshold",
    ],
    "errors": [
        "AsymmetricMatrix", "AsymmetricSignMatrix", "DimensionMismatch", "DnInverseError",
        "InfeasiblePattern", "NotATree", "NotConverged", "NotPositiveDefinite",
        "SchurNotPositiveDefinite", "TooLarge",
    ],
    "fileio": [
        "ParseError", "read_graph", "read_matrix", "read_sign_matrix", "write_graph",
        "write_matrix", "write_sign_matrix",
    ],
    "graphs": [
        "Connectivity", "UGraph", "bfs_distances", "connected_components", "is_connected",
        "random_tree",
    ],
    "oracle": [
        "Bipartition", "CampaignReport", "NonUniquenessPair", "all_bipartitions",
        "bipartition_crossing_oracle", "necessity_campaign", "quadratic_form_gap",
        "random_dn_matrix", "search_nonunique_complete", "tree_sign_campaign", "trial_seed",
    ],
    "signpattern": [
        "FeasibilityReport", "MINUS", "PLUS", "SignMatrix", "ambiguous_signs",
        "check_feasible", "construct_witness", "negative_sign_graph",
        "random_feasible_sign_matrix", "sign_of",
    ],
    "treesign": [
        "LeafAttachment", "LeafRatio", "LeafRatioReport", "TwoColoring", "is_tree",
        "leaf_attach_inverse_update", "leaf_ratio_check", "odd_distance_predicate",
        "predict_tree_sign_pattern", "predict_tree_sign_rows", "random_tree_dn_matrix",
        "two_coloring",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_same_71_names():
    assert len(NAMES) == 71
    assert dninverse.__all__ == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_object_its_defining_module_holds(module):
    home = importlib.import_module(f"dninverse.{module}")
    for name in PUBLIC[module]:
        assert getattr(dninverse, name) is getattr(home, name), name


def test_star_import_binds_exactly_the_public_names_and_dir_lists_them():
    namespace = {}
    exec("from dninverse import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(dninverse))


def test_a_resolved_name_is_looked_up_again_on_every_access(monkeypatch):
    # a wrapper swapped into the defining module (as the bench tracer does)
    # is what the package hands out, and nothing is left behind afterwards
    from dninverse import treesign

    dninverse.is_tree  # noqa: B018
    assert "is_tree" not in vars(dninverse)
    monkeypatch.setattr(treesign, "is_tree", len)
    assert dninverse.is_tree is len


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'dninverse' has no attribute 'no_such_name'"):
        dninverse.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from dninverse import no_such_name  # noqa: F401


def test_a_module_name_resolves_to_the_submodule_after_a_bare_import():
    package_root = pathlib.Path(dninverse.__file__).resolve().parent.parent
    code = (
        "import sys, dninverse\n"
        "print('dninverse.oracle' in sys.modules, dninverse.oracle is sys.modules['dninverse.oracle'])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert (done.returncode, done.stdout) == (0, "False True\n"), done.stderr
