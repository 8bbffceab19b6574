"""The public names of the package, resolved from their defining modules on use,
and the imports of its modules."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import dninverse

# defining module -> public names, as the package exported them when it
# imported every module eagerly, less POWER_MAX_ITERS and POWER_TOL: the knobs
# of the power iteration, removed on purpose with it, and less EigenPair,
# perron_eigenpair, Bipartition, all_bipartitions and quadratic_form_gap: the
# float device of the necessity proof, removed on purpose (see CHANGES.md)
PUBLIC = {
    "densemat": [
        "DnVerdict", "REL_PIVOT_FLOOR", "REL_SYM_TOL", "REL_TOL_RESIDUAL", "REL_TOL_ZERO",
        "SymMatrix", "cholesky_invert", "matrix_graph", "min_eigenvalue",
        "verify_doubly_nonnegative", "zero_threshold",
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
        "CampaignReport", "NonUniquenessPair", "bipartition_crossing_oracle",
        "necessity_campaign", "random_dn_matrix", "search_nonunique_complete",
        "tree_sign_campaign", "trial_seed",
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
MODULES = sorted(pathlib.Path(dninverse.__file__).resolve().parent.glob("*.py"))


def test_all_lists_the_same_64_names():
    assert len(NAMES) == 64
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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Each name the module imports, at any depth, that no expression of it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    # LAPACK comes from the OpenBLAS numpy bundles; scipy is a test dependency
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


# public name that no package module but __init__ references -> why it stays
UNREFERENCED_PUBLIC = {
    "bipartition_crossing_oracle": "criterion 09 imports it",
    "leaf_attach_inverse_update": "criterion 08 imports it",
    "matrix_graph": "criterion 10 imports it; a bench tracer target",
    "negative_sign_graph": "criterion 09 imports it; a bench tracer target",
    "odd_distance_predicate": "criterion 06 imports it",
    "random_feasible_sign_matrix": "criteria 01 and 09 import it",
    "two_coloring": "criterion 06 imports it; a bench tracer target",
    "write_graph": "tests only",
}


def _referenced_names() -> set[str]:
    """Each name that a package module other than ``__init__`` reads, bare or as
    an attribute."""
    names = set()
    for path in MODULES:
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_a_public_name_no_module_references_is_on_the_allow_list():
    unreferenced = set(dninverse.__all__) - _referenced_names()
    assert unreferenced - set(UNREFERENCED_PUBLIC) == set()  # a name the list does not hold
    assert set(UNREFERENCED_PUBLIC) - unreferenced == set()  # an entry some module now uses


# (defining module, private name) -> the modules allowed to import it: the
# package's only reaches across a module boundary
PRIVATE_IMPORTS = {
    ("densemat", "_band_signs"): {"oracle", "signpattern"},
    ("graphs", "_check_edge"): {"fileio"},
    ("graphs", "_check_vertex"): {"treesign"},
    ("graphs", "_walk"): {"treesign"},
    ("signpattern", "_sign_text"): {"treesign"},
}


def _private_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """Each (module, name) pair the module imports from a sibling, at any depth,
    where the name starts with an underscore."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_a_private_name_crosses_a_module_boundary_only_where_the_allow_list_says():
    made = {(*pair, path.stem) for path in MODULES for pair in _private_imports(path)}
    allowed = {(*pair, importer) for pair, importers in PRIVATE_IMPORTS.items() for importer in importers}
    assert made - allowed == set()  # an import the list does not allow
    assert allowed - made == set()  # an entry no module needs any more


# (defining module, class, private attribute) -> the other modules allowed to
# reach it. SymMatrix._inverse and UGraph._forest are left out on purpose: only
# densemat may touch the memo of cholesky_invert, and only graphs the memoized
# breadth-first forest.
PRIVATE_ATTRIBUTES = {
    ("densemat", "SymMatrix", "_trusted"): {"fileio", "oracle", "signpattern", "treesign"},
    ("signpattern", "SignMatrix", "_trusted"): {"treesign"},
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _class_privates(tree: ast.Module) -> dict[str, set[str]]:
    """Each class of the module -> its private methods and the private ``self``
    attributes its methods assign."""
    privates = {}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        names = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif (
                isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self" and isinstance(node.ctx, ast.Store)
            ):
                names.add(node.attr)
        privates[cls.name] = {name for name in names if _private(name)}
    return privates


def _private_attribute_uses() -> set[tuple[str, str, str, str]]:
    """(defining module, class, attribute, user) for each private attribute of a
    package class that another module reads or writes. A receiver named after a
    class pins the class; any other receiver may be an instance of each class
    that has the attribute."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    owners = {}  # attribute -> [(module, class)]
    classes = {}  # class name -> module
    for module, tree in trees.items():
        for cls, names in _class_privates(tree).items():
            classes[cls] = module
            for name in names:
                owners.setdefault(name, []).append((module, cls))
    uses = set()
    for user, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or node.attr not in owners:
                continue
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            for module, cls in owners[node.attr]:
                if module != user and (receiver not in classes or receiver == cls):
                    uses.add((module, cls, node.attr, user))
    return uses


def test_a_private_attribute_crosses_a_module_boundary_only_where_the_allow_list_says():
    made = _private_attribute_uses()
    allowed = {(*key, user) for key, users in PRIVATE_ATTRIBUTES.items() for user in users}
    assert made - allowed == set()  # a use the list does not allow
    assert allowed - made == set()  # an entry no module needs any more
