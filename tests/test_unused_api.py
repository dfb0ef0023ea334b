"""Every top-level function and class of the package, and every method and
property of its classes, is referenced somewhere, and the top-level
definitions that only tests reach are declared.

A definition counts as referenced when its name appears as a name, an
attribute or an imported name anywhere in ``src/``, ``tests/``,
``scripts/`` or ``perfbench/`` outside its own definition.  A re-export
from the package's ``__init__.py`` counts, since it declares public API.
``perfbench/`` calls the package through ``lab.*``, an attribute.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steiner_lab"
FOLDERS = ("src", "tests", "scripts", "perfbench")

# Definitions that only tests/ reference, by module; a re-export from
# ``__init__.py`` is not a caller here.  Each is a paper construction whose
# tests pin a law; a name that only restates another operation is not
# declared but deleted, its callers using that operation.  A new test-only
# definition is declared here, or gets a caller.
TEST_ONLY = {
    "cells.py": {"is_loopfree", "is_unitary"},
    "nerves.py": {
        "decalage_homotopy", "over_slice_projection", "simplicial_map_failures",
        "standard_simplex", "under_slice_projection",
    },
    "retract.py": {"from_slice_pair", "to_slice_pair"},
    "serialize.py": {"morphism_to_json"},
    "slices.py": {
        "identity_oplax", "pair_from_slice_family", "precompose_oplax",
        "slice_cell_from_pair", "slice_compose", "slice_functor",
        "slice_problems", "slice_source_iter", "slice_target_iter",
        "vertical_compose",
    },
}


def _references(tree):
    """How often each name is referenced within ``tree``."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def _trees():
    return {
        path: ast.parse(path.read_text(), str(path))
        for folder in FOLDERS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def _definitions(trees):
    """(path, node) for each top-level function and class of the package."""
    return [
        (path, node)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def _methods(trees):
    """(path, node) for each non-dunder method and property of a package class."""
    return [
        (path, node)
        for path, cls in _definitions(trees)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _unreferenced(trees, definitions):
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in definitions
        if everywhere[node.name] == _references(node)[node.name]
    ]


def test_every_top_level_definition_is_referenced():
    trees = _trees()
    unused = _unreferenced(trees, _definitions(trees))
    assert not unused, "referenced nowhere outside their own definition: " + ", ".join(unused)


def test_every_method_and_property_is_referenced():
    trees = _trees()
    unused = _unreferenced(trees, _methods(trees))
    assert not unused, "referenced nowhere outside their own definition: " + ", ".join(unused)


def test_test_only_definitions_are_declared():
    trees = _trees()
    tests, callers = collections.Counter(), collections.Counter()
    for path, tree in trees.items():
        if path.is_relative_to(ROOT / "tests"):
            tests.update(_references(tree))
        elif path != PACKAGE / "__init__.py":
            callers.update(_references(tree))
    found = collections.defaultdict(set)
    for path, node in _definitions(trees):
        if callers[node.name] == _references(node)[node.name] and tests[node.name]:
            found[path.name].add(node.name)
    assert dict(found) == TEST_ONLY
