"""Every top-level function and class of the package is referenced somewhere,
and those that only tests reach are declared.

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
# ``__init__.py`` is not a caller here.  Most are paper constructions whose
# tests pin the paper's axioms.  A new test-only definition is declared
# here, or gets a caller.
TEST_ONLY = {
    "cells.py": {"is_loopfree", "is_unitary", "validate_cell"},
    "nerves.py": {
        "decalage_homotopy", "over_slice_projection", "simplex_facet",
        "simplicial_map_failures", "standard_simplex", "under_slice_projection",
    },
    "retract.py": {"from_slice_pair", "to_slice_pair"},
    "serialize.py": {"cell_from_json", "morphism_to_json"},
    "slices.py": {
        "identity_oplax", "pair_from_slice_family", "precompose_oplax",
        "slice_cell_from_pair", "slice_compose", "slice_functor",
        "slice_source", "slice_target", "validate_slice_cell",
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


def test_every_top_level_definition_is_referenced():
    trees = _trees()
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in _definitions(trees)
        if everywhere[node.name] == _references(node)[node.name]
    ]
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
