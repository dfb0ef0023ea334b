"""Every top-level function and class of the package is referenced somewhere.

A definition counts as referenced when its name appears as a name, an
attribute or an imported name anywhere in ``src/``, ``tests/`` or
``scripts/`` outside its own definition.  A re-export from the package's
``__init__.py`` counts, since it declares public API.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steiner_lab"


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


def test_every_top_level_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert not unused, "referenced nowhere outside their own definition: " + ", ".join(unused)
