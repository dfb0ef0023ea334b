"""Every memo cache of the package names a finite bound.

A ``functools.lru_cache`` or ``functools.cache`` decorator in ``src/`` must
pass ``maxsize`` as an integer literal or as a module-level integer
constant, so a long-lived process holds bounded memory.  No cache is
exempt.  The cell enumerators keep one level, the last they returned,
and a simplicial set keeps its levels but no result of its action.
"""

import ast
import gc
import pathlib
import weakref

from steiner_lab import Chain, c_delta, enumerate_cells, enumerate_slice_cells, identity_morphism
from steiner_lab.nerves import standard_simplex
from steiner_lab.serialize import complex_from_json, complex_to_json
from steiner_lab.simplex import face_map

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steiner_lab"


def _int_constants(tree):
    """Module-level names bound to an integer literal."""
    out = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
        ):
            out.update((t.id, node.value.value) for t in node.targets if isinstance(t, ast.Name))
    return out


def _is_cache(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def _bound(decorator, constants):
    """The maxsize a cache decorator passes, or None if it names none."""
    if not isinstance(decorator, ast.Call):
        return None
    args = list(decorator.args[:1]) + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    if not args:
        return None
    value = args[0]
    if isinstance(value, ast.Constant) and type(value.value) is int:
        return value.value
    if isinstance(value, ast.Name):
        return constants.get(value.id)
    return None


def test_every_cache_has_a_finite_maxsize():
    unbounded = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants = _int_constants(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in filter(_is_cache, node.decorator_list):
                bound = _bound(decorator, constants)
                if bound is None:
                    unbounded.add(node.name)
    assert not unbounded, f"caches without a finite maxsize: {sorted(unbounded)}"


def test_the_kept_level_is_freed_by_the_next_enumeration():
    A = complex_from_json(complex_to_json(c_delta(2)))
    cell = weakref.ref(enumerate_cells(A, 1).cells[0])
    gc.collect()
    assert cell() is not None  # A's level is kept
    enumerate_cells(c_delta(1), 1)
    gc.collect()
    assert cell() is None


def test_one_level_is_kept_across_both_enumerators():
    """Cells and slice cells share the slot: a call of either kind frees the
    level that the other kind kept, so at most one level is alive."""
    A = complex_from_json(complex_to_json(c_delta(2)))
    cell = weakref.ref(enumerate_cells(A, 1).cells[0])
    u = identity_morphism(c_delta(2))
    slice_cell = weakref.ref(enumerate_slice_cells(u, Chain.unit(0, "0"), 1)[0][0])
    gc.collect()
    assert cell() is None and slice_cell() is not None
    enumerate_cells(c_delta(1), 1)
    gc.collect()
    assert slice_cell() is None


def test_an_act_result_is_freed_once_its_caller_drops_it():
    D = standard_simplex(2, 2)
    y = D.act(face_map(2, 0), D.simplices(2)[-1])
    result = weakref.ref(y)
    del y
    gc.collect()
    assert result() is None
