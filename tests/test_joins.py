"""Cells and slice cells read as morphisms out of globes and joins.

An i-cell of nu(K) is a morphism G_i -> K (Steiner), and a slice i-cell of
u: K -> L at c is a morphism D_0 * G_i -> L sending D_0 to c and G_i to u.a
(Ara-Maltsiniotis).  The enumerators grow levels pair by pair; these tests
check them against the morphism reading, built from the test-side
``globe_complex`` and ``join_complex``.
"""

import pytest

from oracles import brute_morphisms, globe_complex, join_complex
from steiner_lab import (
    Chain,
    atom_cell,
    c_delta,
    c_of_map,
    cells,
    enumerate_cells,
    enumerate_slice_cells,
    identity_morphism,
    is_unitary,
    map_cell,
    validate_complex,
)
from steiner_lab import slices
from steiner_lab.chains import strong_loopfree_order
from steiner_lab.nerves import enumerate_morphisms
from steiner_lab.simplex import MonotoneMap
from steiner_lab.slices import SliceCell
from steiner_lab.cells import _source_rows, _target_rows
from steiner_lab.tensor import tensor_complex
from test_cells import two_loop_complex
from test_nerves import _shuffled


def _simplex_name(token, shift):
    return ",".join(str(int(v) + shift) for v in token.split(","))


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(4))
def test_simplex_joins_relabel_to_simplices(m, n):
    J = join_complex(c_delta(m), c_delta(n))
    assert validate_complex(J).ok and is_unitary(J)
    assert strong_loopfree_order(J) is not None
    names = {}
    for token, _ in J.graded():
        x, y = token.split("*")
        parts = ([_simplex_name(x, 0)] if x else []) + ([_simplex_name(y, m + 1)] if y else [])
        names[token] = ",".join(parts)
    D = c_delta(m + 1 + n)
    for p in D.degrees():
        assert sorted(names[t] for t in J.tokens(p)) == sorted(D.tokens(p))
    renamed = {names[t]: J.diff_of(t) for t, p in J.graded() if p}
    for token, chain in renamed.items():
        assert D.diff_of(token) == Chain.make(
            chain.degree, [(names[t], c) for t, c in chain.items()]
        )
    assert all(J.aug_of(t) == D.aug_of(names[t]) for t in J.tokens(0))


CELL_CASES = {
    **{f"simplex {n}": (c_delta(n), n, None) for n in range(1, 6)},
    "relabelled prism": (_shuffled(tensor_complex(c_delta(3), c_delta(2))), 5, None),
    **{f"two-loop bound {b}": (two_loop_complex(), 2, b) for b in (2, 3, 4)},
}


@pytest.mark.parametrize("K, top, bound", CELL_CASES.values(), ids=CELL_CASES.keys())
def test_cells_are_the_morphisms_out_of_a_globe(K, top, bound):
    for i in range(top + 1):
        G = globe_complex(i)
        homs, complete = enumerate_morphisms(G, K, coeff_bound=bound)
        cells._kept = None
        level = enumerate_cells(K, i, bound)
        assert level.cells == tuple(map_cell(g, atom_cell(G, "x")) for g in homs)
        assert level.complete == complete


def join_slice_level(u, c, i, homs):
    """The slice i-cells of u at c, one per morphism f: D_0 * G_i -> L with
    f(v) = c and f's G_i part u.a for a morphism a: G_i -> K; ``homs(src,
    dst, fixed)`` gives the morphisms, with the images in ``fixed``."""
    K, L = u.source, u.target
    G = globe_complex(i)
    J = join_complex(c_delta(0), G)
    by_part = {}
    for f in homs(J, L, {"0*": c}):
        by_part.setdefault(tuple(f.image_of(f"*{t}") for t in G.index), []).append(f)
    level = []
    for a in homs(G, K, {}):
        a_cell = map_cell(a, atom_cell(G, "x"))
        for f in by_part.get(tuple(u.apply(a.image_of(t)) for t in G.index), ()):
            t0, t1 = (
                tuple(map_cell(f, atom_cell(J, f"0*{side}{k}")) for k in range(i))
                + (map_cell(f, atom_cell(J, "0*x")),)
                for side in "sy"
            )
            level.append(SliceCell(u, c, a_cell, t0, t1))
    return level


def solved_homs(src, dst, fixed):
    morphisms, complete = enumerate_morphisms(src, dst, fixed)
    assert complete
    return morphisms


def brute_homs(src, dst, fixed):
    """Every morphism with 0/1 image coefficients, without the solver."""
    return brute_morphisms(src, dst, 1, fixed)


def _map(m, n, image):
    return c_of_map(MonotoneMap(m, n, image))


# (u, object, top dim, homs)
SLICE_CASES = {
    "identity of the triangle": (identity_morphism(c_delta(2)), "0", 2, brute_homs),
    "identity of the prism": (
        identity_morphism(tensor_complex(c_delta(2), c_delta(1))), "0(x)0", 1, brute_homs),
    "identity of the tetrahedron": (identity_morphism(c_delta(3)), "0", 3, solved_homs),
    "identity of the 4-simplex": (identity_morphism(c_delta(4)), "1", 4, solved_homs),
    "identity of the triangle squared": (
        identity_morphism(tensor_complex(c_delta(2), c_delta(2))), "0(x)1", 2, solved_homs),
    "c(0,0,1,2)": (_map(3, 2, (0, 0, 1, 2)), "0", 3, solved_homs),
    "c(0,2,3)": (_map(2, 3, (0, 2, 3)), "1", 2, solved_homs),
    "c(0,1,1,3)": (_map(3, 3, (0, 1, 1, 3)), "0", 3, solved_homs),
}


def _slice_levels(u, v, top):
    c = Chain.unit(0, v)
    cells._kept = None
    return c, [enumerate_slice_cells(u, c, i) for i in range(top + 1)]


@pytest.mark.parametrize("u, v, top, homs", SLICE_CASES.values(), ids=SLICE_CASES.keys())
def test_slice_cells_are_the_morphisms_out_of_a_join(u, v, top, homs):
    c, levels = _slice_levels(u, v, top)
    for i, (level, complete) in enumerate(levels):
        assert complete
        expected = join_slice_level(u, c, i, homs)
        assert len(set(level)) == len(level) == len(expected)
        assert set(level) == set(expected)


def reference_order(z):
    """The slice order key as first written: the rows of a's iterated
    sources, then of its iterated targets, then every coherence row."""
    x0, x1 = z.a.x0, z.a.x1
    a_rows = [ch for rows in (_source_rows, _target_rows) for k in range(len(x0))
              for row in rows(x0, x1, k) for ch in row]
    return tuple(ch.coeffs for ch in a_rows) + tuple(
        ch.coeffs for cell in z.t0 + z.t1 for ch in cell.x0 + cell.x1
    )


@pytest.mark.parametrize("u, v, top", [case[:3] for case in SLICE_CASES.values()],
                         ids=SLICE_CASES.keys())
def test_slice_levels_keep_the_reference_order(u, v, top):
    for level, _ in _slice_levels(u, v, top)[1]:
        assert list(level) == sorted(level, key=reference_order)


def test_the_slice_search_composes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the slice search composed cells")

    for name in ("compose", "whisker_composite", "map_cell"):
        monkeypatch.setattr(slices, name, refuse)
    for u, top in ((identity_morphism(c_delta(3)), 3), (_map(3, 2, (0, 0, 1, 2)), 3)):
        c, levels = _slice_levels(u, "0", top)
        assert all(complete and level for level, complete in levels)
