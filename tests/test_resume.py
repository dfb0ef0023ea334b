"""Cell and slice enumeration resume from the level they last returned.

Whatever order of dims, complexes and bounds the calls come in, each answer
equals the one computed from an empty slot (and the brute-force oracle where
it applies), and an ascending run builds each level once.
"""

import pytest

from oracles import brute_cells
from steiner_lab import (
    Chain,
    c_delta,
    c_of_map,
    cells,
    enumerate_cells,
    enumerate_slice_cells,
    identity_morphism,
)
from steiner_lab.simplex import MonotoneMap
from steiner_lab.tensor import tensor_complex
from test_cells import two_loop_complex
from test_nerves import _shuffled

ORDERS = {
    "ascending": [0, 1, 2, 3],
    "descending": [3, 2, 1, 0],
    "repeated": [2, 2, 3, 3, 3],
    "interleaved": [0, 2, 1, 3, 3, 0, 2],
}


def from_empty(enumerate, *args):
    """The answer of a call that finds the slot empty."""
    cells._kept = None
    return enumerate(*args)


@pytest.fixture
def solver_calls(monkeypatch):
    """Entry calls of ``solve_boundary`` made by cell and slice enumeration,
    all of which go through cells.py."""
    calls = [0]
    solve = cells.solve_boundary

    def counting(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(cells, "solve_boundary", counting)
    return calls


CELL_CASES = {
    "tetrahedron": c_delta(3),
    "relabelled prism": _shuffled(tensor_complex(c_delta(2), c_delta(1))),
}


@pytest.mark.parametrize("between", [None, "other complex", "other bound"])
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
@pytest.mark.parametrize("K", CELL_CASES.values(), ids=CELL_CASES.keys())
def test_cells_in_any_order_equal_an_empty_slot(K, order, between):
    expected = {dim: from_empty(enumerate_cells, K, dim) for dim in set(order)}
    cells._kept = None
    for dim in order:
        got = enumerate_cells(K, dim)
        assert got == expected[dim] and got.complete
        if dim <= 2:  # every cell of these loop-free complexes has 0/1 coefficients
            assert set(got.cells) == set(brute_cells(K, dim, 1))
        if between == "other complex":
            enumerate_cells(c_delta(2), dim)
        elif between == "other bound":
            enumerate_cells(K, dim, 5)


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 1, 2, 2], [0, 2, 1, 2, 0]])
def test_bounded_cells_stay_incomplete_across_a_resume(order):
    K = two_loop_complex()
    expected = {
        (dim, bound): from_empty(enumerate_cells, K, dim, bound)
        for dim in set(order)
        for bound in (2, 3)
    }
    cells._kept = None
    for dim in order:
        for bound in (2, 2, 3, 3):  # a resume, then another bound in between
            got = enumerate_cells(K, dim, bound)
            assert got == expected[dim, bound]
            assert set(got.cells) == set(brute_cells(K, dim, bound))
            assert got.complete is (dim == 0)


SLICE_CASES = {
    "identity of the tetrahedron": identity_morphism(c_delta(3)),
    "triangle onto a face": c_of_map(MonotoneMap(2, 3, (0, 2, 3))),
}


@pytest.mark.parametrize("between", [None, "other functor", "other object"])
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
@pytest.mark.parametrize("u", SLICE_CASES.values(), ids=SLICE_CASES.keys())
def test_slice_cells_in_any_order_equal_an_empty_slot(u, order, between):
    c = Chain.unit(0, "0")
    expected = {dim: from_empty(enumerate_slice_cells, u, c, dim) for dim in set(order)}
    cells._kept = None
    for dim in order:
        got = enumerate_slice_cells(u, c, dim)
        assert got == expected[dim] and got[1]
        if between == "other functor":
            enumerate_slice_cells(identity_morphism(c_delta(2)), c, dim)
        elif between == "other object":
            enumerate_slice_cells(u, Chain.unit(0, "2"), dim)


def test_an_ascending_cell_census_builds_each_level_once(solver_calls):
    K = tensor_complex(c_delta(3), c_delta(2))
    from_empty(enumerate_cells, K, 5)
    alone = solver_calls[0]
    solver_calls[0] = 0
    cells._kept = None
    assert [len(enumerate_cells(K, i).cells) for i in range(6)] == [12, 197, 1142, 2025, 2130, 2131]
    assert solver_calls[0] == alone == 10204


def test_an_ascending_slice_census_builds_each_level_once(solver_calls):
    u, c = identity_morphism(c_delta(4)), Chain.unit(0, "0")
    from_empty(enumerate_slice_cells, u, c, 4)
    alone = solver_calls[0]
    solver_calls[0] = 0
    cells._kept = None
    for d in range(5):
        enumerate_slice_cells(u, c, d)
    assert solver_calls[0] == alone == 3785
