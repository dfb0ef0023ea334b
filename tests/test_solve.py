"""The per-complex solve memo: solves it saves, and answers it cannot change."""

import pytest

from steiner_lab import (
    Chain,
    c_delta,
    enumerate_cells,
    enumerate_slice_cells,
    identity_morphism,
    solve,
)
from steiner_lab.serialize import complex_from_json, complex_to_json
from steiner_lab.solve import SolverError, solve_boundary
from steiner_lab.tensor import tensor_complex
from oracles import bounded_chains
from test_cells import two_loop_complex
from test_chains import non_unitary_complex


def fresh(K):
    """An equal complex with its own, empty memo."""
    return complex_from_json(complex_to_json(K))


@pytest.fixture
def dispatches(monkeypatch):
    """Every real solve, as the size of the memo when it was made."""
    sizes = []
    dispatch = solve._dispatch

    def counting(K, *args):
        sizes.append(len(K._strong_cache.get("solved", ())))
        return dispatch(K, *args)

    monkeypatch.setattr(solve, "_dispatch", counting)
    return sizes


def prism_census(K):
    enums = [enumerate_cells(K, i) for i in range(K.dim + 1)]
    return [([(c.x0, c.x1) for c in e.cells], e.complete) for e in enums]


def test_cell_census_solves_each_target_once(dispatches):
    K = fresh(tensor_complex(c_delta(3), c_delta(2)))
    census = prism_census(K)
    assert [len(cells) for cells, _ in census] == [12, 197, 1142, 2025, 2130, 2131]
    assert len(dispatches) == 1934  # distinct (degree, target, bound) keys
    prism_census(K)
    assert len(dispatches) == 1934


def test_slice_census_solves_each_target_once(dispatches):
    u = identity_morphism(fresh(c_delta(4)))
    for d in range(5):
        enumerate_slice_cells(u, Chain.unit(0, "0"), d)
    assert len(dispatches) == 100


def test_bound_is_part_of_the_key():
    K = two_loop_complex()
    for bound in (2, 3, 4):
        ours = enumerate_cells(K, 1, coeff_bound=bound)
        alone = enumerate_cells(two_loop_complex(), 1, coeff_bound=bound)
        assert ours == alone and not ours.complete
    assert len(enumerate_cells(K, 1, coeff_bound=2).cells) < len(ours.cells)


def test_errors_are_never_memoized(dispatches):
    K = two_loop_complex()
    target = Chain.make(0, {"a": 1, "b": -1})
    for _ in range(3):
        with pytest.raises(SolverError, match="bound"):
            solve_boundary(K, 1, target)
    assert len(dispatches) == 3 and not K._strong_cache.get("solved")


def test_memo_is_bounded_and_eviction_keeps_answers(monkeypatch, dispatches):
    prism = tensor_complex(c_delta(3), c_delta(2))
    expected = prism_census(fresh(prism))
    monkeypatch.setattr(solve, "SOLVE_MEMO_SIZE", 8)
    K = fresh(prism)
    del dispatches[:]
    assert prism_census(K) == expected
    assert len(dispatches) > 1934  # evicted targets were solved again
    assert max(dispatches) <= 8 and len(K._strong_cache["solved"]) == 8


def test_negative_bounds_raise_and_are_never_memoized(dispatches):
    K = fresh(c_delta(2))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-negative"):
            solve.solve_augmentation(K, 1, -1)
        with pytest.raises(ValueError, match="non-negative"):
            solve_boundary(K, 1, Chain.make(0, {"2": 1, "0": -1}), -1)
    assert not dispatches and not K._strong_cache.get("solved")


@pytest.mark.parametrize(
    "K, targets",
    [(c_delta(3), 272), (tensor_complex(c_delta(2), c_delta(1)), 5212)],
    ids=["delta3", "delta2xdelta1"],
)
def test_peel_solver_matches_bounded_brute_force(K, targets):
    K, solved = fresh(K), 0
    for p in range(1, K.dim + 1):
        brute = {}
        for z in bounded_chains(K, p, 2):
            brute.setdefault(K.d(z), []).append(z)
        stray = Chain.unit(p - 1, K.tokens(p - 1)[0])  # e or d of it is nonzero
        assert stray not in brute
        for target in [*brute, stray]:
            result = solve_boundary(K, p, target, 2)
            unbounded = solve_boundary(K, p, target).chains
            assert result.complete == all(c <= 2 for z in unbounded for _, c in z.items())
            want = sorted(brute.get(target, ()), key=lambda z: z.coeffs)
            assert result.chains == tuple(want)
            solved += 1
    assert solved == targets


def test_peel_solver_edge_cases():
    K = fresh(c_delta(2))
    for target in (Chain.unit(0, "x"), Chain.make(0, {"x": 1, "0": -1})):
        assert solve_boundary(K, 1, target) == solve.SolveResult((), True)
    assert solve.solve_augmentation(K, 0) == solve.SolveResult((Chain.zero(0),), True)
    assert solve.solve_augmentation(K, -1) == solve.SolveResult((), True)
    edge = Chain.make(0, {"2": 1, "0": -1})
    # bound 0 drops both paths from 0 to 2, so the result is not complete
    assert solve_boundary(K, 1, edge, 0) == solve.SolveResult((), False)
    assert solve_boundary(K, 1, edge, 1) == solve.SolveResult(
        (Chain.make(1, {"0,1": 1, "1,2": 1}), Chain.unit(1, "0,2")), True
    )


@pytest.mark.parametrize("bound", range(4))
@pytest.mark.parametrize("make", [two_loop_complex, non_unitary_complex], ids=["two-loop", "non-unitary"])
def test_uncertified_solver_is_the_bounded_oracle(monkeypatch, make, bound):
    """With the peeling certificate withheld, every solve is the bounded
    search: in each degree up to dim + 1 (whose only chain is zero), on
    every target the oracle reaches and on one it does not."""
    K = fresh(make())
    monkeypatch.setattr(solve, "_peel_data", lambda K, p: None)
    for p in range(K.dim + 2):
        measure = K.d if p else K.e
        brute = {}
        for z in bounded_chains(K, p, bound):
            brute.setdefault(measure(z), []).append(z)
        stray = Chain.unit(p - 1, K.tokens(p - 1)[0]) if p else -1
        assert stray not in brute
        for target in [*brute, stray]:
            if p:
                result = solve_boundary(K, p, target, bound)
            else:
                result = solve.solve_augmentation(K, target, bound)
            assert result.chains == tuple(sorted(brute.get(target, ()), key=lambda z: z.coeffs))
            assert result.complete is False
