import random

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from steiner_lab import c_delta, lambda_of_nu, linalg
from steiner_lab.linalg import smith_normal_form
from steiner_lab.tensor import tensor_complex


def sympy_factors(rows, ncols):
    """Nonzero invariant factors by sympy, as a sorted list of positives."""
    if not rows or not ncols:
        return []
    reference = sympy_smith_normal_form(Matrix(rows), domain=ZZ)
    return sorted(abs(reference[i, i]) for i in range(min(len(rows), ncols))
                  if reference[i, i] != 0)


def in_divisibility_order(factors):
    return all(d > 0 for d in factors) and all(
        b % a == 0 for a, b in zip(factors, factors[1:])
    )


def _random_matrix(rng):
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    shape = rng.choice(["zero", "diagonal", "rank-deficient", "random"])
    if shape == "zero":
        return [[0] * ncols for _ in range(nrows)], ncols
    if shape == "diagonal":  # factors that are not yet in divisibility order
        return [[rng.randint(-9, 9) if i == j else 0 for j in range(ncols)]
                for i in range(nrows)], ncols
    rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "rank-deficient" and nrows > 1:
        k = rng.randint(-3, 3)
        rows[-1] = [k * a for a in rows[0]]
    return rows, ncols


def _random_sparse_matrix(rng):
    """Up to 12 x 12, a quarter of the entries set, a third of those non-units."""
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    values = [1, -1, 1, -1, 2, -3]
    return [[rng.choice(values) if rng.random() < 0.25 else 0 for _ in range(ncols)]
            for _ in range(nrows)], ncols


@pytest.mark.parametrize("seed", range(5))
def test_smith_normal_form_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows, ncols = _random_matrix(rng)
        factors = smith_normal_form(rows, ncols)
        assert sorted(factors) == sympy_factors(rows, ncols), rows
        assert in_divisibility_order(factors), (rows, factors)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_matrices_with_non_unit_residuals_match_sympy(seed):
    rng = random.Random(100 + seed)
    non_unit = 0
    for _ in range(50):
        rows, ncols = _random_sparse_matrix(rng)
        factors = smith_normal_form(rows, ncols)
        assert sorted(factors) == sympy_factors(rows, ncols), rows
        assert in_divisibility_order(factors), (rows, factors)
        non_unit += any(d > 1 for d in factors)
    assert non_unit >= 10  # non-unit pivots really reached the diagonal


def _sparse_signs(rng, nrows, ncols):
    """Five +-1 entries in each column, in rows drawn by ``rng``."""
    rows = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        for i in rng.sample(range(nrows), 5):
            rows[i][j] = rng.choice([1, -1])
    return rows


def test_dense_matrix_with_growing_entries_matches_sympy():
    rng = random.Random(7)
    rows = [[rng.choice([0, 1, -1, 2, -2, 3, 4, 6]) for _ in range(11)] for _ in range(11)]
    factors = smith_normal_form(rows, 11)
    assert factors == sympy_factors(rows, 11) == [1] * 10 + [327447291]


@pytest.mark.parametrize("seed", range(6))
def test_sparse_sign_matrices_match_sympy(seed):
    rows = _sparse_signs(random.Random(seed), 20, 60)
    factors = smith_normal_form(rows, 60)
    assert factors == sympy_factors(rows, 60)
    assert in_divisibility_order(factors)


def test_large_sparse_sign_matrix_is_unimodular():
    # sympy agrees, but takes minutes on this matrix, so the value is pinned
    rows = _sparse_signs(random.Random(3), 126, 560)
    assert smith_normal_form(rows, 560) == [1] * 126


@pytest.mark.parametrize("K, max_dim, shapes", [
    (tensor_complex(c_delta(2), c_delta(2)), 2, [(0, 9), (87, 75), (373, 198)]),
    (c_delta(3), 3, [(0, 4), (10, 15), (25, 23), (33, 24)]),
], ids=["delta2xdelta2", "delta3"])
def test_relation_matrices_of_the_counit_match_sympy(monkeypatch, K, max_dim, shapes):
    seen = []
    snf = linalg.smith_normal_form

    def recording(rows, ncols):
        seen.append(([list(r) for r in rows], ncols))
        return snf(rows, ncols)

    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    lambda_of_nu(K, max_dim)
    assert [(len(rows), ncols) for rows, ncols in seen] == shapes
    for rows, ncols in seen:
        factors = snf(rows, ncols)
        assert factors == sympy_factors(rows, ncols)
        assert in_divisibility_order(factors)


def test_unit_pivots_come_first_in_divisibility_order():
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 1]], 3) == [1, 1, 6]
    assert smith_normal_form([[0, 4], [6, 0], [0, 0]], 2) == [2, 12]
    assert smith_normal_form([], 3) == []


def test_ragged_matrix_is_rejected():
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 0], [1]], 2)
