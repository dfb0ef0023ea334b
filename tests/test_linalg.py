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


@pytest.fixture
def residuals(monkeypatch):
    """The nonempty dense blocks left over by the sparse unit-pivot stage."""
    blocks = []
    dense = linalg._dense_smith_normal_form

    def recording(A, ncols):
        if A:
            blocks.append((len(A), ncols))
        return dense(A, ncols)

    monkeypatch.setattr(linalg, "_dense_smith_normal_form", recording)
    return blocks


@pytest.mark.parametrize("seed", range(5))
def test_smith_normal_form_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows, ncols = _random_matrix(rng)
        factors = smith_normal_form(rows, ncols)
        assert sorted(factors) == sympy_factors(rows, ncols), rows
        assert in_divisibility_order(factors), (rows, factors)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_matrices_with_non_unit_residuals_match_sympy(seed, residuals):
    rng = random.Random(100 + seed)
    for _ in range(50):
        rows, ncols = _random_sparse_matrix(rng)
        factors = smith_normal_form(rows, ncols)
        assert sorted(factors) == sympy_factors(rows, ncols), rows
        assert in_divisibility_order(factors), (rows, factors)
    assert len(residuals) >= 10  # the dense finish was really exercised


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
