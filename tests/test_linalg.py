import random

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from steiner_lab.linalg import smith_normal_form


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


@pytest.mark.parametrize("seed", range(5))
def test_smith_normal_form_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows, ncols = _random_matrix(rng)
        reference = sympy_smith_normal_form(Matrix(rows), domain=ZZ)
        diagonal = [reference[i, i] for i in range(min(len(rows), ncols))]
        assert sorted(smith_normal_form(rows, ncols)) == sorted(
            abs(d) for d in diagonal if d != 0
        ), rows
