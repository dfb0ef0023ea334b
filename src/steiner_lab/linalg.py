"""Exact integer Smith normal form, for presenting finitely generated
abelian groups by generators and relations.

``smith_normal_form`` runs every matrix through two stages.

1. Sparse unit pivots.  The rows become dicts ``{col: value}`` with an
   index from each column to the rows holding it.  While some entry is
   +-1, the one of least Markowitz cost ``(len(row)-1)*(len(col)-1)`` is
   the pivot: multiples of its row are subtracted from the other rows of
   its column, then its row and column are deleted and one factor 1 is
   counted.  The row operations are unimodular, and once the pivot column
   is clear the column operations that clear the pivot row touch no other
   row, so A ~ I_k (+) A'.
2. Dense finish.  The nonzero rows and columns of A' are compressed into a
   dense block and reduced by ``_dense_smith_normal_form``.

Relation matrices of cell presentations are almost empty and mostly unit,
so stage 1 usually leaves little or nothing for stage 2.
"""

from __future__ import annotations


def smith_normal_form(rows, ncols):
    """Invariant factors (d_1 | d_2 | ...) of an integer matrix.

    Returns the nonzero diagonal entries, each positive, in divisibility
    order: the k unit pivots of the sparse stage, then the factors of the
    dense residual.
    """
    sparse = {}
    at_col = {}
    for i, r in enumerate(rows):
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        row = {j: v for j, v in enumerate(r) if v}
        if row:
            sparse[i] = row
            for j in row:
                at_col.setdefault(j, set()).add(i)
    units = 0
    while True:
        pivot, best = None, None
        for i, row in sparse.items():
            for j, v in row.items():
                if v == 1 or v == -1:
                    cost = (len(row) - 1) * (len(at_col[j]) - 1)
                    if best is None or cost < best:
                        pivot, best = (i, j, v), cost
            if best == 0:
                break
        if pivot is None:
            break
        pi, pj, v = pivot
        prow = sparse.pop(pi)
        for j in prow:
            at_col[j].discard(pi)
        for i in at_col.pop(pj):
            row = sparse[i]
            q = row[pj] * v
            for j, a in prow.items():
                new = row.get(j, 0) - q * a
                if new:
                    if j not in row:
                        at_col[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    if j != pj:
                        at_col[j].discard(i)
            if not row:
                del sparse[i]
        units += 1
    cols = sorted(j for j, held in at_col.items() if held)
    block = [[row.get(j, 0) for j in cols] for row in sparse.values()]
    return [1] * units + _dense_smith_normal_form(block, len(cols))


def _dense_smith_normal_form(A, ncols):
    """Invariant factors of a dense rectangular matrix, reduced in place.

    Plain elementary-operation reduction with smallest-pivot selection;
    Python integers keep everything exact.
    """
    nrows = len(A)
    t = 0
    factors = []
    while t < nrows and t < ncols:
        # locate the smallest nonzero entry in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = A[i][j]
                if v and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        pi, pj, _ = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            # clear the pivot row
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # enforce divisibility towards the rest of the block
        d = abs(A[t][t])
        adjusted = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if A[i][j] % d:
                    A[t] = [a + b for a, b in zip(A[t], A[i])]
                    adjusted = True
                    break
            if adjusted:
                break
        if adjusted:
            continue
        factors.append(d)
        t += 1
    return factors


def abelian_invariants(num_generators, relation_rows):
    """(free rank, torsion factors > 1) of <g_1..g_n | rows = 0>."""
    factors = smith_normal_form(relation_rows, num_generators)
    rank = num_generators - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return rank, torsion
