"""Exact integer Smith normal form, for presenting finitely generated
abelian groups by generators and relations.

``smith_normal_form`` keeps the rows as dicts ``{col: value}`` with an index
from each column to the rows holding it, and runs one loop.  The pivot is an
entry of least |v|, ties broken by least Markowitz cost
``(len(row)-1)*(len(col)-1)``.  Floor-quotient row operations bring every
other entry of its column into [0, |v|) (or (-|v|, 0], by the sign of v).  If
that clears the column, the column operations that reduce the pivot row
modulo v touch no other row; if they clear the row too, A ~ (v) (+) A' and
the pivot is moved to the diagonal.  Any remainder left is smaller than |v|
and becomes a later pivot, so every step either moves a pivot to the
diagonal or lowers the least |entry|, and the loop ends.  Entries may grow
meanwhile; Python integers keep everything exact.

A unit pivot always clears its row and column at once, so a matrix that keeps
some unit entry until it is empty, like the relation matrices of the cell
census, is reduced by unit pivots in Markowitz order alone.  The non-unit
diagonal is put in divisibility order by diag(a, b) ~ diag(gcd, lcm).
"""

from __future__ import annotations

from math import gcd, inf


def smith_normal_form(rows, ncols):
    """Invariant factors (d_1 | d_2 | ...) of an integer matrix.

    Returns the nonzero diagonal entries, each positive, in divisibility
    order: one 1 per unit pivot, then the gcd/lcm fold of the |v| of the
    non-unit pivots.
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
    diagonal = []
    while sparse:
        least = best = inf
        for i, row in sparse.items():
            width = len(row) - 1
            for j, v in row.items():
                size = v if v > 0 else -v
                if size <= least:
                    cost = width * (len(at_col[j]) - 1)
                    if size < least or cost < best:
                        pivot, least, best = (i, j, v), size, cost
            if least == 1 and best == 0:
                break
        pi, pj, v = pivot
        prow = sparse[pi]
        for i in [i for i in at_col[pj] if i != pi]:
            row = sparse[i]
            q = row[pj] // v
            for j, a in prow.items():
                new = row.get(j, 0) - q * a
                if new:
                    if j not in row:
                        at_col[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    at_col[j].discard(i)
            if not row:
                del sparse[i]
        if len(at_col[pj]) > 1:
            continue  # remainders below |v| are left in the pivot column
        if least > 1:
            for j in [j for j in prow if j != pj]:
                prow[j] %= v
                if not prow[j]:
                    del prow[j]
                    at_col[j].discard(pi)
            if len(prow) > 1:
                continue  # remainders below |v| are left in the pivot row
            diagonal.append(least)
        else:
            units += 1
        del sparse[pi]
        for j in prow:
            at_col[j].discard(pi)
    for k, a in enumerate(diagonal):
        for m in range(k + 1, len(diagonal)):
            b = diagonal[m]
            g = gcd(a, b)
            diagonal[m] = a // g * b
            a = g
        diagonal[k] = a
    return [1] * units + diagonal


def abelian_invariants(num_generators, relation_rows):
    """(free rank, torsion factors > 1) of <g_1..g_n | rows = 0>."""
    factors = smith_normal_form(relation_rows, num_generators)
    rank = num_generators - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return rank, torsion
