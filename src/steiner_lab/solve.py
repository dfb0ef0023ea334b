"""Enumeration of positive chains under linear boundary constraints.

The recurring question is: which positive degree-p chains z satisfy
d(z) = w (or, in degree 0, e(z) = w)?  Over a strongly loop-free complex the
solution set is finite and can be enumerated exactly, without an a-priori
coefficient bound, by peeling the constraint from the top of a linear
extension of the generating precedence order: every generator's
differential attains its order-maximal support element with positive sign,
so the residual at the current top coordinate must be produced by the
finitely many generators whose differential tops out there.

The peel runs on integer positions: the coordinates are numbered from the
top, the residual is one list of ints updated in place and restored on
backtrack, and each solution is built directly in canonical form.

When no such certificate exists (cyclic precedence, zero differentials,
non-positive augmentations) enumeration tries all (bound+1)^|basis_p|
coefficient vectors and flags the result as possibly incomplete.  A
coefficient bound on a certified solve drops the solutions above it, and
flags the result so whenever it drops one.

Cell, slice and nerve enumerations ask the same question many times, so each
complex keeps its answers in ``K._strong_cache["solved"]``, keyed by degree,
target and coefficient bound.  The memo is bounded: past ``SOLVE_MEMO_SIZE``
entries it drops the oldest one.  Errors are raised again on every call,
never stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chains import Chain, strong_loopfree_order

# Solutions kept per complex: all-dimension cells of Δ3⊗Δ2 need 1,934.
SOLVE_MEMO_SIZE = 4096


class SolverError(ValueError):
    pass


@dataclass(frozen=True)
class SolveResult:
    chains: tuple[Chain, ...]
    complete: bool


def _peel_data(K, p):
    """Peeling certificate for degree-p solves, or None.

    Returns (index, groups).  ``index`` numbers the degree-(p-1) coordinates
    in descending rank of a linear extension of the precedence order (None
    in degree 0, whose one coordinate is the augmentation).  ``groups[r]``
    lists, as (token, top coefficient, other (position, coefficient) pairs),
    the generators whose column tops out at position r; the other positions
    all lie above r.  Requires every degree-p generator's constraint column
    to be nonzero with a positive coefficient at its maximal coordinate.
    """
    cache = K._strong_cache.setdefault("peel", {})
    if p in cache:
        return cache[p]
    data = None
    if p == 0:
        if all(K.aug_of(t) > 0 for t in K.tokens(0)):
            data = (None, (tuple((t, K.aug_of(t), ()) for t in K.tokens(0)),))
    else:
        order = strong_loopfree_order(K)
        if order is not None:
            rank = {t: i for i, t in enumerate(order) if K.degree_of(t) == p - 1}
            coords = sorted(K.tokens(p - 1), key=rank.__getitem__, reverse=True)
            index = {t: r for r, t in enumerate(coords)}
            groups = [[] for _ in coords]
            for t in K.tokens(p):
                col = sorted((index[c], a) for c, a in K.diff_of(t).coeffs)
                if not col or col[0][1] <= 0:
                    break
                (top, a), others = col[0], tuple(col[1:])
                groups[top].append((t, a, others))
            else:
                data = (index, tuple(map(tuple, groups)))
    cache[p] = data
    return data


def _peel_solve(p, groups, residual):
    """The positive degree-p chains peeled from ``residual``, a list of the
    target's coefficients by position.  The list is updated in place and
    restored on backtrack."""
    n = len(groups)
    solutions = []
    picked = []

    def descend(r):
        while r < n and not residual[r]:
            r += 1  # top coefficients are positive: a zero need picks nothing here
        if r == n:
            solutions.append(Chain(p, tuple(sorted(picked))))
        elif residual[r] > 0 and groups[r]:
            take(r, groups[r], 0, residual[r])

    def take(r, group, g, need):
        token, a, others = group[g]
        last = g + 1 == len(group)
        if last:
            z, rest = divmod(need, a)
            if rest:
                return
            zs = (z,)
        else:
            zs = range(need // a + 1)
        for z in zs:
            if z:
                for i, c in others:
                    residual[i] -= c * z
                picked.append((token, z))
            if last:
                descend(r + 1)
            else:
                take(r, group, g + 1, need - a * z)
            if z:
                for i, c in others:
                    residual[i] += c * z
                picked.pop()

    descend(0)
    return solutions


def _bounded_solve(K, p, target, bound):
    """Every positive degree-p chain z with coefficients at most ``bound``
    and d(z) = target (e(z) = target in degree 0): each of the
    (bound+1)^|basis_p| coefficient vectors is tried."""
    tokens = K.tokens(p)
    measure = K.d if p else K.e
    vectors = itertools.product(range(bound + 1), repeat=len(tokens))
    chains = (Chain.make(p, zip(tokens, cs)) for cs in vectors)
    return [z for z in chains if measure(z) == target]


def solve_boundary(K, p, target, bound=None):
    """All positive degree-p chains z of K with d(z) = target (p >= 1).

    ``target`` is a degree-(p-1) chain.  Returns a SolveResult whose
    ``complete`` flag certifies that no solution exists outside the returned
    list, so a coefficient bound that drops a solution clears it.
    """
    if p < 1:
        raise ValueError("use solve_augmentation in degree 0")
    if target.degree != p - 1:
        raise ValueError("target degree mismatch")
    return _memo_solve(K, p, target, bound)


def solve_augmentation(K, value, bound=None):
    """All positive degree-0 chains z of K with e(z) = value."""
    return _memo_solve(K, 0, value, bound)


def _memo_solve(K, p, target, bound):
    """``target`` is the boundary chain for p >= 1, the augmentation value for p = 0."""
    memo = K._strong_cache.setdefault("solved", {})
    key = (p, target, bound)
    result = memo.get(key)
    if result is None:
        if bound is not None and bound < 0:
            raise ValueError(f"coefficient bound must be non-negative, got {bound}")
        result = _dispatch(K, p, target, bound)
        if len(memo) >= SOLVE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = result
    return result


def _dispatch(K, p, target, bound):
    data = _peel_data(K, p)
    if data is not None:
        index, groups = data
        if p:
            residual = [0] * len(groups)
            for t, c in target.coeffs:
                if t not in index:
                    return SolveResult((), True)
                residual[index[t]] = c
        else:
            residual = [target]
        chains = _peel_solve(p, groups, residual)
        complete = True
        if bound is not None:
            kept = [z for z in chains if all(c <= bound for _, c in z.coeffs)]
            complete = len(kept) == len(chains)
            chains = kept
    else:
        if bound is None:
            raise SolverError(
                "no completeness certificate for this complex; "
                "a coefficient bound is required"
            )
        chains = _bounded_solve(K, p, target, bound)
        complete = False
    chains.sort(key=lambda z: z.coeffs)
    return SolveResult(tuple(chains), complete)
