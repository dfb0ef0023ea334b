"""Enumeration of positive chains under linear boundary constraints.

The recurring question is: which positive degree-p chains z satisfy
d(z) = w (or, in degree 0, e(z) = w)?  Over a strongly loop-free complex the
solution set is finite and can be enumerated exactly, without an a-priori
coefficient bound, by peeling the constraint from the top of a linear
extension of the generating precedence order: every generator's
differential attains its order-maximal support element with positive sign,
so the residual at the current top coordinate must be produced by the
finitely many generators whose differential tops out there.

When no such certificate exists (cyclic precedence, zero differentials,
non-positive augmentations) enumeration falls back to a bounded search and
the result is flagged as possibly incomplete.

Cell, slice and nerve enumerations ask the same question many times, so each
complex keeps its answers in ``K._strong_cache["solved"]``, keyed by degree,
target and coefficient bound.  The memo is bounded: past ``SOLVE_MEMO_SIZE``
entries it drops the oldest one.  Errors are raised again on every call,
never stored.
"""

from __future__ import annotations

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


def _compositions(total, weights, cap):
    """All (z_1..z_k) >= 0 with sum weights[i]*z_i == total and z_i <= cap."""
    if total < 0:
        return
    if not weights:
        if total == 0:
            yield ()
        return
    w = weights[0]
    top = total // w
    if cap is not None:
        top = min(top, cap)
    for z in range(top + 1):
        for rest in _compositions(total - w * z, weights[1:], cap):
            yield (z,) + rest


def _peel_data(K, p):
    """Peeling certificate for degree-p solves, or None.

    Returns (ranked coordinate list descending, groups) where groups maps a
    coordinate to the list of (token, top coefficient, column) peeled there.
    Requires every degree-p generator's constraint column to be nonzero with
    a positive coefficient at its maximal coordinate.
    """
    cache = K._strong_cache.setdefault("peel", {})
    if p in cache:
        return cache[p]
    data = None
    if p == 0:
        if all(K.aug_of(t) > 0 for t in K.tokens(0)):
            groups = {"": [(t, K.aug_of(t), {"": K.aug_of(t)}) for t in K.tokens(0)]}
            data = ([""], groups)
    else:
        order = strong_loopfree_order(K)
        if order is not None:
            rank = {
                el.token: i for i, el in enumerate(order) if el.degree == p - 1
            }
            groups = {}
            ok = True
            for t in K.tokens(p):
                col = dict(K.diff_of(t).items())
                if not col:
                    ok = False
                    break
                top = max(col, key=rank.__getitem__)
                if col[top] <= 0:
                    ok = False
                    break
                groups.setdefault(top, []).append((t, col[top], col))
            if ok:
                coords = sorted(K.tokens(p - 1), key=rank.__getitem__, reverse=True)
                data = (coords, groups)
    cache[p] = data
    return data


def _peel_solve(coords, groups, target, cap):
    solutions = []

    def descend(idx, residual, picked):
        if idx == len(coords):
            if not residual:
                solutions.append(picked)
            return
        coord = coords[idx]
        need = residual.get(coord, 0)
        group = groups.get(coord, [])
        if not group:
            if need == 0:
                descend(idx + 1, residual, picked)
            return
        weights = [a for _, a, _ in group]
        for combo in _compositions(need, weights, cap):
            new_residual = {c: v for c, v in residual.items() if c != coord}
            new_picked = dict(picked)
            for (token, _, col), z in zip(group, combo):
                if z:
                    new_picked[token] = z
                    for c, a in col.items():
                        if c == coord:
                            continue
                        v = new_residual.get(c, 0) - a * z
                        if v:
                            new_residual[c] = v
                        else:
                            new_residual.pop(c, None)
            descend(idx + 1, new_residual, new_picked)

    descend(0, {t: c for t, c in target.items() if c}, {})
    return solutions


def _bounded_solve(K, p, target, bound):
    tokens = list(K.tokens(p))
    cols = []
    for t in tokens:
        if p == 0:
            cols.append({"": K.aug_of(t)})
        else:
            cols.append(dict(K.diff_of(t).items()))
    solutions = []

    def descend(idx, residual, picked):
        if idx == len(tokens):
            if not residual:
                solutions.append(dict(picked))
            return
        col = cols[idx]
        for z in range(bound + 1):
            if z:
                picked[tokens[idx]] = z
            new_res = dict(residual)
            for c, a in col.items():
                v = new_res.get(c, 0) - a * z
                if v:
                    new_res[c] = v
                else:
                    new_res.pop(c, None)
            descend(idx + 1, new_res, picked)
        picked.pop(tokens[idx], None)

    descend(0, {t: c for t, c in target.items() if c}, {})
    return solutions


def solve_boundary(K, p, target, bound=None):
    """All positive degree-p chains z of K with d(z) = target (p >= 1).

    ``target`` is a degree-(p-1) chain.  Returns a SolveResult whose
    ``complete`` flag certifies that no solution exists outside the returned
    list (after the optional coefficient bound has been applied).
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
        raw = dict(target.items()) if p else ({"": target} if target else {})
        result = _dispatch(K, p, raw, bound)
        if len(memo) >= SOLVE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = result
    return result


def _dispatch(K, p, target, bound):
    data = _peel_data(K, p)
    if data is not None:
        coords, groups = data
        raw = _peel_solve(coords, groups, target, None)
        chains = [Chain.make(p, sol) for sol in raw]
        if bound is not None:
            chains = [
                z for z in chains if all(c <= bound for _, c in z.items())
            ]
        complete = True
    else:
        if bound is None:
            raise SolverError(
                "no completeness certificate for this complex; "
                "a coefficient bound is required"
            )
        raw = _bounded_solve(K, p, target, bound)
        chains = [Chain.make(p, sol) for sol in raw]
        complete = False
    chains.sort(key=lambda z: z.coeffs)
    return SolveResult(tuple(chains), complete)
