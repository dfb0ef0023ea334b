"""Exhaustive omega-category axiom checks over an enumerated cell table."""

import itertools

from steiner_lab import (
    compose,
    identity,
    source,
    source_iter,
    target,
    target_iter,
)
from steiner_lab.cells import composable


def globularity_failures(cells):
    out = []
    for c in cells:
        # the closed forms s_j, t_j against the one-step maps applied dim - j times
        s = t = c
        for j in reversed(range(c.dim)):
            s, t = source(s), target(t)
            if source_iter(c, j) != s:
                out.append(("s_j=s^(dim-j)", c, j))
            if target_iter(c, j) != t:
                out.append(("t_j=t^(dim-j)", c, j))
        if c.dim < 2:
            continue
        if source(source(c)) != source(target(c)):
            out.append(("ss=st", c))
        if target(source(c)) != target(target(c)):
            out.append(("ts=tt", c))
    return out


def composable_pairs(cells, j):
    by_target = {}
    for y in cells:
        if y.dim > j:
            by_target.setdefault(target_iter(y, j), []).append(y)
    for x in cells:
        if x.dim <= j:
            continue
        for y in by_target.get(source_iter(x, j), []):
            yield x, y


def unit_law_failures(cells):
    out = []
    for x in cells:
        if x.dim == 0:
            continue
        for j in range(x.dim):
            if compose(x, identity(source_iter(x, j)), j) != x:
                out.append(("right unit", x, j))
            if compose(identity(target_iter(x, j)), x, j) != x:
                out.append(("left unit", x, j))
    return out


def associativity_failures(cells):
    out = []
    for j in range(max((c.dim for c in cells), default=0)):
        pairs = list(composable_pairs(cells, j))
        by_target = {}
        for y in cells:
            if y.dim > j:
                by_target.setdefault(target_iter(y, j), []).append(y)
        for x, y in pairs:
            for z in by_target.get(source_iter(y, j), []):
                lhs = compose(compose(x, y, j), z, j)
                rhs = compose(x, compose(y, z, j), j)
                if lhs != rhs:
                    out.append(("associativity", x, y, z, j))
    return out


def interchange_failures(cells):
    out = []
    dims = max((c.dim for c in cells), default=0)
    for j in range(1, dims):
        for k in range(j):
            j_pairs = list(composable_pairs(cells, j))
            for (x, y), (z, w) in itertools.product(j_pairs, repeat=2):
                if not composable(x, z, k) or not composable(y, w, k):
                    continue
                if source_iter(compose(x, y, j), k) != target_iter(
                    compose(z, w, j), k
                ):
                    continue
                lhs = compose(compose(x, y, j), compose(z, w, j), k)
                rhs = compose(compose(x, z, k), compose(y, w, k), j)
                if lhs != rhs:
                    out.append(("interchange", x, y, z, w, j, k))
    return out


def identity_functor_failures(cells):
    out = []
    for j in range(max((c.dim for c in cells), default=0)):
        for x, y in composable_pairs(cells, j):
            if identity(compose(x, y, j)) != compose(identity(x), identity(y), j):
                out.append(("identity functoriality", x, y, j))
    return out


def all_axiom_failures(cells):
    return (
        globularity_failures(cells)
        + unit_law_failures(cells)
        + associativity_failures(cells)
        + interchange_failures(cells)
        + identity_functor_failures(cells)
    )
