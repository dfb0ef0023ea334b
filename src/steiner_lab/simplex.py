"""Monotone maps between standard simplices and their normalized chains.

The join of two simplices is handled purely by index arithmetic: the block
sum Delta(m) |_| Delta(n) is Delta(m+1+n), with the second block shifted by
m+1.  This is a disjoint sum of underlying ordered sets, not a categorical
coproduct, so no object-level construction is needed.

A simplicial operator phi: Delta(m) -> Delta(n) acts on a map f out of
cDelta(n) by precomposition, ``f.after(c_of_map(phi))``.  ``c_of_map(phi)``
sends each simplex t to the basis chain of phi(t), or to 0 where phi
repeats a value on t.  Its plan is read off the values of phi, through a
table from strictly increasing tuples to basis positions, and its images
are the gather of cDelta(n)'s ``row`` through that plan, so the chains are
shared by every map into it.  At most ``C_OF_MAP_CACHE_SIZE`` maps are kept.
Maps built here from already-valid values skip ``MonotoneMap``'s checks.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache

from .chains import AdcMorphism, Chain, DirComplex, plan_of

# Distinct monotone maps kept by c_of_map; verify_suite(3, 3) asks for 10,732.
C_OF_MAP_CACHE_SIZE = 16384

_set = object.__setattr__


class MonotoneMap:
    """A weakly increasing map Delta(src) -> Delta(dst), given by its values:
    immutable, hashed once, equal to a map with the same target and values."""

    __slots__ = ("src", "dst", "image", "_hash", "__weakref__")

    def __new__(cls, src, dst, image):
        if len(image) != src + 1:
            raise ValueError("image list must have src+1 entries")
        if any(not 0 <= v <= dst for v in image):
            raise ValueError("image values out of range")
        if any(a > b for a, b in zip(image, image[1:])):
            raise ValueError("image list must be weakly increasing")
        return cls._trusted(src, dst, image)

    @classmethod
    def _trusted(cls, src, dst, image):
        """A map from values already known to be valid, without the checks."""
        phi = object.__new__(cls)
        _set(phi, "src", src)
        _set(phi, "dst", dst)
        _set(phi, "image", image)
        _set(phi, "_hash", hash((src, dst, image)))
        return phi

    def __setattr__(self, name, value):
        raise AttributeError("MonotoneMap is immutable")

    def __eq__(self, other):
        return other.__class__ is MonotoneMap and self.dst == other.dst and self.image == other.image

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MonotoneMap(src={self.src!r}, dst={self.dst!r}, image={self.image!r})"

    def __call__(self, k):
        return self.image[k]

    def compose(self, other):
        """self . other: apply ``other`` first."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        return MonotoneMap._trusted(other.src, self.dst, tuple(self.image[v] for v in other.image))


def identity_map(n):
    return MonotoneMap._trusted(n, n, tuple(range(n + 1)))


def constant_map(m, n, value):
    return MonotoneMap(m, n, (value,) * (m + 1))


def face_map(n, i):
    """The injection Delta(n-1) -> Delta(n) skipping the value i."""
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    return MonotoneMap._trusted(n - 1, n, tuple(k if k < i else k + 1 for k in range(n)))


def degeneracy_map(n, i):
    """The surjection Delta(n+1) -> Delta(n) taking the value i twice."""
    if not 0 <= i <= n:
        raise ValueError("degeneracy index out of range")
    return MonotoneMap._trusted(n + 1, n, tuple(k if k <= i else k - 1 for k in range(n + 2)))


def vertex_map(n, value):
    return MonotoneMap(0, n, (value,))


def all_monotone_maps(m, n):
    """All weakly increasing maps Delta(m) -> Delta(n), in lexicographic order."""
    return [
        MonotoneMap._trusted(m, n, image)
        for image in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]


def _operators(bound):
    """(n, m, phi) for every monotone map phi: Delta(m) -> Delta(n) with
    m, n <= bound, n outermost, then m."""
    for n in range(bound + 1):
        for m in range(bound + 1):
            for phi in all_monotone_maps(m, n):
                yield n, m, phi


def join_maps(phi, psi):
    """Block-sum map Delta(m'+1+n') -> Delta(m+1+n): phi, then psi shifted by m+1."""
    image = phi.image + tuple(phi.dst + 1 + v for v in psi.image)
    return MonotoneMap._trusted(phi.src + 1 + psi.src, phi.dst + 1 + psi.dst, image)


def initial_inclusion(m, n):
    """i_{m,n}: Delta(m) -> Delta(m+1+n) onto the first block."""
    return MonotoneMap._trusted(m, m + 1 + n, tuple(range(m + 1)))


def final_inclusion(m, n):
    """j_{m,n}: Delta(n) -> Delta(m+1+n) onto the second block."""
    return MonotoneMap._trusted(n, m + 1 + n, tuple(range(m + 1, m + 2 + n)))


def simplex_token(tup):
    # interned, so the chains of every map share cDelta(n)'s token objects
    return sys.intern(",".join(str(i) for i in tup))


def token_simplex(token):
    return tuple(int(s) for s in token.split(","))


@lru_cache(maxsize=32)
def c_delta(n):
    """Normalized chains of the n-simplex as a directed complex.

    Degree-p basis: strictly increasing (p+1)-tuples in [0, n]; alternating
    face-deletion differential; augmentation 1 on every vertex.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    basis = [
        [simplex_token(t) for t in itertools.combinations(range(n + 1), p + 1)]
        for p in range(n + 1)
    ]
    diff = {}
    for p in range(1, n + 1):
        for tup in itertools.combinations(range(n + 1), p + 1):
            faces = {}
            for k in range(p + 1):
                face = tup[:k] + tup[k + 1:]
                faces[simplex_token(face)] = (-1) ** k
            diff[simplex_token(tup)] = Chain.make(p - 1, faces)
    aug = {str(v): 1 for v in range(n + 1)}
    return DirComplex(basis, diff, aug)


def simplex_chain(tup):
    """The basis chain of a strictly increasing tuple of vertices."""
    return Chain.unit(len(tup) - 1, simplex_token(tup))


@lru_cache(maxsize=32)
def _positions(n):
    """cDelta(n)'s basis positions, keyed by their strictly increasing tuples."""
    tuples = (t for p in range(n + 1) for t in itertools.combinations(range(n + 1), p + 1))
    return {tup: i for i, tup in enumerate(tuples)}


def simplex_morphism(n, target, image):
    """The map out of cDelta(n) sending each simplex, given as a strictly
    increasing tuple, to the chain ``image(tup)`` of ``target``."""
    return AdcMorphism(c_delta(n), target, tuple(map(image, _positions(n))))


@lru_cache(maxsize=C_OF_MAP_CACHE_SIZE)
def c_of_map(phi):
    """The chain-level morphism of a monotone map; repeated values collapse a simplex to 0.

    Its plan is read off the values: the position of phi(t) in cDelta(phi.dst),
    or, where phi repeats a value on t, that of the zero of t's degree."""
    get, end = _positions(phi.dst).get, len(_positions(phi.dst))
    plan = plan_of(tuple(itertools.chain.from_iterable(
        map(get, itertools.combinations(phi.image, p + 1), itertools.repeat(end + p))
        for p in range(phi.src + 1)
    )))
    target = c_delta(phi.dst)
    return AdcMorphism(c_delta(phi.src), target, plan.gather(target.row), plan)
