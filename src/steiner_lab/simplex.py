"""Monotone maps between standard simplices and their normalized chains.

The join of two simplices is handled purely by index arithmetic: the block
sum Delta(m) |_| Delta(n) is Delta(m+1+n), with the second block shifted by
m+1.  This is a disjoint sum of underlying ordered sets, not a categorical
coproduct, so no object-level construction is needed.

Precomposing a map f out of cDelta(n) with the chains of a monotone map
phi: Delta(m) -> Delta(n) only moves f's images around: ``precompose(f, phi)``
sends each simplex t to f(phi(t)), or to 0 where phi repeats a value on t.
It gathers through ``reindex_plan(phi)``, cached per phi (at most
``REINDEX_PLAN_CACHE_SIZE`` plans), and ``c_of_map(phi)`` is the gather of
an identity (at most ``C_OF_MAP_CACHE_SIZE`` maps).  Maps built here from
already-valid values skip ``MonotoneMap``'s checks.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache

from .chains import AdcMorphism, Chain, DirComplex, identity_morphism

# Distinct monotone maps kept by c_of_map and by reindex_plan; verify_suite(3, 3)
# asks c_of_map for 492 maps and reindex_plan for 10,732 plans.
C_OF_MAP_CACHE_SIZE = 4096
REINDEX_PLAN_CACHE_SIZE = 16384


@dataclass(frozen=True)
class MonotoneMap:
    """A weakly increasing map Delta(src) -> Delta(dst), given by its values; hashed once."""

    src: int
    dst: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.src + 1:
            raise ValueError("image list must have src+1 entries")
        if any(not 0 <= v <= self.dst for v in self.image):
            raise ValueError("image values out of range")
        if any(a > b for a, b in zip(self.image, self.image[1:])):
            raise ValueError("image list must be weakly increasing")
        self.__dict__["_hash"] = hash((self.src, self.dst, self.image))

    @classmethod
    def _trusted(cls, src, dst, image):
        """A map from values already known to be valid, without the checks."""
        phi = object.__new__(cls)
        phi.__dict__.update(src=src, dst=dst, image=image, _hash=hash((src, dst, image)))
        return phi

    def __hash__(self):
        return self._hash

    def __call__(self, k):
        return self.image[k]

    def compose(self, other):
        """self . other: apply ``other`` first."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        return MonotoneMap._trusted(other.src, self.dst, tuple(self.image[v] for v in other.image))


def identity_map(n):
    return MonotoneMap(n, n, tuple(range(n + 1)))


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


def join_maps(phi, psi):
    """Block-sum map Delta(m'+1+n') -> Delta(m+1+n): phi, then psi shifted by m+1."""
    image = phi.image + tuple(phi.dst + 1 + v for v in psi.image)
    return MonotoneMap._trusted(phi.src + 1 + psi.src, phi.dst + 1 + psi.dst, image)


def initial_inclusion(m, n):
    """i_{m,n}: Delta(m) -> Delta(m+1+n) onto the first block."""
    return MonotoneMap(m, m + 1 + n, tuple(range(m + 1)))


def final_inclusion(m, n):
    """j_{m,n}: Delta(n) -> Delta(m+1+n) onto the second block."""
    return MonotoneMap(n, m + 1 + n, tuple(m + 1 + l for l in range(n + 1)))


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
def _token_of(n):
    """cDelta(n)'s own tokens, keyed by their strictly increasing tuples,
    in the order of its basis."""
    K = c_delta(n)
    return {
        tup: token
        for p in K.degrees()
        for token, tup in zip(K.tokens(p), itertools.combinations(range(n + 1), p + 1))
    }


def simplex_morphism(n, target, image):
    """The map out of cDelta(n) sending each simplex, given as a strictly
    increasing tuple, to the chain ``image(tup)`` of ``target``."""
    return AdcMorphism(c_delta(n), target, {
        token: image(tup) for tup, token in _token_of(n).items()
    })


@lru_cache(maxsize=REINDEX_PLAN_CACHE_SIZE)
def reindex_plan(phi):
    """For each token t of cDelta(phi.src): t, its degree, and the token of
    phi(t) in cDelta(phi.dst), or None where phi repeats a value on t."""
    token_of = _token_of(phi.dst)
    return tuple(
        (token, p, token_of.get(values))
        for p in range(phi.src + 1)
        for token, values in zip(
            c_delta(phi.src).tokens(p), itertools.combinations(phi.image, p + 1)
        )
    )


def gather(f, source, plan):
    """The map out of ``source`` sending each token of ``plan`` to f's image
    of the token it names, or to 0 where it names None."""
    images = f._images
    zeros = [Chain.zero(p) for p in source.degrees()]
    return AdcMorphism(source, f.target, {
        token: zeros[p] if image is None else images[image] for token, p, image in plan
    })


def precompose(f, phi):
    """f . c(phi) for f out of cDelta(phi.dst), without building c(phi)."""
    if f.source != c_delta(phi.dst):
        raise ValueError("composition mismatch")
    return gather(f, c_delta(phi.src), reindex_plan(phi))


@lru_cache(maxsize=C_OF_MAP_CACHE_SIZE)
def c_of_map(phi):
    """The chain-level morphism of a monotone map; repeated values collapse a simplex to 0."""
    return precompose(identity_morphism(c_delta(phi.dst)), phi)
