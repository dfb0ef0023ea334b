"""Tensor product of directed complexes and pushouts along rigid inclusions.

Tensor basis tokens are written "a(x)b"; pushout tokens are namespaced
"K:" / "L:", with base tokens identified to their left-leg image so the
amalgamated basis is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .chains import (
    AdcMorphism,
    Chain,
    DirComplex,
    strong_preorder_is_total,
)

TENSOR_SEP = "(x)"

# Distinct factor pairs kept by tensor_complex; verify_suite(2, 3) uses 4.
TENSOR_CACHE_SIZE = 64


def tensor_token(a, b):
    return f"{a}{TENSOR_SEP}{b}"


def tensor_chains(x, y):
    """Bilinear product of chains, landing in degree x.degree + y.degree."""
    return Chain.make(
        x.degree + y.degree,
        [
            (tensor_token(a, b), ca * cb)
            for a, ca in x.items()
            for b, cb in y.items()
        ],
    )


@lru_cache(maxsize=TENSOR_CACHE_SIZE)
def tensor_complex(K, L):
    """Tensor product: product basis, Koszul-sign differential, product augmentation.

    d(a(x)b) = d(a)(x)b + (-1)^deg(a) a(x)d(b), e(a(x)b) = e(a)e(b).
    """
    dim = K.dim + L.dim
    basis = [[] for _ in range(dim + 1)]
    diff = {}
    aug = {}
    for p in K.degrees():
        for a in K.tokens(p):
            for q in L.degrees():
                for b in L.tokens(q):
                    token = tensor_token(a, b)
                    basis[p + q].append(token)
                    if p + q == 0:
                        aug[token] = K.aug_of(a) * L.aug_of(b)
                        continue
                    d = Chain.zero(p + q - 1)
                    if p > 0:
                        d = d + tensor_chains(K.diff_of(a), Chain.unit(q, b))
                    if q > 0:
                        d = d + (-1) ** p * tensor_chains(Chain.unit(p, a), L.diff_of(b))
                    diff[token] = d
    return DirComplex(basis, diff, aug)


def tensor_morphism(f, g):
    """Functoriality of the tensor: (f(x)g)(a(x)b) = f(a)(x)g(b), bilinearly."""
    src = tensor_complex(f.source, g.source)
    dst = tensor_complex(f.target, g.target)
    images = {}
    for p in f.source.degrees():
        for a in f.source.tokens(p):
            fa = f.image_of(a)
            for q in g.source.degrees():
                for b in g.source.tokens(q):
                    images[tensor_token(a, b)] = tensor_chains(fa, g.image_of(b))
    return AdcMorphism(src, dst, images)


def left_unitor(K):
    """The isomorphism cDelta(0) (x) K -> K."""
    from .simplex import c_delta

    point = c_delta(0)
    T = tensor_complex(point, K)
    images = {}
    for p in K.degrees():
        for b in K.tokens(p):
            images[tensor_token("0", b)] = K.unit_chain(b)
    return AdcMorphism(T, K, images)


def tensor_injection(K, L, end_token):
    """The inclusion L -> K (x) L at a degree-0 basis token of K."""
    T = tensor_complex(K, L)
    images = {
        b: Chain.unit(p, tensor_token(end_token, b))
        for p in L.degrees()
        for b in L.tokens(p)
    }
    return AdcMorphism(L, T, images)


def rigid_mono_check(f):
    """True iff f is injective and sends basis elements to basis elements."""
    seen = set()
    for p in f.source.degrees():
        for token in f.source.tokens(p):
            image = f.image_of(token)
            if len(image.items()) != 1 or image.items()[0][1] != 1:
                return False
            target_token = image.items()[0][0]
            if target_token in seen:
                return False
            seen.add(target_token)
    return True


class PushoutPreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class Pushout:
    """Amalgamated sum of complexes along rigid inclusions of a common base.

    ``left``/``right`` are the canonical injections; ``induced(u, v)`` is the
    co-pairing with a pair of morphisms agreeing on the base.  It reads
    ``plan``, the (token, side: 0 for K and 1 for L, token of that side) of
    each pushout token, and ``glue``, the leg images of each base token.
    """

    base: DirComplex
    complex: DirComplex
    left: AdcMorphism
    right: AdcMorphism
    left_leg: AdcMorphism
    right_leg: AdcMorphism
    plan: tuple = field(compare=False, repr=False)
    glue: tuple = field(compare=False, repr=False)

    def induced(self, u, v):
        if u.source != self.left.source or v.source != self.right.source:
            raise ValueError("co-pairing legs have wrong sources")
        if u.target != v.target:
            raise ValueError("co-pairing legs have different targets")
        legs = (u._images, v._images)
        # the legs are rigid, so u . left_leg = v . right_leg token by token
        if any(legs[0][a] != legs[1][b] for a, b in self.glue):
            raise ValueError("co-pairing legs disagree on the base")
        return AdcMorphism(self.complex, u.target, {
            token: legs[side][orig] for token, side, orig in self.plan
        })


def pushout_complex(f, g):
    """Pushout of K <- M -> L along rigid monomorphisms with totally ordered base.

    Basis: all of K's generators (namespaced "K:") plus L's generators not
    hit by g ("L:"); g-images are renamed to their K-side partners, so the
    per-degree basis count is |B_K| + |B_L| - |B_M|.
    """
    if not rigid_mono_check(f):
        raise PushoutPreconditionError("left leg is not a rigid monomorphism")
    if not rigid_mono_check(g):
        raise PushoutPreconditionError("right leg is not a rigid monomorphism")
    if f.source != g.source:
        raise PushoutPreconditionError("legs do not share a base complex")
    M, K, L = f.source, f.target, g.target
    if not strong_preorder_is_total(M):
        raise PushoutPreconditionError(
            "the precedence order of the base complex is not total"
        )

    glue = tuple(
        (f.image_of(m).items()[0][0], g.image_of(m).items()[0][0])
        for p in M.degrees()
        for m in M.tokens(p)
    )
    glued = {b: "K:" + a for a, b in glue}
    sides = ((K, lambda t: "K:" + t), (L, lambda t: glued.get(t, "L:" + t)))

    dim = max(K.dim, L.dim)
    basis = [[] for _ in range(dim + 1)]
    plans = [[] for _ in range(dim + 1)]
    diff = {}
    aug = {}
    for side, (X, name_of) in enumerate(sides):
        for p in X.degrees():
            for token in X.tokens(p):
                if side and token in glued:
                    continue
                name = name_of(token)
                basis[p].append(name)
                plans[p].append((name, side, token))
                if p == 0:
                    aug[name] = X.aug_of(token)
                else:
                    diff[name] = Chain.make(
                        p - 1, [(name_of(t), c) for t, c in X.diff_of(token).items()]
                    )
    P = DirComplex(basis, diff, aug)
    left, right = (
        AdcMorphism(X, P, {t: Chain.unit(p, name_of(t)) for p in X.degrees() for t in X.tokens(p)})
        for X, name_of in sides
    )
    plan = tuple(entry for level in plans for entry in level)
    return Pushout(M, P, left, right, f, g, plan, glue)
