"""Tensor product of directed complexes and pushouts along rigid inclusions.

Tensor basis tokens are written "a(x)b"; pushout tokens are namespaced
"K:" / "L:", with base tokens identified to their left-leg image so the
amalgamated basis is deterministic.  A pushout fixes, when it is built, the
positions its co-pairing gathers from the images of the two legs, so
``induced`` builds no dict and looks up no token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .chains import (
    AdcMorphism,
    Chain,
    DirComplex,
    _gather,
    images_in_basis_order,
    strong_preorder_is_total,
)
from .simplex import c_delta

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
    images = {
        tensor_token(a, b): tensor_chains(fa, gb)
        for a, fa in zip(f.source.index, f.images)
        for b, gb in zip(g.source.index, g.images)
    }
    return AdcMorphism(src, dst, images_in_basis_order(src, images))


def left_unitor(K):
    """The isomorphism cDelta(0) (x) K -> K."""
    return AdcMorphism(tensor_complex(c_delta(0), K), K, K.row[:len(K.index)])


def tensor_injection(K, L, end_token):
    """The inclusion L -> K (x) L at a degree-0 basis token of K."""
    T = tensor_complex(K, L)
    return AdcMorphism(L, T, tuple(
        Chain.unit(p, tensor_token(end_token, b)) for b, p in L.graded()
    ))


def rigid_mono_check(f):
    """True iff f is injective and sends basis elements to basis elements."""
    seen = set()
    for image in f.images:
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
    co-pairing with a pair of morphisms agreeing on the base.  ``plan``
    gathers the images of each pushout token, in its basis order, from u's
    images followed by v's; ``glue`` gathers the images of the base's
    generators from u's and from v's.
    """

    complex: DirComplex
    left: AdcMorphism
    right: AdcMorphism
    plan: object = field(compare=False, repr=False)
    glue: tuple = field(compare=False, repr=False)

    def induced(self, u, v):
        if u.source != self.left.source or v.source != self.right.source:
            raise ValueError("co-pairing legs have wrong sources")
        if u.target != v.target:
            raise ValueError("co-pairing legs have different targets")
        # the legs f, g are rigid, so u . f = v . g generator by generator
        if self.glue[0](u.images) != self.glue[1](v.images):
            raise ValueError("co-pairing legs disagree on the base")
        return AdcMorphism(self.complex, u.target, self.plan(u.images + v.images))


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

    glued = {y.coeffs[0][0]: "K:" + x.coeffs[0][0] for x, y in zip(f.images, g.images)}
    sides = ((K, lambda t: "K:" + t), (L, lambda t: glued.get(t, "L:" + t)))

    dim = max(K.dim, L.dim)
    basis = [[] for _ in range(dim + 1)]
    sources = [[] for _ in range(dim + 1)]
    diff = {}
    aug = {}
    for side, (X, name_of) in enumerate(sides):
        offset = side * len(K.index)
        for token, p in X.graded():
            if side and token in glued:
                continue
            name = name_of(token)
            basis[p].append(name)
            sources[p].append(offset + X.index[token])
            if p == 0:
                aug[name] = X.aug_of(token)
            else:
                diff[name] = Chain.make(
                    p - 1, [(name_of(t), c) for t, c in X.diff_of(token).items()]
                )
    P = DirComplex(basis, diff, aug)
    left, right = (
        AdcMorphism(X, P, _gather([P.index[name_of(t)] for t in X.index])(P.row))
        for X, name_of in sides
    )
    plan = _gather([i for level in sources for i in level])
    glue = (f.plan.gather, g.plan.gather)
    return Pushout(P, left, right, plan, glue)
