"""Truncated simplicial sets, the nerve via hom-enumeration, slices,
the shift homotopy, and the bisimplicial comparison object.

Simplicial sets are materialized as finite tables up to a dimension cap;
simplex records are canonical hashable values (monotone maps, complex
morphisms, pairs of those), so equality is syntactic.  Operators act
through a single ``act`` entry point memoized per space.

The n-simplices of a nerve are the morphisms out of cDelta(n), found by
``enumerate_morphisms``: it grows partial morphisms as tuples of images
and, since a generator's boundary constraint depends only on the images
of its faces, solves each generator once per distinct tuple of those.

A nerve simplex x of dimension n is acted on by phi: Delta(m) -> Delta(n)
through precomposition, ``x.after(c_of_map(phi))``.  A nerve also gives
each simplex of its levels an int code: the ids of its image chains in
cDelta(n)'s token order, then those of the zero chains, with ids kept per
nerve.  Since c(phi) sends each simplex to a basis chain or to 0, the code
of x.after(c(phi)) is a gather of x's code, ``_code_plan(phi, cap)``, and
is looked up among the coded simplices, so a hit builds, hashes and
compares no morphism.  Any other value, an operator past the cap or of
another dimension, and a code not seen yet are composed; a new result from
a coded simplex is coded then.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .chains import AdcMorphism, Chain, _combine
from .simplex import (
    MonotoneMap,
    all_monotone_maps,
    c_delta,
    c_of_map,
    degeneracy_map,
    face_map,
    identity_map,
    initial_inclusion,
    final_inclusion,
    join_maps,
)
from .solve import solve_augmentation, solve_boundary

# Distinct (phi, cap) whose gathers are kept; a nerve of cap 5 acts through
# at most 1,709 maps phi.
CODE_PLAN_CACHE_SIZE = 4096


def _through(through, cap):
    """The last level a check runs through: ``through``, or ``cap`` if None.
    A negative one would check nothing and pass, so it is refused."""
    through = cap if through is None else through
    if through < 0:
        raise ValueError(f"checks run through a non-negative level, got {through}")
    return through


class SimplicialSetTrunc:
    """A simplicial set known up to ``cap``: level lists plus the operator action.

    ``complete`` turns False once a level is built that may miss simplices.
    """

    def __init__(self, cap, level_fn, act_fn, label=""):
        self.cap = cap
        self.label = label
        self.complete = True
        self._level_fn = level_fn
        self._act_fn = act_fn
        self._levels = {}
        self._act_cache = {}
        self._intern = {}

    def simplices(self, n):
        if not 0 <= n <= self.cap:
            raise ValueError(f"dimension {n} beyond cap {self.cap}")
        if n not in self._levels:
            level = list(self._level_fn(n))
            self._levels[n] = [self._intern.setdefault(x, x) for x in level]
        return self._levels[n]

    def act(self, phi, x):
        key = (phi, x)
        cached = self._act_cache.get(key)
        if cached is None:
            # interning makes equal results one object, so comparing them is cheap
            result = self._act_fn(phi, x)
            cached = self._act_cache[key] = self._intern.setdefault(result, result)
        return cached

    def degenerate(self, n):
        """The degenerate n-simplices (images of degeneracy operators)."""
        if n == 0:
            return set()
        out = set()
        for i in range(n):
            sigma = degeneracy_map(n - 1, i)
            for y in self.simplices(n - 1):
                out.add(self.act(sigma, y))
        return out

    def counts(self, through=None):
        through = _through(through, self.cap)
        return [
            (n, len(self.simplices(n)), len(set(self.simplices(n)) - self.degenerate(n)))
            for n in range(through + 1)
        ]

    def identity_failures(self, through=None, generators_only=False):
        """Check functoriality: X(phi.psi) = X(psi) after X(phi).

        With ``generators_only`` the second factor ranges over faces and
        degeneracies only; since every operator factors into those, the
        restricted check still implies functoriality for all pairs.

        Each operator is applied once per simplex, through ``act``, into a
        table of ids: the id of a value is a position of it in its level,
        and values outside the level get fresh ids past its end, so equal
        ids mean equal values.
        """
        through = _through(through, self.cap)
        levels = [self.simplices(n) for n in range(through + 1)]
        values = [list(level) for level in levels]
        ids = [{x: i for i, x in enumerate(level)} for level in levels]

        def ident(k, y):
            n = len(values[k])
            i = ids[k].setdefault(y, n)
            if i == n:
                values[k].append(y)
            return i

        tables = {}

        def table(phi):
            """Ids of X(phi)(x) for x at the positions of level phi.dst."""
            if phi not in tables:
                tables[phi] = [ident(phi.src, self.act(phi, x)) for x in levels[phi.dst]]
            return tables[phi]

        failures = []
        for n in range(through + 1):
            for m in range(through + 1):
                for phi in all_monotone_maps(m, n):
                    if generators_only:
                        seconds = [face_map(m, i) for i in range(m + 1) if m >= 1]
                        if m + 1 <= through:
                            seconds += [degeneracy_map(m, i) for i in range(m + 1)]
                    else:
                        seconds = [
                            psi
                            for k in range(min(m + 1, through) + 1)
                            for psi in all_monotone_maps(k, m)
                        ]
                    first = table(phi)
                    for psi in seconds:
                        lhs = table(phi.compose(psi))
                        second = table(psi)
                        size = len(second)
                        rhs = [
                            second[j] if j < size
                            else ident(psi.src, self.act(psi, values[m][j]))
                            for j in first
                        ]
                        if lhs != rhs:
                            failures.extend(
                                (phi, psi, x)
                                for x, a, b in zip(levels[n], lhs, rhs)
                                if a != b
                            )
        return failures


@dataclass(frozen=True)
class SimplicialMap:
    src: SimplicialSetTrunc
    dst: SimplicialSetTrunc
    fn: object

    def __call__(self, n, x):
        return self.fn(n, x)


def identity_simplicial_map(X):
    return SimplicialMap(X, X, lambda n, x: x)


def simplicial_map_failures(f, through=None):
    """Commutation failures of f with all operators within the caps."""
    through = _through(through, min(f.src.cap, f.dst.cap))
    failures = []
    for n in range(through + 1):
        for m in range(through + 1):
            for phi in all_monotone_maps(m, n):
                for x in f.src.simplices(n):
                    if f(m, f.src.act(phi, x)) != f.dst.act(phi, f(n, x)):
                        failures.append((phi, x))
    return failures


def standard_simplex(N, cap):
    """The representable simplicial set on Delta(N), truncated."""
    return SimplicialSetTrunc(
        cap,
        lambda n: all_monotone_maps(n, N),
        lambda phi, x: x.compose(phi),
        label=f"Delta{N}",
    )


def point_space(cap):
    return standard_simplex(0, cap)


def _generator_order(src):
    """Process each generator as soon as its whole boundary is assigned,
    preferring high degrees, so face constraints prune the search early."""
    import heapq

    pending = {}
    dependents = {}
    heap = []
    for p in src.degrees():
        for token in src.tokens(p):
            deps = set(src.diff_of(token).support()) if p > 0 else set()
            pending[token] = deps
            for dep in deps:
                dependents.setdefault(dep, []).append(token)
            if not deps:
                heapq.heappush(heap, (-p, token))
    order = []
    while heap:
        _, token = heapq.heappop(heap)
        order.append(token)
        for other in dependents.get(token, []):
            deps = pending[other]
            deps.discard(token)
            if not deps:
                heapq.heappush(heap, (-src.degree_of(other), other))
    return order


def enumerate_morphisms(src, dst, fixed=None, coeff_bound=None):
    """All complex morphisms src -> dst, grown one generator at a time.

    ``fixed`` pins images of some source tokens.  A partial morphism is the
    tuple of its images in generator order.  A generator's candidates, pin
    applied, are solved once per distinct tuple of its faces' images.
    Returns (morphisms, complete), the morphisms sorted by images in token order.
    """
    fixed = fixed or {}
    complete = True
    order = _generator_order(src)
    position = {token: i for i, token in enumerate(order)}
    partials = [()]
    for token in order:
        p = src.degree_of(token)
        pin = fixed.get(token)
        faces = src.diff_of(token).items() if p else ()
        key_of = operator.itemgetter(*[position[t] for t, _ in faces]) if faces else lambda _: ()
        candidates = {}  # face images -> the images of token, as 1-tuples
        grown = []
        for partial in partials:
            key = key_of(partial)
            found = candidates.get(key)
            if found is None:
                if p == 0:
                    result = solve_augmentation(dst, src.aug_of(token), coeff_bound)
                else:
                    images = (key,) if len(faces) == 1 else key
                    target = _combine(p - 1, [(c, z[1]) for (_, c), z in zip(faces, images)])
                    result = solve_boundary(dst, p, target, coeff_bound)
                complete &= result.complete
                found = candidates[key] = [(z,) for z in result.chains if pin is None or z == pin]
            grown += [partial + z for z in found]
        partials = grown
    if order:
        partials.sort(key=operator.itemgetter(*[position[t] for t in sorted(order)]))
    morphisms = [AdcMorphism(src, dst, dict(zip(order, images))) for images in partials]
    return morphisms, complete


def hom_enumerate(n, K, coeff_bound=None):
    """All morphisms from the chains of the n-simplex into K."""
    morphisms, _ = enumerate_morphisms(c_delta(n), K, coeff_bound=coeff_bound)
    return morphisms


@lru_cache(maxsize=CODE_PLAN_CACHE_SIZE)
def _code_plan(phi, cap):
    """The gather from the code of a phi.dst-simplex, in a nerve of cap
    ``cap``, to the code of its image: for each token of cDelta(phi.src),
    the position of the token of its image under c(phi), or of the zero of
    its degree p (end + p) where that image is 0; then the zero ids.  An
    ``itemgetter`` gathers in C and builds the code at its final size."""
    tokens = itertools.chain.from_iterable(c_delta(phi.dst).basis)
    position = {token: i for i, token in enumerate(tokens)}
    end = len(position)
    c = c_of_map(phi)
    return operator.itemgetter(
        *(
            position[image.coeffs[0][0]] if image.coeffs else end + image.degree
            for image in map(c.image_of, itertools.chain.from_iterable(c.source.basis))
        ),
        *range(end, end + cap + 1),
    )


def nerve(K, cap, coeff_bound=None):
    """The nerve of nu(K): n-simplices are morphisms from the n-simplex chains.

    The chain ids of its codes (see the module docstring) are kept here,
    the zero chain of degree p seeded as id p.  Every code ends in the zero
    ids 0..cap, so a gather finds the zero of each degree up to the cap in
    any code.
    """
    if cap < 0:
        raise ValueError(f"nerve cap must be non-negative, got {cap}")
    zeros = tuple(range(cap + 1))
    ids = {Chain.zero(p): p for p in zeros}
    codes = {}  # simplex -> code
    coded = {}  # code -> simplex

    def register(x, code):
        x = coded.setdefault(code, x)
        codes.setdefault(x, code)
        return x

    def level(n):
        morphisms, complete = enumerate_morphisms(c_delta(n), K, coeff_bound=coeff_bound)
        N.complete &= complete
        tokens = list(itertools.chain.from_iterable(c_delta(n).basis))
        return [
            register(x, tuple(ids.setdefault(x.image_of(t), len(ids)) for t in tokens) + zeros)
            for x in morphisms
        ]

    def act(phi, x):
        code = codes.get(x)
        if code is None or phi.src > cap or x.source != c_delta(phi.dst):
            return x.after(c_of_map(phi))
        key = _code_plan(phi, cap)(code)
        y = coded.get(key)
        return register(x.after(c_of_map(phi)), key) if y is None else y

    N = SimplicialSetTrunc(cap, level, act, label=f"N({K!r})")
    return N


def nerve_map(f, src_nerve, dst_nerve):
    """The simplicial map induced on nerves by a complex morphism."""
    return SimplicialMap(src_nerve, dst_nerve, lambda n, x: f.after(x))


def simplex_facet(X, x, n, indices):
    """The facet x_{i_0..i_m} of an n-simplex, via the induced operator."""
    m = len(indices) - 1
    return X.act(MonotoneMap(m, n, tuple(indices)), x)


def under_slice(Y, y, m):
    """The under-slice: n-simplices are (m+1+n)-simplices whose initial
    m-face is y; operators act on the final block."""
    cap = Y.cap - m - 1
    if cap < 0:
        raise ValueError("cap exceeded: the slice needs deeper tables")
    return SimplicialSetTrunc(
        cap,
        lambda n: [
            yp
            for yp in Y.simplices(m + 1 + n)
            if Y.act(initial_inclusion(m, n), yp) == y
        ],
        lambda psi, yp: Y.act(join_maps(identity_map(m), psi), yp),
        label="under-slice",
    )


def under_slice_projection(Y, y, m, slice_space):
    return SimplicialMap(slice_space, Y, lambda n, yp: Y.act(final_inclusion(m, n), yp))


def over_slice(Y, y, m):
    """The over-slice: n-simplices are (n+1+m)-simplices whose final
    m-face is y; operators act on the initial block."""
    cap = Y.cap - m - 1
    if cap < 0:
        raise ValueError("cap exceeded: the slice needs deeper tables")
    return SimplicialSetTrunc(
        cap,
        lambda n: [
            yp
            for yp in Y.simplices(n + 1 + m)
            if Y.act(final_inclusion(n, m), yp) == y
        ],
        lambda psi, yp: Y.act(join_maps(psi, identity_map(m)), yp),
        label="over-slice",
    )


def over_slice_projection(Y, y, m, slice_space):
    return SimplicialMap(slice_space, Y, lambda n, yp: Y.act(initial_inclusion(n, m), yp))


def _pairs_over_final_face(u, m, n, candidates):
    """Pairs (y', x) of a candidate (m+1+n)-simplex y' of the target of
    u: X -> Y and an n-simplex x of X such that y' has final n-face u(x),
    listed by x, then by the order of the candidates."""
    X, Y = u.src, u.dst
    by_final = {}
    for yp in candidates:
        by_final.setdefault(Y.act(final_inclusion(m, n), yp), []).append(yp)
    return [(yp, x) for x in X.simplices(n) for yp in by_final.get(u(n, x), [])]


def map_under_slice(u, y, m):
    """The relative under-slice of a simplicial map u: X -> Y at an
    m-simplex y of Y: pairs (y', x) with initial face y and final face u(x)."""
    X, Y = u.src, u.dst
    cap = min(Y.cap - m - 1, X.cap)
    if cap < 0:
        raise ValueError("cap exceeded: the slice needs deeper tables")

    def level(n):
        candidates = (
            yp for yp in Y.simplices(m + 1 + n) if Y.act(initial_inclusion(m, n), yp) == y
        )
        return _pairs_over_final_face(u, m, n, candidates)

    def act(psi, pair):
        yp, x = pair
        return (Y.act(join_maps(identity_map(m), psi), yp), X.act(psi, x))

    return SimplicialSetTrunc(cap, level, act, label="relative under-slice")


@dataclass(frozen=True)
class ShiftContraction:
    """Contractibility data for an over-slice: section and homotopy.

    ``basepoint`` is the degenerate 0-simplex of the over-slice through x;
    ``homotopy(phi, x')`` interpolates between the identity (phi = 0) and
    the constant retraction (phi = 1).
    """

    space: SimplicialSetTrunc
    ambient: SimplicialSetTrunc
    simplex: object
    m: int

    @property
    def basepoint(self):
        sigma0 = degeneracy_map(self.m, 0)
        return self.ambient.act(sigma0, self.simplex)

    def section(self, n, xp):
        point = self.basepoint
        for k in range(n):
            point = self.space.act(degeneracy_map(k, 0), point)
        return point

    def homotopy(self, phi, xp):
        theta = _shift_reindex(phi, phi.src, self.m)
        return self.ambient.act(theta, xp)


def _shift_reindex(phi, m, n):
    """The endomorphism of Delta(m+1+n) folding the first block along phi."""
    image = []
    for i in range(m + 1):
        image.append(i if phi(i) == 0 else m + 1)
    image.extend(range(m + 1, m + 2 + n))
    return MonotoneMap(m + 1 + n, m + 1 + n, tuple(image))


def decalage_homotopy(X, x, n):
    """Contraction of the over-slice of X at an n-simplex x."""
    return ShiftContraction(over_slice(X, x, n), X, x, n)


class BisimplicialTrunc:
    """A bisimplicial set known up to caps in each direction."""

    def __init__(self, cap_m, cap_n, level_fn, act_fn, label=""):
        self.cap_m = cap_m
        self.cap_n = cap_n
        self.label = label
        self._level_fn = level_fn
        self._act_fn = act_fn
        self._levels = {}

    def simplices(self, m, n):
        if not (0 <= m <= self.cap_m and 0 <= n <= self.cap_n):
            raise ValueError(f"bidegree ({m},{n}) beyond caps")
        if (m, n) not in self._levels:
            self._levels[(m, n)] = list(self._level_fn(m, n))
        return self._levels[(m, n)]

    def act(self, phi, psi, x):
        return self._act_fn(phi, psi, x)

    def diagonal(self):
        cap = min(self.cap_m, self.cap_n)
        return SimplicialSetTrunc(
            cap,
            lambda n: self.simplices(n, n),
            lambda phi, x: self.act(phi, phi, x),
            label=f"Diag {self.label}",
        )


def bisimplicial_comparison(u, cap_m, cap_n):
    """The bisimplicial set S(u) of a simplicial map u: X -> Y.

    Bidegree (m, n): pairs (y, x) with y an (m+1+n)-simplex of Y whose
    final n-face is u(x).  Returns (S, forget) where forget projects onto
    X viewed as bisimplicially constant in the first direction.
    """
    if cap_m < 0 or cap_n < 0:
        raise ValueError(f"caps must be non-negative, got cap_m={cap_m}, cap_n={cap_n}")
    X, Y = u.src, u.dst
    if cap_m + 1 + cap_n > Y.cap or cap_n > X.cap:
        raise ValueError("cap exceeded: deeper tables needed for S(u)")

    def level(m, n):
        return _pairs_over_final_face(u, m, n, Y.simplices(m + 1 + n))

    def act(phi, psi, pair):
        yp, x = pair
        return (Y.act(join_maps(phi, psi), yp), X.act(psi, x))

    S = BisimplicialTrunc(cap_m, cap_n, level, act, label="S(u)")

    def forget(m, n, pair):
        return pair[1]

    return S, forget
