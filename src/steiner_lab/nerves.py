"""Truncated simplicial sets, the nerve via hom-enumeration, slices,
the shift homotopy, and the bisimplicial comparison object.

Simplicial sets are materialized as finite tables up to a dimension cap;
simplex records are canonical hashable values (monotone maps, complex
morphisms, pairs of those), so equality is syntactic.  A space keeps its
levels, each built with its completeness, so a space cut from others carries
their flag; its action applies the operator each time it is called, and a
nerve's codes below are the one memo of an action.

The n-simplices of a nerve are the morphisms out of cDelta(n).  Levels 0
and 1 are found by ``enumerate_morphisms``: it grows partial morphisms as
tuples of images and, since a generator's boundary constraint depends only
on the images of its faces, solves each generator once per distinct tuple
of those.  A level n >= 2 grows from level n-1 by face pairs and fillers:
an n-simplex is a pair (a, b) of (n-1)-simplices with d_0 a = d_{n-1} b.
The pair, listed by ``chains._matched`` like the pairs of S(u), fixes its
images off the 2^(n-1) generators on both vertices 0 and n, and those
fillers are placed by the same growth step, in degree order.

A nerve simplex x of dimension n is acted on by phi: Delta(m) -> Delta(n)
through precomposition, ``x.after(c_of_map(phi))``.  A nerve also gives
each simplex of its levels an int code: the ids of its ``images``, then
those of the zero chains, with ids kept per nerve, so the zero of degree p
sits where it does in cDelta(n)'s ``row``.  Since c(phi) sends each
simplex to a basis chain or to 0, the code of x.after(c(phi)) is a gather
of x's code through c(phi)'s plan, followed by the zero ids, and is looked
up among the coded simplices, so a hit builds, hashes and compares no
morphism.  Any other value, an operator past the cap or of another
dimension, and a code not seen yet are composed; a new result from a coded
simplex is coded then.  ``act_all`` acts on a list of simplices of one
level with one lookup of c(phi) and its gather; whole-level callers, the
functoriality tables of ``identity_failures`` among them, go through it.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass

from .chains import AdcMorphism, Chain, _combine, _gather, _matched, _toposort
from .simplex import (
    MonotoneMap,
    _operators,
    _positions,
    all_monotone_maps,
    c_delta,
    c_of_map,
    constant_map,
    degeneracy_map,
    face_map,
    identity_map,
    initial_inclusion,
    final_inclusion,
    join_maps,
    simplex_token,
)
from .solve import solve_augmentation, solve_boundary


def _through(through, cap):
    """The last level a check runs through: ``through``, or ``cap`` if None.
    A negative one would check nothing and pass, so it is refused."""
    through = cap if through is None else through
    if through < 0:
        raise ValueError(f"checks run through a non-negative level, got {through}")
    return through


class SimplicialSetTrunc:
    """A simplicial set known up to ``cap``: level lists plus the operator action.

    ``level_fn(space, n)`` gives level n and whether it is complete; it is
    handed the space, so no space closes over itself.  Each level is built
    once and kept, and ``complete`` turns False once one may miss simplices.
    ``act_all`` calls ``act_all_fn`` every time and keeps nothing, so a
    result lives as long as its caller holds it; ``act`` is its one-simplex case.
    """

    def __init__(self, cap, level_fn, act_all_fn):
        self.cap = cap
        self.complete = True
        self._level_fn = level_fn
        self._act_all_fn = act_all_fn
        self._levels = {}

    def simplices(self, n):
        if not 0 <= n <= self.cap:
            raise ValueError(f"dimension {n} beyond cap {self.cap}")
        if n not in self._levels:
            level, complete = self._level_fn(self, n)
            self.complete &= complete
            self._levels[n] = list(level)
        return self._levels[n]

    def act(self, phi, x):
        return self._act_all_fn(phi, (x,))[0]

    def act_all(self, phi, xs):
        """[X(phi)(x) for x in xs], for simplices xs of dimension phi.dst."""
        return self._act_all_fn(phi, xs)

    def degenerate(self, n):
        """The degenerate n-simplices (images of degeneracy operators)."""
        out = set()
        for i in range(n):
            out.update(self.act_all(degeneracy_map(n - 1, i), self.simplices(n - 1)))
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

        Each operator acts once, by ``act_all`` on its whole source level,
        into a table of ids keyed by its target and values: the id of a
        value is a position of it in its level, and values outside the level
        get fresh ids past its end, so equal ids mean equal values.  The
        composite's table is found by its values before a map is built, and
        X(psi) after X(phi) is a gather of psi's table through phi's.
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

        tables = {}  # (phi.dst, phi.image) -> ids of X(phi)(x), x in level phi.dst

        def table(phi, key):
            found = tables.get(key)
            if found is None:
                src = phi.src
                found = tables[key] = tuple(
                    [ident(src, y) for y in self.act_all(phi, levels[phi.dst])]
                )
            return found

        failures = []
        seconds_of = {}  # m -> [(psi, its table key, the gather of its values)]
        for n, m, phi in _operators(through):
            seconds = seconds_of.get(m)
            if seconds is None:
                if generators_only:
                    psis = [face_map(m, i) for i in range(m + 1) if m >= 1]
                    if m + 1 <= through:
                        psis += [degeneracy_map(m, i) for i in range(m + 1)]
                else:
                    psis = [
                        psi
                        for k in range(min(m + 1, through) + 1)
                        for psi in all_monotone_maps(k, m)
                    ]
                seconds = seconds_of[m] = [(p, (m, p.image), _gather(p.image)) for p in psis]
            first = table(phi, (n, phi.image))
            size = len(levels[m])
            inside = _gather(first) if all(j < size for j in first) else None
            for psi, key, pick in seconds:
                composite = (n, pick(phi.image))
                lhs = tables.get(composite)
                if lhs is None:
                    lhs = table(phi.compose(psi), composite)
                second = table(psi, key)
                if inside is not None:
                    rhs = inside(second)
                else:
                    rhs = tuple([
                        second[j] if j < size else ident(psi.src, self.act(psi, values[m][j]))
                        for j in first
                    ])
                if lhs != rhs:
                    failures.extend(
                        (phi, psi, x) for x, a, b in zip(levels[n], lhs, rhs) if a != b
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


def _commutations(f, through):
    """((phi, x), f(X(phi) x), Y(phi) f(x)) for every operator phi within
    ``through`` and every simplex x of f's source that phi acts on."""
    for n, m, phi in _operators(through):
        xs = f.src.simplices(n)
        images = f.dst.act_all(phi, [f(n, x) for x in xs])
        for x, y, z in zip(xs, f.src.act_all(phi, xs), images):
            yield (phi, x), f(m, y), z


def simplicial_map_failures(f, through=None):
    """Commutation failures of f with all operators within the caps."""
    through = _through(through, min(f.src.cap, f.dst.cap))
    return [args for args, lhs, rhs in _commutations(f, through) if lhs != rhs]


def standard_simplex(N, cap):
    """The representable simplicial set on Delta(N), truncated."""
    return SimplicialSetTrunc(
        cap,
        lambda space, n: (all_monotone_maps(n, N), True),
        lambda phi, xs: [x.compose(phi) for x in xs],
    )


def enumerate_morphisms(src, dst, fixed=None, coeff_bound=None):
    """All complex morphisms src -> dst, grown one generator at a time.

    ``fixed`` pins images of some source tokens.  Generators are taken in
    the ``_toposort`` order of the face relation keyed by (-degree, token):
    each as soon as its whole boundary is placed, high degrees first, so
    face constraints prune the search early.  Returns (morphisms,
    complete), the morphisms sorted by images in token order.
    """
    edges = [(t, token) for token, p in src.graded() if p for t in src.diff_of(token).support()]
    order, _ = _toposort(list(src.index), edges, key=lambda t: (-src.degree_of(t), t))
    position = {token: i for i, token in enumerate(order)}
    return _grow(src, dst, [()], position, order, fixed or {}, coeff_bound)


def _grow(src, dst, partials, position, tokens, fixed, coeff_bound):
    """Extend each partial morphism src -> dst, read once from ``partials``,
    by the images of ``tokens``.

    A partial morphism is a tuple of images, ``position`` giving the slot
    of every source token; ``tokens`` fill the slots past the partials, in
    order, each after its faces.  A token's candidates, pin applied, are
    solved once per distinct tuple of its faces' images.  Returns
    (morphisms, complete), the morphisms sorted by images in token order.
    """
    complete = True
    for token in tokens:
        p = src.degree_of(token)
        pin = fixed.get(token)
        faces = src.diff_of(token).items() if p else ()
        key_of = operator.itemgetter(*[position[t] for t, _ in faces]) if faces else lambda _: ()
        candidates = {}  # face images -> the images of token, as 1-tuples
        grown = []
        append = grown.append
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
            for z in found:
                append(partial + z)
        partials = grown
    if position:
        partials.sort(key=operator.itemgetter(*[position[t] for t in sorted(position)]))
    in_basis_order = _gather([position[t] for t in src.index])
    return [AdcMorphism(src, dst, in_basis_order(images)) for images in partials], complete


def hom_enumerate(n, K, coeff_bound=None):
    """All morphisms cDelta(n) -> K; ``enumerate_morphisms`` also gives their complete flag."""
    morphisms, _ = enumerate_morphisms(c_delta(n), K, coeff_bound=coeff_bound)
    return morphisms


def _grown_level(n, K, lower, act_all, coeff_bound):
    """Level n >= 2 of the nerve of K from its level n-1, ``lower``: each
    pair (a, b) with d_0 a = d_{n-1} b, matched on those faces read by
    ``act_all``, gives a's images, then b's, and ``_grow`` places the
    fillers, the simplices of cDelta(n) on both vertices 0 and n."""
    firsts = act_all(face_map(n - 1, 0), lower)
    lasts = act_all(face_map(n - 1, n - 1), lower)
    pairs = (a.images + b.images for a, b in _matched(lower, firsts, lower, lasts))
    face = list(_positions(n - 1))
    fillers = [simplex_token(t) for t in _positions(n) if t[0] == 0 and t[-1] == n]
    slots = [simplex_token(t) for t in face] + [simplex_token([v + 1 for v in t]) for t in face]
    position = {t: i for i, t in enumerate(slots + fillers)}  # a token of a and b: b's slot
    return _grow(c_delta(n), K, pairs, position, fillers, {}, coeff_bound)


def nerve(K, cap, coeff_bound=None):
    """The nerve of nu(K): n-simplices are morphisms from the n-simplex chains.

    The chain ids of its codes (see the module docstring) are kept here in
    first-seen order, the zero chain of degree p seeded as id p.  Every code
    ends in the zero ids 0..cap, so a gather finds the zero of each degree
    up to the cap in any code.
    """
    if cap < 0:
        raise ValueError(f"nerve cap must be non-negative, got {cap}")
    zeros = tuple(range(cap + 1))
    ids = defaultdict(itertools.count(cap + 1).__next__, {Chain.zero(p): p for p in zeros})
    codes = {}  # simplex -> code
    coded = {}  # code -> simplex

    def register(x, code):
        x = coded.setdefault(code, x)
        codes.setdefault(x, code)
        return x

    def level(space, n):
        if n < 2:
            morphisms, complete = enumerate_morphisms(c_delta(n), K, coeff_bound=coeff_bound)
        else:
            morphisms, complete = _grown_level(n, K, space.simplices(n - 1), act_all, coeff_bound)
        return [
            register(x, tuple(map(ids.__getitem__, x.images)) + zeros) for x in morphisms
        ], complete

    def acted(c, gather, x):
        """x.after(c), for c = c(phi) with phi within the cap, c's plan read by ``gather``."""
        code = codes.get(x)
        if code is None or x.source is not c.target and x.source != c.target:
            return x.after(c)
        key = gather(code) + zeros
        y = coded.get(key)
        return register(x.after(c), key) if y is None else y

    def act_all(phi, xs):
        c = c_of_map(phi)
        if phi.src > cap:
            return [x.after(c) for x in xs]
        gather = c.plan.gather
        return [acted(c, gather, x) for x in xs]

    return SimplicialSetTrunc(cap, level, act_all)


def nerve_map(f, src_nerve, dst_nerve):
    """The simplicial map induced on nerves by a complex morphism."""
    return SimplicialMap(src_nerve, dst_nerve, lambda n, x: f.after(x))


def _slice(Y, y, m, face, join):
    """The n-simplices are (m+1+n)-simplices yp of Y with ``face(n)`` of yp
    equal to the m-simplex y; psi acts on yp through ``join(psi)``."""
    cap = Y.cap - m - 1
    if cap < 0:
        raise ValueError("cap exceeded: the slice needs deeper tables")

    def level(space, n):
        above = Y.simplices(m + 1 + n)
        return [yp for yp, z in zip(above, Y.act_all(face(n), above)) if z == y], Y.complete

    # one simplex at a time through Y.act: perfbench traces act, not
    # act_all, and the nerve slices keep its nerves.act count nonzero
    return SimplicialSetTrunc(cap, level, lambda psi, yps: [Y.act(join(psi), yp) for yp in yps])


def under_slice(Y, y, m):
    """The under-slice: n-simplices are (m+1+n)-simplices whose initial
    m-face is y; operators act on the final block."""
    return _slice(
        Y, y, m, lambda n: initial_inclusion(m, n),
        lambda psi: join_maps(identity_map(m), psi),
    )


def under_slice_projection(Y, m, slice_space):
    return SimplicialMap(slice_space, Y, lambda n, yp: Y.act(final_inclusion(m, n), yp))


def over_slice(Y, y, m):
    """The over-slice: n-simplices are (n+1+m)-simplices whose final
    m-face is y; operators act on the initial block."""
    return _slice(
        Y, y, m, lambda n: final_inclusion(n, m),
        lambda psi: join_maps(psi, identity_map(m)),
    )


def over_slice_projection(Y, m, slice_space):
    return SimplicialMap(slice_space, Y, lambda n, yp: Y.act(initial_inclusion(n, m), yp))


def _pairs_over_final_face(u, m, n, candidates):
    """Pairs (y', x) of a candidate (m+1+n)-simplex y' of the target of
    u: X -> Y and an n-simplex x of X such that y' has final n-face u(x),
    listed by x, then by the order of the candidates."""
    X, Y = u.src, u.dst
    xs = X.simplices(n)
    faces = Y.act_all(final_inclusion(m, n), candidates)
    return [(yp, x) for x, yp in _matched(xs, (u(n, x) for x in xs), candidates, faces)]


def map_under_slice(u, y, m):
    """The relative under-slice of a simplicial map u: X -> Y at an
    m-simplex y of Y: pairs (y', x) with y' in the under-slice of Y at y
    and final face u(x)."""
    X, S = u.src, under_slice(u.dst, y, m)

    def level(space, n):
        return _pairs_over_final_face(u, m, n, S.simplices(n)), S.complete and X.complete

    def act_all(psi, pairs):
        ys, xs = [y for y, _ in pairs], [x for _, x in pairs]
        return list(zip(S.act_all(psi, ys), X.act_all(psi, xs)))

    return SimplicialSetTrunc(min(S.cap, X.cap), level, act_all)


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
        return self.ambient.act(degeneracy_map(self.m, 0), self.simplex)

    def section(self, n, xp):
        """The degenerate n-simplex on the basepoint."""
        return self.space.act(constant_map(n, 0, 0), self.basepoint)

    def homotopy(self, phi, xp):
        return self.ambient.act(_shift_reindex(phi, phi.src, self.m), xp)


def _shift_reindex(phi, m, n):
    """The endomorphism of Delta(m+1+n) folding the first block along phi."""
    image = (*(i if phi(i) == 0 else m + 1 for i in range(m + 1)), *range(m + 1, m + 2 + n))
    return MonotoneMap(m + 1 + n, m + 1 + n, image)


def decalage_homotopy(X, x, n):
    """Contraction of the over-slice of X at an n-simplex x."""
    return ShiftContraction(over_slice(X, x, n), X, x, n)


class BisimplicialTrunc:
    """A bisimplicial set known up to caps in each direction, its levels
    built with their completeness as a ``SimplicialSetTrunc``'s are."""

    def __init__(self, cap_m, cap_n, level_fn, act_fn):
        self.cap_m = cap_m
        self.cap_n = cap_n
        self.complete = True
        self._level_fn = level_fn
        self._act_fn = act_fn
        self._levels = {}

    def simplices(self, m, n):
        if not (0 <= m <= self.cap_m and 0 <= n <= self.cap_n):
            raise ValueError(f"bidegree ({m},{n}) beyond caps")
        if (m, n) not in self._levels:
            level, complete = self._level_fn(m, n)
            self.complete &= complete
            self._levels[(m, n)] = list(level)
        return self._levels[(m, n)]

    def act(self, phi, psi, x):
        return self._act_fn(phi, psi, x)

    def diagonal(self):
        return SimplicialSetTrunc(
            min(self.cap_m, self.cap_n),
            lambda space, n: (self.simplices(n, n), self.complete),
            lambda phi, xs: [self.act(phi, phi, x) for x in xs],
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
        return _pairs_over_final_face(u, m, n, Y.simplices(m + 1 + n)), X.complete and Y.complete

    def act(phi, psi, pair):
        yp, x = pair
        return (Y.act(join_maps(phi, psi), yp), X.act(psi, x))

    S = BisimplicialTrunc(cap_m, cap_n, level, act)

    def forget(m, n, pair):
        return pair[1]

    return S, forget
