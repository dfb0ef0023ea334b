"""Exact chain arithmetic over a graded basis and the directed-complex data model.

A directed complex here is always basis-presented: a graded set of generating
tokens, an integer differential table, and an augmentation on degree 0.  The
positivity submonoid is the non-negative span of the declared basis, which
makes positivity of a chain a coefficientwise check.

All values are immutable after construction and safe to share between
threads.  Chains are kept in canonical form (no zero coefficients, keys
sorted by token), so equality and hashing are syntactic.

Morphisms are positional.  A complex numbers its basis tokens in basis
order (``index``) and keeps ``row``, its basis chains followed by the zero
chains of each degree.  A morphism stores its images as one tuple in its
source's basis order, and derives once a plan placing each image in the
target's row, with the images of several terms listed apart.  Composition
is then a gather of the left factor's images through the right factor's
plan, plus one ``_sum`` per listed image, which shares a lone summand.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter


_new = tuple.__new__
_set = object.__setattr__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class Chain(tuple):
    """Integer linear combination of same-degree basis tokens.

    An immutable pair ``(degree, coeffs)``: ``coeffs`` is sorted by token and
    stores no zero coefficients, so two chains are equal iff they are the
    same combination.  A chain never equals a plain tuple.
    """

    __slots__ = ()

    degree = property(itemgetter(0))
    coeffs = property(itemgetter(1))

    def __new__(cls, degree, coeffs):
        return _new(cls, (degree, coeffs))

    def __getnewargs__(self):
        return tuple(self)

    def __eq__(self, other):
        return other.__class__ is Chain and _tuple_eq(self, other)

    def __ne__(self, other):
        return other.__class__ is not Chain or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self):
        return f"Chain(degree={self[0]!r}, coeffs={self[1]!r})"

    @staticmethod
    def make(degree, items):
        """Build a chain in canonical form from (token, coeff) pairs or a dict."""
        pairs = items.items() if isinstance(items, dict) else items
        return _combine(degree, ((1, [(token, int(coeff)) for token, coeff in pairs]),))

    @staticmethod
    def zero(degree):
        return _ZEROS[degree] if 0 <= degree < len(_ZEROS) else Chain(degree, ())

    @staticmethod
    def unit(degree, token, coeff=1):
        coeff = int(coeff)
        return Chain(degree, ((token, coeff),) if coeff else ())

    def items(self):
        return self.coeffs

    def coeff(self, token):
        for t, c in self.coeffs:
            if t == token:
                return c
        return 0

    def support(self):
        return tuple(t for t, _ in self.coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_positive(self):
        return all(c > 0 for _, c in self.coeffs)

    def __add__(self, other):
        if self[0] != other[0]:
            raise ValueError(f"degree mismatch: {self[0]} + {other[0]}")
        if not other[1]:
            return self
        if not self[1]:
            return other
        return _sum(self[0], ((0, 1), (1, 1)), (self, other))

    def __neg__(self):
        return Chain(self.degree, tuple((t, -c) for t, c in self.coeffs))

    def __sub__(self, other):
        if self[0] != other[0]:
            raise ValueError(f"degree mismatch: {self[0]} - {other[0]}")
        if not other[1]:
            return self
        return _sum(self[0], ((0, 1), (1, -1)), (self, other))

    def __rmul__(self, k):
        k = int(k)
        if k == 0:
            return Chain.zero(self.degree)
        return Chain(self.degree, tuple((t, k * c) for t, c in self.coeffs))

    __mul__ = __rmul__

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for t, c in self.coeffs:
            if c == 1:
                parts.append(f"({t})")
            elif c == -1:
                parts.append(f"-({t})")
            else:
                parts.append(f"{c}({t})")
        return "+".join(parts).replace("+-", "-")


# Zero chains of degrees 0..31 are shared; a higher degree gets a fresh one.
_ZEROS = tuple(Chain(p, ()) for p in range(32))


def _combine(degree, terms):
    """The canonical chain sum(c * x) over the (c, x's coeffs) pairs of
    ``terms``: one accumulation, zeros dropped, tokens sorted.  A sum that
    cancels is the shared ``Chain.zero(degree)``."""
    acc = {}
    get = acc.get
    for c, coeffs in terms:
        for t, k in coeffs:
            acc[t] = get(t, 0) + c * k
    items = sorted([tk for tk in acc.items() if tk[1]])
    return _new(Chain, (degree, tuple(items))) if items else Chain.zero(degree)


def _sum(degree, terms, row):
    """sum(c * row[s]) over the (s, c) pairs of ``terms``, zero summands
    dropped: a lone summand of coefficient 1 is returned itself, two
    single-term ones of coefficient 1 on distinct tokens are put in token
    order, else _combine."""
    if len(terms) > 2:
        terms = [sc for sc in terms if row[sc[0]][1]]
    if len(terms) == 2:  # the common case: zeros are dropped without a list
        (s, c), (r, k) = terms
        xs, ys = row[s][1], row[r][1]
        if xs and ys:
            if c == k == 1 and len(xs) == len(ys) == 1 and xs[0][0] != ys[0][0]:
                a, b = xs[0], ys[0]
                return _new(Chain, (degree, (a, b) if a[0] < b[0] else (b, a)))
            return _combine(degree, ((c, xs), (k, ys)))
        terms = ((s, c),) if xs else ((r, k),) if ys else ()
    if len(terms) == 1 and terms[0][1] == 1:
        return row[terms[0][0]]
    return _combine(degree, [(c, row[s][1]) for s, c in terms]) if terms else Chain.zero(degree)


def pos_neg_decompose(x):
    """Split ``x`` as ``x = pos - neg`` with positive parts of disjoint support."""
    pos = Chain(x.degree, tuple((t, c) for t, c in x.coeffs if c > 0))
    neg = Chain(x.degree, tuple((t, -c) for t, c in x.coeffs if c < 0))
    return pos, neg


class DirComplex:
    """A basis-presented augmented directed complex.

    ``basis`` lists tokens per degree (``index`` numbers them in that
    order, degree by degree), ``diff`` maps degree>=1 tokens to
    chains one degree down (missing entries mean zero), ``aug`` maps
    degree-0 tokens to integers (missing entries mean zero).

    The constructor enforces well-formedness (token uniqueness, degrees of
    the stored chains); the chain-complex identities d.d = 0 and e.d = 0 are
    checked separately by :func:`validate_complex`, so that deliberately
    broken tables can be built and reported on.
    """

    __slots__ = (
        "basis", "_diff", "_aug", "_degree_of", "index", "_row", "_hash", "_strong_cache"
    )

    def __init__(self, basis, diff, aug):
        basis = tuple(tuple(level) for level in basis)
        while basis and not basis[-1]:
            basis = basis[:-1]
        degree_of = {}
        for p, level in enumerate(basis):
            for token in level:
                if not isinstance(token, str):
                    raise TypeError(f"token {token!r} is not a string")
                if token in degree_of:
                    raise ValueError(f"duplicate token {token!r}")
                degree_of[token] = p
        diff_table = {}
        for token, chain in dict(diff).items():
            p = degree_of.get(token)
            if p is None:
                raise ValueError(f"differential on unknown token {token!r}")
            if p == 0:
                raise ValueError(f"differential on degree-0 token {token!r}")
            if chain.degree != p - 1:
                raise ValueError(
                    f"d({token}) has degree {chain.degree}, expected {p - 1}"
                )
            for t in chain.support():
                if degree_of.get(t) != p - 1:
                    raise ValueError(f"d({token}) mentions unknown token {t!r}")
            if not chain.is_zero:
                diff_table[token] = chain
        aug_table = {}
        for token, value in dict(aug).items():
            if degree_of.get(token) != 0:
                raise ValueError(f"augmentation on non-vertex token {token!r}")
            if value:
                aug_table[token] = int(value)
        self_set = super().__setattr__
        self_set("basis", basis)
        self_set("_diff", diff_table)
        self_set("_aug", aug_table)
        self_set("_degree_of", degree_of)
        self_set("index", {token: i for i, token in enumerate(degree_of)})
        self_set("_row", None)
        self_set("_hash", None)
        self_set("_strong_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("DirComplex is immutable")

    # -- shape ------------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis) - 1

    def degrees(self):
        return range(len(self.basis))

    def tokens(self, p):
        if 0 <= p < len(self.basis):
            return self.basis[p]
        return ()

    def degree_of(self, token):
        return self._degree_of[token]

    def graded(self):
        """(token, degree) of every basis token, in basis order."""
        return self._degree_of.items()

    @property
    def row(self):
        """The basis chains in basis order, then the zero chains of degrees
        0..31: a zero of degree p sits at ``len(basis tokens) + p``."""
        if self._row is None:
            units = (Chain.unit(p, t) for t, p in self.graded())
            super().__setattr__("_row", tuple(units) + _ZEROS)
        return self._row

    def contains_chain(self, chain):
        return all(self._degree_of.get(t) == chain.degree for t in chain.support())

    # -- structure --------------------------------------------------------

    def diff_of(self, token):
        p = self._degree_of[token]
        if p == 0:
            raise ValueError(f"no differential in degree 0 ({token!r})")
        return self._diff.get(token, Chain.zero(p - 1))

    def aug_of(self, token):
        if self._degree_of[token] != 0:
            raise ValueError(f"augmentation is defined in degree 0 only ({token!r})")
        return self._aug.get(token, 0)

    def d(self, chain):
        if chain.degree == 0:
            raise ValueError("d is defined in degree >= 1")
        return _combine(chain.degree - 1, [(c, self.diff_of(t)[1]) for t, c in chain[1]])

    def e(self, chain):
        if chain.degree != 0:
            raise ValueError("augmentation applies to degree-0 chains")
        return sum(c * self.aug_of(t) for t, c in chain.items())

    def unit_chain(self, token):
        return Chain.unit(self._degree_of[token], token)

    # -- identity ----------------------------------------------------------

    def _key(self):
        diff_key = tuple(
            sorted((t, ch.coeffs) for t, ch in self._diff.items())
        )
        aug_key = tuple(sorted(self._aug.items()))
        return (self.basis, diff_key, aug_key)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, DirComplex)
            and self.basis == other.basis
            and self._diff == other._diff
            and self._aug == other._aug
        )

    def __hash__(self):
        if self._hash is None:
            super().__setattr__("_hash", hash(self._key()))
        return self._hash

    def __repr__(self):
        sizes = ",".join(str(len(level)) for level in self.basis)
        return f"DirComplex(sizes=({sizes}))"


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self):
        return not self.problems

    def __str__(self):
        return "OK" if self.ok else "\n".join(self.problems)


def validate_complex(K):
    """Report every basis element violating d.d = 0 or e.d = 0."""
    problems = []
    for p in K.degrees():
        for token in K.tokens(p):
            if p >= 2:
                dd = K.d(K.diff_of(token))
                if not dd.is_zero:
                    problems.append(f"d.d({token}) = {dd} != 0")
            elif p == 1:
                ed = K.e(K.diff_of(token))
                if ed != 0:
                    problems.append(f"e.d({token}) = {ed} != 0")
    return ValidationReport(tuple(problems))


def _gather(positions):
    """A function reading ``positions`` out of a sequence into a tuple, of
    any length (a bare ``itemgetter`` of one position returns the item)."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


# A morphism's plan (see AdcMorphism): ``positions`` of its images in the
# target's row, read by ``gather``, and ``multi``, the entries of several terms.
Plan = namedtuple("Plan", "gather positions multi")


def plan_of(positions, multi=()):
    return Plan(_gather(positions), positions, multi)


class AdcMorphism:
    """Degreewise assignment of target chains to source basis tokens.

    ``images`` is one tuple: the image of each source token in the source's
    basis order, a chain of that token's degree supported on the target.
    The constructor trusts its arguments and stores them; a caller holding a
    dict from tokens to images puts it in basis order with
    :func:`images_in_basis_order`.
    :func:`check_morphism` reports shape, chain-map, augmentation and
    positivity problems, and the JSON reader rejects shape problems.

    ``plan``, derived once from the images, places each image in the
    target's ``row``: a basis chain at its position, the zero of degree p
    at ``len(target) + p``.  Any other image, of several terms or another
    coefficient, is listed apart as ``(i, degree, terms)``, its terms as
    (position, coefficient) pairs.  ``f.after(g)`` gathers f's images
    through g's plan, then sums each listed image of g once by ``_sum``.
    """

    __slots__ = ("source", "target", "images", "_plan", "_hash")

    def __init__(self, source, target, images, plan=None):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "images", images)
        _set(self, "_plan", plan)
        _set(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("AdcMorphism is immutable")

    @property
    def plan(self):
        """The :class:`Plan` of the images, built once."""
        if self._plan is None:
            index, positions, multi = self.target.index, [], []
            end = len(index)
            for i, (p, items) in enumerate(self.images):
                if not items and p < len(_ZEROS):
                    positions.append(end + p)
                elif len(items) == 1 and items[0][1] == 1:
                    positions.append(index[items[0][0]])
                else:  # a placeholder, replaced by the sum
                    positions.append(end)
                    multi.append((i, p, tuple((index[t], c) for t, c in items)))
            _set(self, "_plan", plan_of(tuple(positions), tuple(multi)))
        return self._plan

    def image_of(self, token):
        return self.images[self.source.index[token]]

    def apply(self, chain):
        items = chain[1]
        if not items:
            return chain
        images, index = self.images, self.source.index
        if len(items) == 1 and items[0][1] == 1:
            return images[index[items[0][0]]]
        return _sum(chain[0], [(index[t], c) for t, c in items], images)

    def after(self, other):
        """Composite self . other (apply ``other`` first): a gather of
        self's images through other's plan, then one ``_sum`` of self's
        images per listed image of other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        gather, _, multi = other.plan
        row = self.images + _ZEROS
        images = gather(row)
        if multi:
            images = list(images)
            for i, p, terms in multi:
                images[i] = _sum(p, terms, row)
            images = tuple(images)
        return AdcMorphism(other.source, self.target, images)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, AdcMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        if self._hash is None:
            _set(self, "_hash", hash((self.source, self.target, self.images)))
        return self._hash

    def __repr__(self):
        return f"AdcMorphism({self.source!r} -> {self.target!r})"


def images_in_basis_order(source, images):
    """The images of a dict from source tokens to chains, as a tuple in the
    source's basis order; a token without an image reads None.  A token
    outside the source is refused."""
    extra = images.keys() - source.index.keys()
    if extra:
        raise ValueError(f"images for unknown tokens: {sorted(extra)}")
    return tuple(map(images.get, source.index))


def identity_morphism(K):
    return AdcMorphism(K, K, K.row[:len(K.index)])


def morphism_shape_problems(f):
    """Problems with the shape of f: every source token needs an image of its
    degree supported on the target."""
    problems = []
    for (token, p), chain in zip(f.source.graded(), f.images):
        if chain is None:
            problems.append(f"no image for basis token {token!r}")
        elif chain.degree != p:
            problems.append(f"image of {token!r} has degree {chain.degree}, expected {p}")
        elif not f.target.contains_chain(chain):
            problems.append(f"image of {token!r} leaves the target complex")
    return problems


def check_morphism(f):
    """Report shape problems, or else chain-map, augmentation and positivity
    problems on generators."""
    problems = morphism_shape_problems(f)
    if problems:
        return ValidationReport(tuple(problems))
    K, L = f.source, f.target
    for (token, p), image in zip(K.graded(), f.images):
        if not image.is_positive:
            problems.append(f"image of {token} is not positive: {image}")
        if p == 0:
            if L.e(image) != K.aug_of(token):
                problems.append(
                    f"augmentation broken at {token}: "
                    f"e(f({token})) = {L.e(image)} != {K.aug_of(token)}"
                )
        else:
            lhs = f.apply(K.diff_of(token))
            rhs = L.d(image)
            if lhs != rhs:
                problems.append(
                    f"d-compatibility broken at {token}: f(d) = {lhs}, d(f) = {rhs}"
                )
    return ValidationReport(tuple(problems))


def _toposort(nodes, edges, key=None):
    """Kahn topological sort; returns (order, unique) or (None, False) on a cycle.

    Of the nodes whose predecessors are all placed, the next is always the
    least under ``key``, the node itself by default: basis orders use the
    default, hom-enumeration its own key.  ``unique`` is True iff at every
    step exactly one node was available, i.e. reachability is a total order.
    """
    key = key or (lambda n: n)
    indeg = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for a, b in edges:
        if a == b:
            return None, False
        out[a].append(b)
        indeg[b] += 1
    ready = [(key(n), n) for n in nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order = []
    unique = True
    while ready:
        if len(ready) > 1:
            unique = False
        n = heapq.heappop(ready)[1]
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, (key(m), m))
    if len(order) != len(nodes):
        return None, False
    return order, unique


def _matched(lefts, left_keys, rights, right_keys):
    """Every pair (l, r) of a left and a right with equal keys, by l, then by
    the order of ``rights``; each key iterable is read in step with its items."""
    groups = {}
    for r, k in zip(rights, right_keys):
        groups.setdefault(k, []).append(r)
    for l, k in zip(lefts, left_keys):
        for r in groups.get(k, ()):
            yield l, r


def _strong_edges(K):
    edges = set()
    for p in K.degrees():
        if p == 0:
            continue
        for t in K.tokens(p):
            plus, minus = pos_neg_decompose(K.diff_of(t))
            for a in minus.support():
                edges.add((a, t))
            for b in plus.support():
                edges.add((t, b))
    return edges


def strong_loopfree_order(K):
    """A linear extension of the generating precedence relation, if acyclic.

    Returns a tuple of basis tokens witnessing strong loop-freeness, or None
    when the relation has a cycle.
    """
    cache = K._strong_cache
    if "order" not in cache:
        order, unique = _toposort(list(K.index), _strong_edges(K))
        cache["order"] = None if order is None else tuple(order)
        cache["total"] = order is not None and unique
    return cache["order"]


def strong_preorder_is_total(K):
    """True iff the generating precedence relation itself is a total order.

    This is the amalgamation hypothesis: not just the existence of a linear
    extension, but uniqueness of the topological order.
    """
    strong_loopfree_order(K)
    return K._strong_cache["total"]
