"""Exact chain arithmetic over a graded basis and the directed-complex data model.

A directed complex here is always basis-presented: a graded set of generating
tokens, an integer differential table, and an augmentation on degree 0.  The
positivity submonoid is the non-negative span of the declared basis, which
makes positivity of a chain a coefficientwise check.

All values are immutable after construction and safe to share between
threads.  Chains are kept in canonical form (no zero coefficients, keys
sorted by token), so equality and hashing are syntactic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter


@dataclass(frozen=True)
class BasisElement:
    """A generator of the complex: a token unique within its degree."""

    token: str
    degree: int


_new = tuple.__new__
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
        return _combine(self[0], ((1, self[1]), (1, other[1])))

    def __neg__(self):
        return Chain(self.degree, tuple((t, -c) for t, c in self.coeffs))

    def __sub__(self, other):
        if self[0] != other[0]:
            raise ValueError(f"degree mismatch: {self[0]} - {other[0]}")
        return _combine(self[0], ((1, self[1]), (-1, other[1])))

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


def pos_neg_decompose(x):
    """Split ``x`` as ``x = pos - neg`` with positive parts of disjoint support."""
    pos = Chain(x.degree, tuple((t, c) for t, c in x.coeffs if c > 0))
    neg = Chain(x.degree, tuple((t, -c) for t, c in x.coeffs if c < 0))
    return pos, neg


class DirComplex:
    """A basis-presented augmented directed complex.

    ``basis`` lists tokens per degree, ``diff`` maps degree>=1 tokens to
    chains one degree down (missing entries mean zero), ``aug`` maps
    degree-0 tokens to integers (missing entries mean zero).

    The constructor enforces well-formedness (token uniqueness, degrees of
    the stored chains); the chain-complex identities d.d = 0 and e.d = 0 are
    checked separately by :func:`validate_complex`, so that deliberately
    broken tables can be built and reported on.
    """

    __slots__ = ("basis", "_diff", "_aug", "_degree_of", "_hash", "_strong_cache")

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


class AdcMorphism:
    """Degreewise assignment of target chains to source basis tokens.

    The constructor trusts its arguments and stores ``images`` as given: a
    dict from every source token to a chain of that token's degree supported
    on the target.  Maps built from already-valid parts are built with it
    directly.  :func:`check_morphism` reports shape, chain-map, augmentation
    and positivity problems, and the JSON reader rejects shape problems.
    """

    __slots__ = ("source", "target", "_images", "_hash")

    def __init__(self, source, target, images):
        super().__setattr__("source", source)
        super().__setattr__("target", target)
        super().__setattr__("_images", images)
        super().__setattr__("_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("AdcMorphism is immutable")

    def image_of(self, token):
        return self._images[token]

    def apply(self, chain):
        items = chain[1]
        if not items:
            return chain
        if len(items) == 1 and items[0][1] == 1:
            return self._images[items[0][0]]
        images = self._images
        return _combine(chain[0], [(c, images[t][1]) for t, c in items])

    def after(self, other):
        """Composite self . other (apply ``other`` first), one accumulation
        per image that is neither zero nor a unit."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        mine = self._images
        images = {}
        for t, chain in other._images.items():
            items = chain[1]
            if not items:
                images[t] = chain
            elif len(items) == 1 and items[0][1] == 1:
                images[t] = mine[items[0][0]]
            else:
                images[t] = _combine(chain[0], [(c, mine[s][1]) for s, c in items])
        return AdcMorphism(other.source, self.target, images)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, AdcMorphism)
            and self.source == other.source
            and self.target == other.target
            and self._images == other._images
        )

    def __hash__(self):
        """Hashes the images in the source's basis order; a missing one as None."""
        if self._hash is None:
            images = tuple(map(self._images.get, itertools.chain.from_iterable(self.source.basis)))
            super().__setattr__("_hash", hash((self.source, self.target, images)))
        return self._hash

    def __repr__(self):
        return f"AdcMorphism({self.source!r} -> {self.target!r})"


def identity_morphism(K):
    return AdcMorphism(K, K, {t: K.unit_chain(t) for t in _all_tokens(K)})


def _all_tokens(K):
    return [t for p in K.degrees() for t in K.tokens(p)]


def morphism_shape_problems(f):
    """Problems with the shape of f: every source token needs an image of its
    degree supported on the target, and no image may name another token."""
    problems = []
    for p in f.source.degrees():
        for token in f.source.tokens(p):
            chain = f._images.get(token)
            if chain is None:
                problems.append(f"no image for basis token {token!r}")
            elif chain.degree != p:
                problems.append(f"image of {token!r} has degree {chain.degree}, expected {p}")
            elif not f.target.contains_chain(chain):
                problems.append(f"image of {token!r} leaves the target complex")
    extra = set(f._images) - set(_all_tokens(f.source))
    if extra:
        problems.append(f"images for unknown tokens: {sorted(extra)}")
    return problems


def check_morphism(f):
    """Report shape problems, or else chain-map, augmentation and positivity
    problems on generators."""
    problems = morphism_shape_problems(f)
    if problems:
        return ValidationReport(tuple(problems))
    K, L = f.source, f.target
    for p in K.degrees():
        for token in K.tokens(p):
            image = f.image_of(token)
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


@dataclass(frozen=True)
class AtomTableau:
    """The canonical double row built from a basis element.

    ``rows[k] = (x0_k, x1_k)``; the tableau is a genuine cell of the
    associated omega-category iff the element is positive (always, for a
    basis element) and both degree-0 rows have augmentation 1.
    """

    element: BasisElement
    rows: tuple[tuple[Chain, Chain], ...]
    is_cell: bool


def atom_tableau(K, element):
    """Build the atom of a basis element by iterated sign splitting of d."""
    token = element.token if isinstance(element, BasisElement) else element
    p = K.degree_of(token)
    top = K.unit_chain(token)
    rows = [(top, top)]
    x0, x1 = top, top
    for k in range(p, 0, -1):
        _, x0 = pos_neg_decompose(K.d(x0))
        x1, _ = pos_neg_decompose(K.d(x1))
        rows.append((x0, x1))
    rows.reverse()
    is_cell = K.e(rows[0][0]) == 1 and K.e(rows[0][1]) == 1
    return AtomTableau(BasisElement(token, p), tuple(rows), is_cell)


def is_unitary(K):
    """True iff the atom of every basis element is a genuine cell."""
    return all(
        atom_tableau(K, t).is_cell for p in K.degrees() for t in K.tokens(p)
    )


def _toposort(nodes, edges):
    """Kahn topological sort; returns (order, unique) or (None, False) on a cycle.

    ``unique`` is True iff at every step exactly one node was available,
    i.e. reachability is a total order.
    """
    indeg = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for a, b in edges:
        if a == b:
            return None, False
        out[a].append(b)
        indeg[b] += 1
    ready = sorted(n for n in nodes if indeg[n] == 0)
    order = []
    unique = True
    while ready:
        if len(ready) > 1:
            unique = False
        n = ready.pop(0)
        order.append(n)
        created = []
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                created.append(m)
        if created:
            ready = sorted(ready + created)
    if len(order) != len(nodes):
        return None, False
    return order, unique


def is_loopfree(K):
    """Degreewise precedence constraints admit a linear order (cycle detection)."""
    atoms = {
        (t, p): atom_tableau(K, t)
        for p in K.degrees()
        for t in K.tokens(p)
    }
    for i in K.degrees():
        edges = set()
        for p in K.degrees():
            if p <= i:
                continue
            for t in K.tokens(p):
                x0, x1 = atoms[(t, p)].rows[i]
                for a in x0.support():
                    for b in x1.support():
                        edges.add((a, b))
        order, _ = _toposort(list(K.tokens(i)), edges)
        if order is None:
            return False
    return True


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

    Returns a tuple of BasisElement witnessing strong loop-freeness, or None
    when the relation has a cycle.
    """
    cache = K._strong_cache
    if "order" not in cache:
        order, unique = _toposort(_all_tokens(K), _strong_edges(K))
        cache["order"] = None if order is None else tuple(
            BasisElement(t, K.degree_of(t)) for t in order
        )
        cache["total"] = order is not None and unique
    return cache["order"]


def strong_preorder_is_total(K):
    """True iff the generating precedence relation itself is a total order.

    This is the amalgamation hypothesis: not just the existence of a linear
    extension, but uniqueness of the topological order.
    """
    strong_loopfree_order(K)
    return K._strong_cache["total"]
