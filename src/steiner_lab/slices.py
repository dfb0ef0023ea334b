"""Slice omega-categories under an object, and oplax transformations.

Cells of the slice A\\c over a functor u: A -> C are pairs (a, alpha): a
cell a of A together with a double row of coherence cells of C connecting
the cone at c.  The a-cell is stored once; its iterated sources and
targets are read off its rows.  A slice i-cell is a morphism D_0 * G_i -> L
sending D_0 to c and G_i to u.a (Ara-Maltsiniotis), so its top coherence
is a filler with the join's boundary d(v * x) = x - v * t + v * s.
Everything is represented through presenting complexes: A = nu(K), C =
nu(L), u an ADC morphism, and an oplax transformation is a morphism out of
the cylinder complex interval (x) K with prescribed end restrictions.  Its
end functors, whiskerings and identities are composites with cylinder
maps: an end's injection, interval (x) f, and the collapsed interval; its
vertical composite is a co-pairing on two cylinders glued end to start,
after the fold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import AdcMorphism, Chain, identity_morphism, images_in_basis_order
from .cells import (
    CellTableau,
    _fillers,
    _joins,
    _levels,
    _source_rows,
    _target_rows,
    atom_cell,
    cell_problems,
    composable,
    compose,
    enumerate_cells,
    identity,
    map_cell,
    object_cell,
    source,
    source_iter,
    target,
    target_iter,
)
from .simplex import c_delta, c_of_map, constant_map
from .tensor import (
    left_unitor,
    pushout_complex,
    tensor_chains,
    tensor_complex,
    tensor_injection,
    tensor_morphism,
    tensor_token,
)

INTERVAL_SRC = "0"
INTERVAL_TGT = "1"
INTERVAL_EDGE = "0,1"


def interval():
    return c_delta(1)


def cylinder_complex(K):
    return tensor_complex(interval(), K)


def is_object_chain(L, c):
    """Whether c is an object of nu(L): a positive degree-0 chain on L with
    augmentation 1."""
    return c.degree == 0 and c.is_positive and L.contains_chain(c) and L.e(c) == 1


def constant_morphism(K, L, c):
    """The functor collapsing K to the object chain c of L."""
    if not is_object_chain(L, c):
        raise ValueError("constant value must be an object chain of the target")
    return AdcMorphism(K, L, tuple(
        K.aug_of(t) * c if p == 0 else Chain.zero(p) for t, p in K.graded()
    ))


@dataclass(frozen=True)
class OplaxTransformation:
    """An oplax transformation packaged as its cylinder morphism h.

    ``h`` maps interval (x) K to L; the restrictions to the two ends of the
    interval are the source and target functors of the transformation.
    """

    h: AdcMorphism

    def __post_init__(self):
        src = self.h.source
        prefixes = tuple(
            tensor_token(end, "") for end in (INTERVAL_SRC, INTERVAL_TGT, INTERVAL_EDGE)
        )
        if not all(token.startswith(prefixes) for token in src.index):
            raise ValueError("h is not defined on a cylinder complex")

    def end_functor(self, end, K):
        return self.h.after(tensor_injection(interval(), K, end))

    def source_functor(self, K):
        return self.end_functor(INTERVAL_SRC, K)

    def target_functor(self, K):
        return self.end_functor(INTERVAL_TGT, K)

    def shift(self, z):
        """h applied to edge (x) z: the degree-raising component data."""
        return self.h.apply(
            tensor_chains(Chain.unit(1, INTERVAL_EDGE), z)
        )


def identity_oplax(u):
    """The identity transformation of u: u after the cylinder collapsed
    onto cDelta(0) (x) K, then the left unitor."""
    K = u.source
    collapse = tensor_morphism(c_of_map(constant_map(1, 0, 0)), identity_morphism(K))
    return OplaxTransformation(u.after(left_unitor(K)).after(collapse))


def precompose_oplax(T, f):
    """Whisker T by f on the right: T after the interval tensored with f."""
    return OplaxTransformation(T.h.after(tensor_morphism(identity_morphism(interval()), f)))


def cylinder_cell(a):
    """The canonical (dim+1)-cell of nu(interval (x) K) over a cell a of nu(K)."""
    K = a.complex
    T = cylinder_complex(K)
    src = Chain.unit(0, INTERVAL_SRC)
    tgt = Chain.unit(0, INTERVAL_TGT)
    edge = Chain.unit(1, INTERVAL_EDGE)
    x0, x1 = [], []
    for r in range(a.dim + 1):
        lo = tensor_chains(src, a.x0[r])
        hi = tensor_chains(tgt, a.x1[r])
        if r > 0:
            lo = lo + tensor_chains(edge, a.x1[r - 1])
            hi = hi + tensor_chains(edge, a.x0[r - 1])
        x0.append(lo)
        x1.append(hi)
    top = tensor_chains(edge, a.top)
    return CellTableau(T, tuple(x0) + (top,), tuple(x1) + (top,))


def oplax_component(T, a):
    """The structural (dim+1)-cell of the transformation at a cell a."""
    return map_cell(T.h, cylinder_cell(a))


def cylinder_fold(K):
    """Two cylinders over K glued end to start, and the fold onto them.

    Returns (Q, fold): Q is the pushout whose left cylinder starts where the
    right one ends; fold: interval (x) K -> Q sends the start to the right
    cylinder's, the end to the left cylinder's, and each edge cell to the
    sum of its two copies.
    """
    ends = (INTERVAL_SRC, INTERVAL_TGT)
    T = cylinder_complex(K)
    Q = pushout_complex(*(tensor_injection(interval(), K, e) for e in ends))
    start, end = (tensor_token(e, "") for e in ends)
    return Q, AdcMorphism(T, Q.complex, tuple(
        r if token.startswith(start) else l if token.startswith(end) else l + r
        for token, l, r in zip(T.index, Q.left.images, Q.right.images)
    ))


def vertical_compose(beta, alpha, K):
    """The vertical composite beta . alpha of transformations between
    functors out of nu(K): the co-pairing of beta and alpha after the fold.
    Raises ValueError unless beta starts where alpha ends."""
    if beta.source_functor(K) != alpha.target_functor(K):
        raise ValueError("transformations disagree on the base: beta must start where alpha ends")
    Q, fold = cylinder_fold(K)
    return OplaxTransformation(Q.induced(beta.h, alpha.h).after(fold))


@dataclass(frozen=True)
class SliceCell:
    """A cell of the slice under c of the functor presented by u: K -> L.

    ``a`` is a cell of nu(K); ``t0[k]``/``t1[k]`` (k = 0..dim) hold the
    coherence (k+1)-cells of nu(L) (so index k stores the cell the tableau
    writes in column k+1).  ``a0[k]``/``a1[k]`` are the iterated source and
    target s_k(a), t_k(a); both are a at k = dim.
    """

    u: AdcMorphism
    c: Chain
    a: CellTableau
    t0: tuple[CellTableau, ...]
    t1: tuple[CellTableau, ...]

    @property
    def dim(self):
        return self.a.dim

    @property
    def a0(self):
        return tuple(source_iter(self.a, k) for k in range(self.dim + 1))

    @property
    def a1(self):
        return tuple(target_iter(self.a, k) for k in range(self.dim + 1))


def whisker_composite(u, a_cell, coherences):
    """u(a) *_0 alpha_1 *_1 ... *_{k-1} alpha_k, folded left to right
    (lower compositions bind first)."""
    acc = map_cell(u, a_cell)
    for l, t in enumerate(coherences):
        acc = compose(acc, t, l)
    return acc


def slice_problems(cell):
    """Diagnostics for the slice tableau conditions; empty iff valid."""
    i = cell.dim
    K, L = cell.u.source, cell.u.target
    if cell.a.complex != K:
        raise ValueError("the a-cell is not a cell over the source")
    if not len(cell.t0) == len(cell.t1) == i + 1:
        raise ValueError("both coherence rows must have dim+1 entries")
    problems = [f"a: {p}" for p in cell_problems(cell.a)]
    for k in range(i + 1):
        for t in (cell.t0[k], cell.t1[k]):
            if t.complex != L or t.dim != k + 1:
                raise ValueError(f"coherence entry {k} is not a {k + 1}-cell")
            problems.extend(f"alpha[{k + 1}]: {p}" for p in cell_problems(t))
    if cell.t0[i] != cell.t1[i]:
        problems.append("top coherence entries differ")
    rows = ((cell.a0, cell.t0), (cell.a1, cell.t1))
    for k in range(i + 1):
        for eps, (a_row, row) in enumerate(rows):
            want_source = object_cell(L, cell.c) if k == 0 else cell.t1[k - 1]
            if source(row[k]) != want_source:
                problems.append(f"source of alpha^{eps}_{k + 1} is wrong")
            # the prescribed target: u(a) whiskered by the lower coherences
            if target(row[k]) != whisker_composite(cell.u, a_row[k], cell.t0[:k]):
                problems.append(f"target of alpha^{eps}_{k + 1} is wrong")
    return problems


def slice_identity(cell):
    top = identity(cell.t0[-1])
    return SliceCell(cell.u, cell.c, identity(cell.a), cell.t0 + (top,), cell.t1 + (top,))


def slice_source_iter(cell, j):
    """Iterated source s_j: the a-cell's, the coherence rows cut alike."""
    if j >= cell.dim:
        return cell
    return SliceCell(cell.u, cell.c, source_iter(cell.a, j), *_source_rows(cell.t0, cell.t1, j))


def slice_target_iter(cell, j):
    if j >= cell.dim:
        return cell
    return SliceCell(cell.u, cell.c, target_iter(cell.a, j), *_target_rows(cell.t0, cell.t1, j))


def slice_iterated_identity(cell, dim):
    while cell.dim < dim:
        cell = slice_identity(cell)
    return cell


def slice_compose(x, y, j):
    """The composite x *_j y of slice cells (x after y).

    The a-rows compose levelwise in nu(K); the coherence rows follow the
    whiskering recipe: conjugate the second factor's coherence by the first
    factor's boundary data.
    """
    i = max(x.dim, y.dim)
    x = slice_iterated_identity(x, i)
    y = slice_iterated_identity(y, i)
    if x.u != y.u or x.c != y.c:
        raise ValueError("slice cells live in different slices")
    if not 0 <= j < i:
        raise ValueError(f"no composition *_{j} in dimension {i}")
    if not (composable(x.a, y.a, j) and _joins(x.t0, x.t1, y.t0, y.t1, j)):
        raise ValueError(f"cells are not {j}-composable")

    def gamma(eps, k):
        # k indexes the stored column: the coherence cell alpha^eps_{k+1}
        x_t = x.t0 if eps == 0 else x.t1
        y_t = y.t0 if eps == 0 else y.t1
        a_source = (source_iter if eps == 0 and k == j + 1 else target_iter)(x.a, j + 1)
        acc = map_cell(x.u, a_source)
        for l in range(j):
            acc = compose(acc, y.t0[l], l)
        acc = compose(acc, y_t[k], j)
        acc = compose(acc, x_t[k], j + 1)
        return acc

    t0 = y.t0[: j + 1] + tuple(gamma(0, k) for k in range(j + 1, i + 1))
    t1 = x.t1[: j + 1] + tuple(gamma(1, k) for k in range(j + 1, i + 1))
    return SliceCell(x.u, x.c, compose(x.a, y.a, j), t0, t1)


def slice_cell_from_pair(u, c, a, T, x):
    """The slice cell classified by (a, T) at a cell x of the indexing shape.

    ``a`` maps the indexing complex into u's source; T is an oplax
    transformation from the constant functor at c to u . a; x is a cell of
    the indexing omega-category.
    """
    t0, t1 = (
        tuple(oplax_component(T, it(x, k)) for k in range(x.dim + 1))
        for it in (source_iter, target_iter)
    )
    return SliceCell(u, c, map_cell(a, x), t0, t1)


def pair_from_slice_family(u, c, shape, family):
    """Recover (a, T) from the images of the atoms of the indexing shape.

    ``family`` maps each cell of nu(shape) to a SliceCell; only atom images
    are consulted: the functor takes an atom to its cell's top a-entry, the
    transformation's edge component to the top coherence entry.
    """
    K, L = u.source, u.target
    a_images, h_images = [], {}
    for b, p in shape.graded():
        image = family[atom_cell(shape, b)]
        a_images.append(image.a.top)
        h_images[tensor_token(INTERVAL_EDGE, b)] = image.t0[p].top
    a = AdcMorphism(shape, K, tuple(a_images))
    const = constant_morphism(shape, L, c)
    ua = u.after(a)
    for b, x, y in zip(shape.index, const.images, ua.images):
        h_images[tensor_token(INTERVAL_SRC, b)] = x
        h_images[tensor_token(INTERVAL_TGT, b)] = y
    C = cylinder_complex(shape)
    T = OplaxTransformation(AdcMorphism(C, L, images_in_basis_order(C, h_images)))
    return a, T


def slice_functor(u, v, w, alpha):
    """The induced functor on slices of a triangle commuting up to alpha.

    Given u: K_A -> K_B, v: K_A -> K_C, w: K_B -> K_C and an oplax
    transformation alpha from v to w . u, returns the cell map sending a
    slice cell over v to one over w with the coherence rows composed
    vertically with alpha's components along the cell's own a-row.
    """
    if alpha.source_functor(u.source) != v:
        raise ValueError("alpha does not start at the left leg")
    if alpha.target_functor(u.source) != w.after(u):
        raise ValueError("alpha does not end at the composed leg")
    wu = w.after(u)
    L = w.target

    def component(cell, eps, k):
        a_row = (source_iter if eps == 0 else target_iter)(cell.a, k)
        t_row = cell.t0 if eps == 0 else cell.t1
        c = cell.c

        def edge_total(chain, tau_top):
            return alpha.shift(chain) + tau_top

        x0, x1 = [], []
        for r in range(k + 1):
            lo = u.source.e(a_row.x0[r]) * c if r == 0 else Chain.zero(r)
            hi = wu.apply(a_row.x1[r])
            if r > 0:
                lo = lo + edge_total(a_row.x1[r - 1], cell.t1[r - 1].top)
                hi = hi + edge_total(a_row.x0[r - 1], cell.t0[r - 1].top)
            x0.append(lo)
            x1.append(hi)
        top = edge_total(a_row.top, t_row[k].top)
        return CellTableau(L, tuple(x0) + (top,), tuple(x1) + (top,))

    def act(cell):
        if cell.u != v:
            raise ValueError("slice cell is not over the left leg")
        t0, t1 = (
            tuple(component(cell, eps, k) for k in range(cell.dim + 1)) for eps in (0, 1)
        )
        return SliceCell(w, cell.c, map_cell(u, cell.a), t0, t1)

    return act


def enumerate_slice_cells(u, c, dim, coeff_bound=None):
    """All slice cells of the given dimension, by boundary-constrained search.

    ``c`` must be an object of nu(L), L the target of u.  The returned level
    is kept like ``enumerate_cells``'s (see ``cells.py``): a next call with
    the same u (by identity), c and bound and a dim at or above this one
    starts from it, skipping the 0-cells of u's source as well.
    """
    if dim < 0:
        raise ValueError(f"slice cell dimension must be non-negative, got {dim}")
    K, L = u.source, u.target
    if not is_object_chain(L, c):
        raise ValueError(f"slice object {c} is not an object chain of the target")
    base = object_cell(L, c)

    def first():
        objects = enumerate_cells(K, 0, coeff_bound)
        cells, complete = [], objects.complete
        for a in objects.cells:
            tops, ok = _fillers(L, base, u.apply(a.top), coeff_bound)
            complete &= ok
            cells.extend(SliceCell(u, c, a, (t,), (t,)) for t in tops)
        return cells, complete

    def grow(S, T):
        a_tops, complete = _fillers(K, S.a, T.a.top, coeff_bound)
        cells = []
        for a in a_tops:
            tops, ok = _fillers(L, T.t1[-1], u.apply(a.top) + S.t0[-1].top, coeff_bound)
            complete &= ok
            cells.extend(SliceCell(u, c, a, S.t0 + (t,), T.t1 + (t,)) for t in tops)
        return cells, complete

    return _levels(
        ("slice", u, c, coeff_bound), dim, first,
        lambda z: (z.a.x0[:-1], z.a.x1[:-1], z.t0[:-1], z.t1[:-1]),
        grow,
        # a's entries x0[0], x0[1], x1[0], ..., x0[i], x1[i-1] (their first
        # places in the rows of a0, then a1), then the coherence rows
        lambda z: tuple(ch.coeffs for ch in (z.a.x0[0],) + sum(zip(z.a.x0[1:], z.a.x1), ())
                        + tuple(ch for t in z.t0 + z.t1 for ch in t.x0 + t.x1)),
    )
