"""Independent brute-force oracles for the enumeration machinery.

These deliberately avoid the package's constraint solver: candidate chains
are produced by plain cartesian products over bounded coefficient vectors
and filtered by the defining equations, so agreement with the package's
enumerations is meaningful evidence.
"""

import itertools

import networkx as nx

from steiner_lab import AdcMorphism, Chain, DirComplex
from steiner_lab.cells import _atom
from steiner_lab.chains import images_in_basis_order


def morphism_from_dict(source, target, images):
    """The morphism with a dict of images, put in basis order by the one
    dict-to-tuple helper."""
    return AdcMorphism(source, target, images_in_basis_order(source, images))


def bounded_chains(K, p, bound):
    """Every positive degree-p chain with all coefficients <= bound."""
    tokens = K.tokens(p)
    out = []
    for values in itertools.product(range(bound + 1), repeat=len(tokens)):
        out.append(Chain.make(p, zip(tokens, values)))
    return out


def brute_morphisms(src, dst, bound, fixed=None):
    """All morphisms src -> dst with image coefficients <= bound, taking the
    image of each token in ``fixed`` as given."""
    fixed = fixed or {}
    partials = [{}]
    for p in src.degrees():
        candidates = bounded_chains(dst, p, bound)
        for token in src.tokens(p):
            grown = []
            for assignment in partials:
                for z in [fixed[token]] if token in fixed else candidates:
                    if p == 0:
                        if dst.e(z) != src.aug_of(token):
                            continue
                    else:
                        pushed = Chain.zero(p - 1)
                        for t, c in src.diff_of(token).coeffs:
                            pushed = pushed + c * assignment[t]
                        image = dst.d(z) if not z.is_zero else Chain.zero(p - 1)
                        if image != pushed:
                            continue
                    new = dict(assignment)
                    new[token] = z
                    grown.append(new)
            partials = grown
    return [morphism_from_dict(src, dst, images) for images in partials]


def brute_cells(K, dim, bound):
    """All dim-cells with coefficients <= bound, straight from the axioms."""
    levels = [bounded_chains(K, p, bound) for p in range(dim + 1)]
    rows = [
        (x, y)
        for x in levels[0]
        for y in levels[0]
        if K.e(x) == 1 and K.e(y) == 1 and (dim or x == y)  # a 0-cell's entries agree
    ]
    stacks = [((x,), (y,)) for x, y in rows]
    for p in range(1, dim + 1):
        grown = []
        for x0, x1 in stacks:
            want = x1[-1] - x0[-1]
            for a in levels[p]:
                if K.d(a) != want:
                    continue
                if p == dim:
                    grown.append((x0 + (a,), x1 + (a,)))
                else:
                    for b in levels[p]:
                        if K.d(b) == want:
                            grown.append((x0 + (a,), x1 + (b,)))
        stacks = grown
    from steiner_lab import CellTableau

    return [CellTableau(K, x0, x1) for x0, x1 in stacks]


def globe_complex(i):
    """G_i, the complex whose morphisms into K are the i-cells of nu(K):
    sources s_k and targets t_k for k < i, with d s_k = d t_k = t_{k-1} -
    s_{k-1}, and the top x with d x = t_{i-1} - s_{i-1}.  The targets are
    named y_k, so that token names sort as the rows of the top's atom,
    s_0 < ... < s_{i-1} < x < y_0 < ... < y_{i-1}."""
    basis = [[f"s{k}", f"y{k}"] for k in range(i)] + [["x"]]
    diff = {}
    for k in range(1, i + 1):
        boundary = Chain.make(k - 1, {f"y{k - 1}": 1, f"s{k - 1}": -1})
        for token in basis[k]:
            diff[token] = boundary
    return DirComplex(basis, diff, {t: 1 for t in basis[0]})


def join_complex(K, L):
    """The join K * L of augmented complexes (Ara-Maltsiniotis): tokens
    "x*" for x in K, "*y" for y in L, and "x*y" in degree |x| + |y| + 1 with
    d(x * y) = dx * y + (-1)^(|x|+1) x * dy, where d of a vertex is its
    augmentation times the empty join factor."""
    basis = [[] for _ in range(K.dim + L.dim + 2)]
    diff, aug = {}, {}
    for C, name in ((K, "{}*"), (L, "*{}")):
        for x, p in C.graded():
            basis[p].append(name.format(x))
            if p:
                faces = {name.format(t): c for t, c in C.diff_of(x).coeffs}
                diff[name.format(x)] = Chain.make(p - 1, faces)
            else:
                aug[name.format(x)] = C.aug_of(x)
    for x, p in K.graded():
        for y, q in L.graded():
            dx = [(f"*{y}", K.aug_of(x))] if p == 0 else [
                (f"{t}*{y}", c) for t, c in K.diff_of(x).coeffs]
            dy = [(f"{x}*", L.aug_of(y))] if q == 0 else [
                (f"{x}*{t}", c) for t, c in L.diff_of(y).coeffs]
            sign = (-1) ** (p + 1)
            basis[p + q + 1].append(f"{x}*{y}")
            diff[f"{x}*{y}"] = Chain.make(p + q, dx + [(t, sign * c) for t, c in dy])
    return DirComplex(basis, diff, aug)


def loopfree_by_networkx(K):
    """Loop-freeness as a networkx cycle check: in each degree i, no cycle in
    the graph with an edge a -> b whenever a is in the source row and b in
    the target row, in degree i, of the atom of a higher generator."""
    for i in K.degrees():
        graph = nx.DiGraph()
        graph.add_nodes_from(K.tokens(i))
        for p in range(i + 1, K.dim + 1):
            for t in K.tokens(p):
                atom = _atom(K, t)
                x0, x1 = atom.x0[i], atom.x1[i]
                graph.add_edges_from(itertools.product(x0.support(), x1.support()))
        if not nx.is_directed_acyclic_graph(graph):
            return False
    return True


def functoriality_failures(X, through, generators_only=False):
    """The (phi, psi, x) with X(phi.psi)(x) != X(psi)(X(phi)(x)), one ``act``
    per operator application, in the order of ``identity_failures``."""
    from steiner_lab.simplex import all_monotone_maps, degeneracy_map, face_map

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
                for psi in seconds:
                    for x in X.simplices(n):
                        lhs = X.act(phi.compose(psi), x)
                        rhs = X.act(psi, X.act(phi, x))
                        if lhs != rhs:
                            failures.append((phi, psi, x))
    return failures


def oracle_c(phi):
    """c(phi) built simplex by simplex as the chains functor defines it: a
    strictly increasing tuple t goes to the simplex phi(t), or to 0 when phi
    repeats a value on t."""
    from steiner_lab.simplex import c_delta, simplex_chain, simplex_token

    images = {}
    for p in range(phi.src + 1):
        for tup in itertools.combinations(range(phi.src + 1), p + 1):
            values = tuple(phi(i) for i in tup)
            collapsed = len(set(values)) < len(values)
            images[simplex_token(tup)] = Chain.zero(p) if collapsed else simplex_chain(values)
    return morphism_from_dict(c_delta(phi.src), c_delta(phi.dst), images)


def apply_by_make(f, x):
    """f(x) as one raw term list, f's image of each token scaled by its
    coefficient in x, summed by ``Chain.make``."""
    return Chain.make(
        x.degree, [(s, c * k) for t, c in x.coeffs for s, k in f.image_of(t).coeffs]
    )


def composite_by_make(f, g):
    """The images of f . g in g's source basis order, each summed from its
    raw terms by ``Chain.make``."""
    return tuple(apply_by_make(f, x) for x in g.images)


def sum_by_make(x, y, sign):
    """x + sign * y from the concatenated term lists, summed by ``Chain.make``."""
    return Chain.make(x.degree, list(x.coeffs) + [(t, sign * c) for t, c in y.coeffs])
