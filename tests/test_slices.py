import dataclasses
import itertools
import re

import pytest

from oracles import morphism_from_dict
from steiner_lab import (
    AdcMorphism,
    Chain,
    c_delta,
    atom_cell,
    c_of_map,
    check_morphism,
    compose,
    enumerate_cells,
    enumerate_slice_cells,
    identity_morphism,
    identity_oplax,
    map_cell,
    object_cell,
    oplax_component,
    slice_compose,
    slice_functor,
    slice_identity,
    source,
    source_iter,
    target,
    target_iter,
    vertical_compose,
)
from steiner_lab.cells import cell_problems, identity
from steiner_lab.nerves import enumerate_morphisms, hom_enumerate
from steiner_lab.simplex import MonotoneMap, face_map
from steiner_lab.tensor import tensor_chains
from steiner_lab.slices import (
    INTERVAL_EDGE,
    INTERVAL_SRC,
    INTERVAL_TGT,
    OplaxTransformation,
    constant_morphism,
    cylinder_cell,
    cylinder_complex,
    cylinder_fold,
    pair_from_slice_family,
    precompose_oplax,
    slice_cell_from_pair,
    slice_iterated_identity,
    slice_problems,
    slice_source_iter,
    slice_target_iter,
)
from steiner_lab.tensor import pushout_complex, tensor_injection, tensor_token


def triangle_slice():
    K = c_delta(2)
    return identity_morphism(K), Chain.unit(0, "0")


def slice_cells_through(u, c, dim):
    cells = []
    for i in range(dim + 1):
        level, complete = enumerate_slice_cells(u, c, i)
        assert complete
        cells.append(level)
    return cells


# -- tableau structure -------------------------------------------------------

def test_slice_counts_over_the_triangle():
    u, c = triangle_slice()
    levels = slice_cells_through(u, c, 2)
    assert [len(l) for l in levels] == [4, 11, 12]
    for level in levels:
        for cell in level:
            assert slice_problems(cell) == []


def test_spec_one_cell_of_the_vertex_slice():
    u, c = triangle_slice()
    K = u.source
    ones, _ = enumerate_slice_cells(u, c, 1)
    wanted = [
        z
        for z in ones
        if z.a0[1] == atom_cell(K, "1,2") and z.t0[1].top == Chain.unit(2, "0,1,2")
    ]
    assert len(wanted) == 1
    cell = wanted[0]
    s, t = slice_source_iter(cell, 0), slice_target_iter(cell, 0)
    assert s.a0[0].top == Chain.unit(0, "1")
    assert s.t0[0].top == Chain.unit(1, "0,1")
    assert t.a0[0].top == Chain.unit(0, "2")
    assert t.t0[0].top == Chain.unit(1, "0,2")


def test_slice_source_of_object_raises():
    u, c = triangle_slice()
    objs, _ = enumerate_slice_cells(u, c, 0)
    with pytest.raises(ValueError):
        slice_source_iter(objs[0], -1)


def _vertex_two_objects():
    """The triangle slice's 0-cell over the vertex 1, and its two 0-cells
    over the vertex 2: by the edge 0,2 and by the path 0,1 + 1,2."""
    objs, _ = enumerate_slice_cells(*triangle_slice(), 0)
    by_top = {z.t0[0].top: z for z in objs}
    tops = ({"0,1": 1}, {"0,2": 1}, {"0,1": 1, "1,2": 1})
    return tuple(by_top[Chain.make(1, top)] for top in tops)


def test_slice_problems_name_each_broken_condition():
    one, edge, path = _vertex_two_objects()
    assert slice_problems(dataclasses.replace(edge, t1=path.t0)) == ["top coherence entries differ"]
    assert slice_problems(dataclasses.replace(edge, c=Chain.unit(0, "1"))) == [
        "source of alpha^0_1 is wrong", "source of alpha^1_1 is wrong"
    ]
    assert slice_problems(dataclasses.replace(edge, a=one.a)) == [
        "target of alpha^0_1 is wrong", "target of alpha^1_1 is wrong"
    ]


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(a=atom_cell(c_delta(1), "0")), "the a-cell is not a cell over the source"),
        (dict(t0=()), "both coherence rows must have dim+1 entries"),
        (dict(t0=(object_cell(c_delta(2), Chain.unit(0, "0")),)),
         "coherence entry 0 is not a 1-cell"),
    ],
    ids=["a over another complex", "short coherence row", "coherence of the wrong dimension"],
)
def test_slice_problems_refuses_malformed_cells(change, message):
    cell = _vertex_two_objects()[1]
    with pytest.raises(ValueError, match=re.escape(message)):
        slice_problems(dataclasses.replace(cell, **change))


def test_slice_identity_round_trip():
    u, c = triangle_slice()
    objs, _ = enumerate_slice_cells(u, c, 0)
    for z in objs:
        one = slice_identity(z)
        assert not slice_problems(one)
        assert slice_source_iter(one, 0) == z and slice_target_iter(one, 0) == z


def test_globularity_on_slice_two_cells():
    u, c = triangle_slice()
    twos, _ = enumerate_slice_cells(u, c, 2)
    for z in twos:
        s, t = slice_source_iter(z, 1), slice_target_iter(z, 1)
        assert slice_source_iter(s, 0) == slice_source_iter(t, 0)
        assert slice_target_iter(s, 0) == slice_target_iter(t, 0)


def test_slice_composition_validates_and_unit_laws():
    u, c = triangle_slice()
    ones, _ = enumerate_slice_cells(u, c, 1)
    composed = 0
    for x, y in itertools.product(ones, repeat=2):
        if slice_source_iter(x, 0) != slice_target_iter(y, 0):
            continue
        z = slice_compose(x, y, 0)
        assert slice_problems(z) == []
        composed += 1
    assert composed > 0
    for x in ones:
        assert slice_compose(x, slice_identity(slice_source_iter(x, 0)), 0) == x
        assert slice_compose(slice_identity(slice_target_iter(x, 0)), x, 0) == x


def test_slice_composability_is_the_levelwise_match():
    # x *_j y is defined iff, after padding, all four rows of x and y agree
    # below level j and x's lower rows meet y's upper rows at level j
    u, c = triangle_slice()
    cells = [z for i in (1, 2) for z in enumerate_slice_cells(u, c, i)[0]]
    composed = refused = 0
    for x, y in itertools.product(cells, repeat=2):
        i = max(x.dim, y.dim)
        px, py = slice_iterated_identity(x, i), slice_iterated_identity(y, i)
        for j in range(i):
            below = all(
                (px.a0[k], px.a1[k], px.t0[k], px.t1[k])
                == (py.a0[k], py.a1[k], py.t0[k], py.t1[k])
                for k in range(j)
            )
            if below and (px.a0[j], px.t0[j]) == (py.a1[j], py.t1[j]):
                slice_compose(x, y, j)
                composed += 1
            else:
                with pytest.raises(ValueError, match=f"not {j}-composable"):
                    slice_compose(x, y, j)
                refused += 1
    assert (composed, refused) == (129, 808)


def test_slice_associativity_in_the_tetrahedron_slice():
    u = identity_morphism(c_delta(3))
    c = Chain.unit(0, "0")
    ones, complete = enumerate_slice_cells(u, c, 1)
    assert complete
    by_target = {}
    for y in ones:
        by_target.setdefault(slice_target_iter(y, 0), []).append(y)
    triples = 0
    for x in ones:
        for y in by_target.get(slice_source_iter(x, 0), []):
            for z in by_target.get(slice_source_iter(y, 0), []):
                lhs = slice_compose(slice_compose(x, y, 0), z, 0)
                rhs = slice_compose(x, slice_compose(y, z, 0), 0)
                assert lhs == rhs
                triples += 1
    assert triples > 0


def test_slice_interchange_on_two_cells():
    u, c = triangle_slice()
    twos, _ = enumerate_slice_cells(u, c, 2)
    checked = 0
    for x, y in itertools.product(twos, repeat=2):
        if slice_source_iter(x, 1) != slice_target_iter(y, 1):
            continue
        for z, w in itertools.product(twos, repeat=2):
            if slice_source_iter(z, 1) != slice_target_iter(w, 1):
                continue
            xy = slice_compose(x, y, 1)
            zw = slice_compose(z, w, 1)
            if slice_source_iter(xy, 0) != slice_target_iter(zw, 0):
                continue
            if (
                slice_source_iter(x, 0) != slice_target_iter(z, 0)
                or slice_source_iter(y, 0) != slice_target_iter(w, 0)
            ):
                continue
            lhs = slice_compose(xy, zw, 0)
            rhs = slice_compose(
                slice_compose(x, z, 0), slice_compose(y, w, 0), 1
            )
            assert lhs == rhs
            checked += 1
    assert checked > 0


# -- cylinders and oplax transformations ----------------------------------------

def test_cylinder_rows_of_an_edge_atom():
    K = c_delta(2)
    a = atom_cell(K, "1,2")
    cy = cylinder_cell(a)
    lo = Chain.make(1, {tensor_token("0", "1,2"): 1, tensor_token("0,1", "2"): 1})
    hi = Chain.make(1, {tensor_token("1", "1,2"): 1, tensor_token("0,1", "1"): 1})
    assert cy.x0[1] == lo and cy.x1[1] == hi
    assert cy.top == Chain.unit(2, tensor_token("0,1", "1,2"))
    assert not cell_problems(cy)


def test_cylinder_of_an_object_is_the_edge_atom():
    K = c_delta(2)
    obj = object_cell(K, Chain.unit(0, "1"))
    T = cylinder_complex(K)
    assert cylinder_cell(obj) == atom_cell(T, tensor_token("0,1", "1"))


def test_cylinder_cells_validate_in_all_low_dimensions():
    K = c_delta(2)
    for i in range(3):
        for a in enumerate_cells(K, i).cells:
            assert not cell_problems(cylinder_cell(a))


def tautological_oplax(K):
    """The oplax transformation carried by the cylinder itself."""
    T = cylinder_complex(K)
    return OplaxTransformation(identity_morphism(T))


def test_oplax_component_boundary_equation():
    K = c_delta(2)
    T = tautological_oplax(K)
    u_end = tensor_injection(c_delta(1), K, INTERVAL_SRC)
    v_end = tensor_injection(c_delta(1), K, INTERVAL_TGT)
    for i in range(1, 3):
        for a in enumerate_cells(K, i).cells:
            comp = oplax_component(T, a)
            tgt = map_cell(v_end, a)
            for j in range(i):
                tgt = compose(tgt, oplax_component(T, source_iter(a, j)), j)
            assert target(comp) == tgt
            src = map_cell(u_end, a)
            for j in range(i):
                src = compose(oplax_component(T, target_iter(a, j)), src, j)
            assert source(comp) == src


def test_constant_source_simplification():
    # with a constant source functor the component's source collapses to the
    # component at the target boundary cell
    K = c_delta(2)
    L = c_delta(2)
    c = Chain.unit(0, "0")
    const = constant_morphism(K, L, c)
    fixed = {}
    for p in K.degrees():
        for b in K.tokens(p):
            fixed[tensor_token(INTERVAL_SRC, b)] = const.image_of(b)
            fixed[tensor_token(INTERVAL_TGT, b)] = identity_morphism(L).image_of(b)
    hs, complete = enumerate_morphisms(cylinder_complex(K), L, fixed=fixed)
    assert complete and hs
    for h in hs:
        T = OplaxTransformation(h)
        for i in range(1, 3):
            for a in enumerate_cells(K, i).cells:
                comp = oplax_component(T, a)
                assert source(comp) == oplax_component(T, target(a))


def test_oplax_functoriality_axioms():
    K = c_delta(2)
    T = tautological_oplax(K)
    cells = []
    for i in range(3):
        cells.extend(enumerate_cells(K, i).cells)
    for a in cells:
        assert oplax_component(T, identity(a)) == identity(oplax_component(T, a))
    u = tensor_injection(c_delta(1), K, INTERVAL_SRC)
    v = tensor_injection(c_delta(1), K, INTERVAL_TGT)
    by_dim = {}
    for a in cells:
        by_dim.setdefault(a.dim, []).append(a)
    for i in (1, 2):
        for j in range(i):
            for x in by_dim[i]:
                for y in by_dim[i]:
                    if source_iter(x, j) != target_iter(y, j):
                        continue
                    left = map_cell(v, target_iter(x, j + 1))
                    for l in range(j):
                        left = compose(
                            left, oplax_component(T, source_iter(y, l)), l
                        )
                    left = compose(left, oplax_component(T, y), j)
                    right = oplax_component(T, x)
                    tail = map_cell(u, source_iter(y, j + 1))
                    for l in range(j - 1, -1, -1):
                        tail = compose(
                            oplax_component(T, target_iter(x, l)), tail, l
                        )
                    right = compose(right, tail, j)
                    assert oplax_component(T, compose(x, y, j)) == compose(
                        left, right, j + 1
                    )


# -- vertical composition ---------------------------------------------------------

def square_to_tetra_transformations():
    T = cylinder_complex(c_delta(1))
    hs, complete = enumerate_morphisms(T, c_delta(3))
    assert complete
    return [OplaxTransformation(h) for h in hs]


def test_vertical_composition_exhaustively():
    K = c_delta(1)
    ts = square_to_tetra_transformations()
    by_source = {}
    for t in ts:
        by_source.setdefault(t.source_functor(K), []).append(t)
    pairs = 0
    for alpha in ts:
        for beta in by_source.get(alpha.target_functor(K), []):
            comp = vertical_compose(beta, alpha, K)
            assert check_morphism(comp.h).ok
            assert comp.source_functor(K) == alpha.source_functor(K)
            assert comp.target_functor(K) == beta.target_functor(K)
            pairs += 1
    assert pairs > 0


def test_vertical_composition_matches_pushout_route():
    K = c_delta(1)
    I = c_delta(1)
    ts = square_to_tetra_transformations()
    T = cylinder_complex(K)
    Q = pushout_complex(
        tensor_injection(I, K, INTERVAL_SRC), tensor_injection(I, K, INTERVAL_TGT)
    )
    from steiner_lab.tensor import tensor_chains

    images = {}
    for p in K.degrees():
        for token in K.tokens(p):
            base = Chain.unit(K.degree_of(token), token)
            images[tensor_token(INTERVAL_SRC, token)] = Q.right.apply(
                tensor_chains(Chain.unit(0, INTERVAL_SRC), base)
            )
            images[tensor_token(INTERVAL_TGT, token)] = Q.left.apply(
                tensor_chains(Chain.unit(0, INTERVAL_TGT), base)
            )
            images[tensor_token(INTERVAL_EDGE, token)] = Q.left.apply(
                tensor_chains(Chain.unit(1, INTERVAL_EDGE), base)
            ) + Q.right.apply(tensor_chains(Chain.unit(1, INTERVAL_EDGE), base))
    fold = morphism_from_dict(T, Q.complex, images)
    by_source = {}
    for t in ts:
        by_source.setdefault(t.source_functor(K), []).append(t)
    for alpha in ts:
        for beta in by_source.get(alpha.target_functor(K), []):
            direct = vertical_compose(beta, alpha, K)
            routed = Q.induced(beta.h, alpha.h).after(fold)
            assert direct.h == routed


def test_vertical_composition_associativity():
    K = c_delta(1)
    ts = square_to_tetra_transformations()
    by_source = {}
    for t in ts:
        by_source.setdefault(t.source_functor(K), []).append(t)
    triples = 0
    for alpha in ts:
        for beta in by_source.get(alpha.target_functor(K), []):
            for gamma in by_source.get(beta.target_functor(K), []):
                lhs = vertical_compose(gamma, vertical_compose(beta, alpha, K), K)
                rhs = vertical_compose(vertical_compose(gamma, beta, K), alpha, K)
                assert lhs == rhs
                triples += 1
    assert triples > 0


def test_vertical_unit():
    K = c_delta(1)
    for alpha in square_to_tetra_transformations():
        assert vertical_compose(identity_oplax(alpha.target_functor(K)), alpha, K) == alpha
        assert vertical_compose(alpha, identity_oplax(alpha.source_functor(K)), K) == alpha


def test_cylinder_fold_is_forced():
    P, fold = cylinder_fold(c_delta(0))
    start, end, edge = (tensor_token(e, "0") for e in (INTERVAL_SRC, INTERVAL_TGT, INTERVAL_EDGE))
    assert check_morphism(fold).ok
    assert fold.image_of(start) == P.right.apply(Chain.unit(0, start))
    assert fold.image_of(end) == P.left.apply(Chain.unit(0, end))
    want = P.left.apply(Chain.unit(1, edge)) + P.right.apply(Chain.unit(1, edge))
    assert fold.image_of(edge) == want
    fixed = {start: fold.image_of(start), end: fold.image_of(end)}
    candidates, complete = enumerate_morphisms(fold.source, P.complex, fixed=fixed)
    assert complete and candidates == [fold]


def _stacked_by_tokens(beta, alpha):
    """The vertical composite's cylinder map, token by token: alpha's start,
    beta's end, and the sum of the two edge components."""
    images = tuple(
        a if token.startswith(tensor_token(INTERVAL_SRC, ""))
        else b if token.startswith(tensor_token(INTERVAL_TGT, ""))
        else b + a
        for token, a, b in zip(alpha.h.source.index, alpha.h.images, beta.h.images)
    )
    return AdcMorphism(alpha.h.source, alpha.h.target, images)


def test_vertical_composition_refuses_unstacked_pairs():
    # 572 of the 144 * 144 ordered pairs of transformations cyl(cDelta1) ->
    # cDelta3 are stacked and compose as the token-by-token formula; every
    # other pair is refused rather than given a map that is not a chain map
    K = c_delta(1)
    ts = square_to_tetra_transformations()
    assert len(ts) == 144
    stacked = 0
    for alpha, beta in itertools.product(ts, repeat=2):
        if beta.source_functor(K) == alpha.target_functor(K):
            assert vertical_compose(beta, alpha, K).h == _stacked_by_tokens(beta, alpha)
            stacked += 1
        else:
            with pytest.raises(ValueError, match="disagree on the base"):
                vertical_compose(beta, alpha, K)
    assert stacked == 572


@pytest.mark.parametrize("c", [
    Chain.unit(0, "zz"),  # not a token of the target
    Chain.make(0, {"0": 2}),  # augmentation 2
    Chain.unit(1, "0,1"),  # degree 1
    Chain.make(0, {"0": 2, "1": -1}),  # augmentation 1, not positive
], ids=["unknown token", "augmentation two", "degree one", "not positive"])
def test_slice_enumeration_rejects_a_non_object(c):
    with pytest.raises(ValueError, match="not an object chain"):
        enumerate_slice_cells(identity_morphism(c_delta(2)), c, 1)


# -- the induced functor on slices --------------------------------------------------

def test_slice_functor_specialization():
    u = c_of_map(face_map(2, 2))  # interval into the (0,1)-edge
    K2 = c_delta(2)
    w = identity_morphism(K2)
    alpha = identity_oplax(u)
    act = slice_functor(u, u, w, alpha)
    c = Chain.unit(0, "0")
    for i in range(3):
        level, _ = enumerate_slice_cells(u, c, i)
        for cell in level:
            image = act(cell)
            assert slice_problems(image) == []
            assert image.a0 == tuple(map_cell(u, a) for a in cell.a0)
            assert image.t0 == cell.t0 and image.t1 == cell.t1


def nontrivial_triangle():
    """u: interval -> triangle on the (1,2)-edge, left leg on the long edge;
    the comparison transformation carries the full 2-cell of the triangle."""
    K1, K2 = c_delta(1), c_delta(2)
    u = c_of_map(face_map(2, 0))
    w = identity_morphism(K2)
    v = c_of_map(MonotoneMap(1, 2, (0, 2)))
    h_images = {
        tensor_token(INTERVAL_SRC, "0"): Chain.unit(0, "0"),
        tensor_token(INTERVAL_SRC, "1"): Chain.unit(0, "2"),
        tensor_token(INTERVAL_SRC, "0,1"): Chain.unit(1, "0,2"),
        tensor_token(INTERVAL_TGT, "0"): Chain.unit(0, "1"),
        tensor_token(INTERVAL_TGT, "1"): Chain.unit(0, "2"),
        tensor_token(INTERVAL_TGT, "0,1"): Chain.unit(1, "1,2"),
        tensor_token(INTERVAL_EDGE, "0"): Chain.unit(1, "0,1"),
        tensor_token(INTERVAL_EDGE, "1"): Chain.zero(1),
        tensor_token(INTERVAL_EDGE, "0,1"): Chain.unit(2, "0,1,2"),
    }
    alpha = OplaxTransformation(morphism_from_dict(cylinder_complex(K1), K2, h_images))
    assert check_morphism(alpha.h).ok
    return u, v, w, alpha


def test_slice_functor_on_a_nontrivial_triangle():
    u, v, w, alpha = nontrivial_triangle()
    act = slice_functor(u, v, w, alpha)
    c = Chain.unit(0, "0")
    levels = []
    for i in range(3):
        level, complete = enumerate_slice_cells(v, c, i)
        assert complete
        levels.append(level)
        for cell in level:
            image = act(cell)
            assert slice_problems(image) == []
    for cell in levels[1] + levels[2]:
        j = cell.dim - 1
        s, t = slice_source_iter(cell, j), slice_target_iter(cell, j)
        assert act(s) == slice_source_iter(act(cell), j)
        assert act(t) == slice_target_iter(act(cell), j)
    for cell in levels[0] + levels[1]:
        assert act(slice_identity(cell)) == slice_identity(act(cell))
    for x, y in itertools.product(levels[1], repeat=2):
        if slice_source_iter(x, 0) != slice_target_iter(y, 0):
            continue
        assert act(slice_compose(x, y, 0)) == slice_compose(act(x), act(y), 0)


# -- classification of functors into the slice --------------------------------------

def slice_pairs(K, KA, u, c, n):
    """All (a, T) with a: chains of the n-simplex -> KA and T: const_c => u.a."""
    Kn = c_delta(n)
    const = constant_morphism(Kn, u.target, c)
    out = []
    a_list, complete = enumerate_morphisms(Kn, KA)
    assert complete
    for a in a_list:
        ua = u.after(a)
        fixed = {}
        for p in Kn.degrees():
            for b in Kn.tokens(p):
                fixed[tensor_token(INTERVAL_SRC, b)] = const.image_of(b)
                fixed[tensor_token(INTERVAL_TGT, b)] = ua.image_of(b)
        hs, complete = enumerate_morphisms(cylinder_complex(Kn), u.target, fixed=fixed)
        assert complete
        out.extend((a, OplaxTransformation(h)) for h in hs)
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pair_classification_round_trip(n):
    K = c_delta(2)
    u, c = identity_morphism(K), Chain.unit(0, "0")
    shape = c_delta(n)
    shape_cells = []
    for i in range(n + 1):
        shape_cells.extend(enumerate_cells(shape, i).cells)
    pairs = slice_pairs(K, K, u, c, n)
    seen = set()
    for a, T in pairs:
        family = {x: slice_cell_from_pair(u, c, a, T, x) for x in shape_cells}
        for x, image in family.items():
            assert slice_problems(image) == []
            if x.dim > 0:
                assert slice_source_iter(image, x.dim - 1) == family[source(x)]
                assert slice_target_iter(image, x.dim - 1) == family[target(x)]
        for j in range(n):
            for x in shape_cells:
                for y in shape_cells:
                    if x.dim != y.dim or x.dim <= j:
                        continue
                    if source_iter(x, j) != target_iter(y, j):
                        continue
                    assert family[compose(x, y, j)] == slice_compose(
                        family[x], family[y], j
                    )
        a2, T2 = pair_from_slice_family(u, c, shape, family)
        assert a2 == a and T2.h == T.h
        seen.add((a, T.h))
    assert len(seen) == len(pairs)


def test_family_images_exhaust_slice_cells():
    # dimension-0 check: the objects hit by classified families are exactly
    # the enumerated slice objects
    K = c_delta(2)
    u, c = identity_morphism(K), Chain.unit(0, "0")
    point = c_delta(0)
    obj = object_cell(point, Chain.unit(0, "0"))
    images = {
        slice_cell_from_pair(u, c, a, T, obj)
        for a, T in slice_pairs(K, K, u, c, 0)
    }
    level, _ = enumerate_slice_cells(u, c, 0)
    assert images == set(level)


def test_fold_tensor_is_a_chain_map():
    # the glued-interval fold tensored with the base complex
    K = c_delta(1)
    I = c_delta(1)
    Q = pushout_complex(
        tensor_injection(I, K, INTERVAL_SRC), tensor_injection(I, K, INTERVAL_TGT)
    )
    T = cylinder_complex(K)
    images = {}
    for p in K.degrees():
        for token in K.tokens(p):
            base = Chain.unit(K.degree_of(token), token)
            images[tensor_token(INTERVAL_SRC, token)] = Q.right.apply(
                tensor_chains(Chain.unit(0, INTERVAL_SRC), base)
            )
            images[tensor_token(INTERVAL_TGT, token)] = Q.left.apply(
                tensor_chains(Chain.unit(0, INTERVAL_TGT), base)
            )
            images[tensor_token(INTERVAL_EDGE, token)] = Q.left.apply(
                tensor_chains(Chain.unit(1, INTERVAL_EDGE), base)
            ) + Q.right.apply(tensor_chains(Chain.unit(1, INTERVAL_EDGE), base))
    fold = morphism_from_dict(T, Q.complex, images)
    assert check_morphism(fold).ok


def test_whisker_composites_fail_the_interchange_rule():
    # transformations compose vertically and whisker on both sides, but the
    # two ways around a square of whiskered composites genuinely differ, so
    # no horizontal composition is definable
    K0, K1, K2 = c_delta(0), c_delta(1), c_delta(2)
    f = morphism_from_dict(K0, K1, {"0": Chain.unit(0, "0")})
    g = morphism_from_dict(K0, K1, {"0": Chain.unit(0, "1")})
    alpha = OplaxTransformation(
        morphism_from_dict(
            cylinder_complex(K0),
            K1,
            {
                tensor_token(INTERVAL_SRC, "0"): Chain.unit(0, "0"),
                tensor_token(INTERVAL_TGT, "0"): Chain.unit(0, "1"),
                tensor_token(INTERVAL_EDGE, "0"): Chain.unit(1, "0,1"),
            },
        )
    )
    _, h, k, beta = nontrivial_triangle()  # h: long edge, k: (1,2)-edge
    h, k = beta.source_functor(K1), beta.target_functor(K1)
    one = vertical_compose(OplaxTransformation(k.after(alpha.h)), precompose_oplax(beta, f), K0)
    two = vertical_compose(precompose_oplax(beta, g), OplaxTransformation(h.after(alpha.h)), K0)
    assert one.source_functor(K0) == two.source_functor(K0)
    assert one.target_functor(K0) == two.target_functor(K0)
    assert one.h != two.h
    assert one.shift(Chain.unit(0, "0")) == Chain.make(1, {"0,1": 1, "1,2": 1})
    assert two.shift(Chain.unit(0, "0")) == Chain.unit(1, "0,2")


# -- the cylinder composites against their token-by-token formulas ----------------

def token_identity_oplax(u):
    """The identity transformation of u built token by token: both ends of
    the cylinder go to u's images, every edge token to zero."""
    images = {}
    for (b, p), ub in zip(u.source.graded(), u.images):
        images[tensor_token(INTERVAL_SRC, b)] = ub
        images[tensor_token(INTERVAL_TGT, b)] = ub
        images[tensor_token(INTERVAL_EDGE, b)] = Chain.zero(p + 1)
    return morphism_from_dict(cylinder_complex(u.source), u.target, images)


def token_precompose(T, f):
    """T whiskered by f built token by token: the ends through T.h, the
    edge through T.shift."""
    images = {}
    for b in f.source.index:
        fb = f.image_of(b)
        for end in (INTERVAL_SRC, INTERVAL_TGT):
            images[tensor_token(end, b)] = T.h.apply(tensor_chains(Chain.unit(0, end), fb))
        images[tensor_token(INTERVAL_EDGE, b)] = T.shift(fb)
    return morphism_from_dict(cylinder_complex(f.source), T.h.target, images)


def whiskering_cases():
    """(T, a) for T the nontrivial triangle's transformation over cDelta(1)
    and the identity transformation of cDelta(2), each with every map a
    from cDelta(n), n <= 2, into its base: 2 + 3 + 4 and 3 + 7 + 15 maps."""
    _, _, _, alpha = nontrivial_triangle()
    K2 = c_delta(2)
    unit = OplaxTransformation(token_identity_oplax(identity_morphism(K2)))
    cases = [
        (T, a)
        for T, K in ((alpha, c_delta(1)), (unit, K2))
        for n in range(3)
        for a in hom_enumerate(n, K)
    ]
    assert len(cases) == 34
    return cases


def test_end_functors_are_the_end_images():
    for T, a in whiskering_cases():
        for S, K in ((T, a.target), (precompose_oplax(T, a), a.source)):
            for end, functor in (
                (INTERVAL_SRC, S.source_functor(K)), (INTERVAL_TGT, S.target_functor(K))
            ):
                assert (functor.source, functor.target) == (K, S.h.target)
                assert functor.images == tuple(
                    S.h.image_of(tensor_token(end, b)) for b in K.index
                )


def test_identity_transformation_is_the_degenerate_cylinder():
    for T, a in whiskering_cases():
        K = a.target
        for u in (a, T.source_functor(K).after(a), T.target_functor(K).after(a)):
            assert identity_oplax(u).h == token_identity_oplax(u)


def test_whiskering_is_the_token_by_token_build():
    for T, a in whiskering_cases():
        assert precompose_oplax(T, a).h == token_precompose(T, a)
