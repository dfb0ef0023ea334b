import json

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from steiner_lab import (
    Chain,
    DirComplex,
    atom_cell,
    c_delta,
    check_morphism,
    identity_morphism,
    is_loopfree,
    is_unitary,
    pos_neg_decompose,
    strong_loopfree_order,
    strong_preorder_is_total,
    tensor_complex,
    validate_complex,
)
from steiner_lab.cells import _atom
from steiner_lab.chains import _matched, _toposort
from steiner_lab.serialize import morphism_from_json, morphism_to_json
from steiner_lab.simplex import all_monotone_maps, c_of_map
from oracles import (
    apply_by_make,
    composite_by_make,
    loopfree_by_networkx,
    morphism_from_dict,
    sum_by_make,
)


def chain(degree, items):
    return Chain.make(degree, items)


def _tokens(K):
    return [t for p in K.degrees() for t in K.tokens(p)]


# -- chains ----------------------------------------------------------------

def test_canonical_form_drops_zeros_and_sorts():
    c = chain(1, {"b": 2, "a": 1, "c": 0})
    assert c.coeffs == (("a", 1), ("b", 2))
    assert (c - c).is_zero


def test_pos_neg_examples():
    x = chain(1, {"1,2": 1, "0,2": -1, "0,1": 1})
    pos, neg = pos_neg_decompose(x)
    assert pos == chain(1, {"1,2": 1, "0,1": 1})
    assert neg == chain(1, {"0,2": 1})
    assert pos_neg_decompose(Chain.zero(3)) == (Chain.zero(3), Chain.zero(3))
    triple = chain(1, {"0,1": 3})
    assert pos_neg_decompose(triple) == (triple, Chain.zero(1))


tokens = st.sampled_from(["a", "b", "c", "d", "e"])
chains = st.dictionaries(tokens, st.integers(-9, 9), max_size=5).map(
    lambda d: Chain.make(0, d)
)


def test_zero_operands_return_the_other_chain():
    x = chain(1, {"a": 2, "b": -1})
    zero = Chain.zero(1)
    assert x + zero is x and zero + x is x and x - zero is x
    assert zero - x == -x == chain(1, {"a": -2, "b": 1})
    for left, right in ((zero, Chain.unit(0, "a")), (Chain.unit(0, "a"), zero)):
        with pytest.raises(ValueError, match="degree mismatch"):
            left + right
        with pytest.raises(ValueError, match="degree mismatch"):
            left - right


@given(chains)
def test_pos_neg_recombines_with_disjoint_support(x):
    pos, neg = pos_neg_decompose(x)
    assert pos - neg == x
    assert pos.is_positive and neg.is_positive
    assert not set(pos.support()) & set(neg.support())


@given(chains, chains)
def test_chain_arithmetic_is_abelian(x, y):
    assert x + y == y + x
    assert (x + y) - y == x
    assert 2 * x == x + x


def test_chain_is_an_immutable_value():
    c = chain(1, {"b": 2, "a": -1})
    for attr in ("degree", "coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(c, attr, 0)
    assert Chain(0, ()) != (0, ())
    assert not Chain(0, ()) == (0, ())
    assert (0, ()) != Chain(0, ()) and not (0, ()) == Chain(0, ())
    same = Chain(degree=1, coeffs=(("a", -1), ("b", 2)))
    assert same == c and not same != c and hash(same) == hash(c)
    assert len({c, same, chain(1, [("b", 1), ("a", -1), ("b", 1)])}) == 1
    assert c != chain(2, {"b": 2, "a": -1}) and c != chain(1, {"b": 2})
    assert repr(c) == "Chain(degree=1, coeffs=(('a', -1), ('b', 2)))"
    assert repr(Chain.zero(2)) == "Chain(degree=2, coeffs=())"
    assert str(c) == "-(a)+2(b)" and str(Chain.zero(2)) == "0"
    assert str(chain(0, {"x": 1, "y": -3})) == "(x)-3(y)"


def test_zero_and_unit_chains():
    assert Chain.zero(3) is Chain.zero(3)
    assert Chain.zero(3) == chain(3, {}) and Chain.zero(3) != Chain.zero(2)
    assert Chain.zero(100) == chain(100, {}) and Chain.zero(100).is_zero
    assert Chain.unit(1, "a") == chain(1, {"a": 1})
    assert Chain.unit(1, "a", -2) == chain(1, {"a": -2})
    assert Chain.unit(1, "a", 0) == Chain.zero(1)
    assert chain(0, {"a": 2.0}).coeffs == (("a", 2),)
    assert type(chain(0, {"a": 2.0}).coeffs[0][1]) is int


def test_cancelling_sums_are_the_shared_zero():
    x = chain(1, {"a": 2, "b": -1})
    K = c_delta(3)
    assert chain(2, {}) is Chain.zero(2)
    assert x - x is Chain.zero(1)
    assert K.d(K.d(K.unit_chain("0,1,2,3"))) is Chain.zero(1)


def test_morphism_hash_reads_images_in_basis_order():
    """Equal maps hash equal whatever order their images were filled in, so
    maps read back from JSON find the trusted ones they equal."""
    K = c_delta(2)
    f = identity_morphism(K)
    reversed_images = {t: f.image_of(t) for t in reversed(_tokens(K))}
    g = morphism_from_dict(K, K, reversed_images)
    assert list(reversed_images) != _tokens(K)
    assert g == f and hash(g) == hash(f)
    trusted = {c_of_map(phi): phi for phi in all_monotone_maps(2, 2)}
    for h, phi in trusted.items():
        data = morphism_to_json(h)
        data["images"] = dict(reversed(data["images"].items()))
        validated = morphism_from_json(json.loads(json.dumps(data)))
        assert validated is not h and trusted[validated] is phi
    partial = morphism_from_dict(K, K, {"0": Chain.unit(0, "0")})  # hashes its missing images as None
    assert partial not in trusted


def assert_canonical(x):
    assert type(x) is Chain
    tokens = [t for t, _ in x.coeffs]
    assert tokens == sorted(set(tokens))
    assert all(c != 0 for _, c in x.coeffs)


# Degrees 0 and 1, zero differential: every assignment of images is a map.
FREE = DirComplex([["a", "b", "c", "d"], ["e", "f", "g"]], {}, {})


@st.composite
def free_chains(draw, p):
    """A zero, unit, scaled-unit or several-term chain of FREE in degree p."""
    tokens = st.sampled_from(FREE.tokens(p))
    kind = draw(st.sampled_from(["zero", "unit", "scaled", "terms"]))
    if kind == "zero":
        return Chain.zero(p)
    if kind == "unit":
        return Chain.unit(p, draw(tokens))
    if kind == "scaled":
        return Chain.unit(p, draw(tokens), draw(st.sampled_from([-2, -1, 2, 3])))
    return chain(p, draw(st.lists(st.tuples(tokens, st.integers(-2, 2)), max_size=5)))


@st.composite
def free_maps(draw):
    return morphism_from_dict(FREE, FREE, {
        t: draw(free_chains(p)) for p in FREE.degrees() for t in FREE.tokens(p)
    })


def check_against_raw_sums(f, g):
    composite = f.after(g)
    assert composite.images == composite_by_make(f, g)
    for t, x in zip(_tokens(g.source), g.images):
        y = f.image_of(t)
        assert f.apply(x) == apply_by_make(f, x)
        assert x + y == sum_by_make(x, y, 1)
        assert x - y == sum_by_make(x, y, -1)
        for z in (composite.image_of(t), f.apply(x), x + y, x - y):
            assert_canonical(z)


@given(free_maps(), free_maps())
@settings(max_examples=300, deadline=None)
def test_composites_and_sums_match_raw_term_sums(f, g):
    check_against_raw_sums(f, g)


def test_composite_image_kinds():
    # f(b) = -f(a), so g's image a + b of "c" cancels to zero under f
    units = {t: Chain.unit(p, t) for p in FREE.degrees() for t in FREE.tokens(p)}
    f = morphism_from_dict(FREE, FREE, dict(
        units,
        a=chain(0, {"c": 1, "d": 2}),
        b=chain(0, {"c": -1, "d": -2}),
        d=chain(0, {"a": 3}),
    ))
    g = morphism_from_dict(FREE, FREE, dict(
        units,
        a=Chain.zero(0),                      # zero image
        b=Chain.unit(0, "d"),                 # unit image
        c=chain(0, {"a": 1, "b": 1}),         # cancels to zero
        d=Chain.unit(0, "a", -1),             # one term, coefficient -1
        e=Chain.unit(1, "f", 2),              # one term, coefficient 2
        g=chain(1, {"e": 1, "f": -1, "g": 2}),
    ))
    check_against_raw_sums(f, g)
    composite = f.after(g)
    assert composite.image_of("a") == Chain.zero(0)
    assert composite.image_of("b") == chain(0, {"a": 3})
    assert composite.image_of("c") == Chain.zero(0)
    assert composite.image_of("d") == chain(0, {"c": -1, "d": -2})
    assert composite.image_of("e") == chain(1, {"f": 2})


# -- complexes ---------------------------------------------------------------

def test_validate_triangle_chains():
    assert validate_complex(c_delta(2)).ok


def test_validate_trivial_complex():
    K = DirComplex([["v"]], {}, {"v": 1})
    assert validate_complex(K).ok


def corrupted_triangle():
    K = c_delta(2)
    diff = {t: K.diff_of(t) for p in K.degrees() if p > 0 for t in K.tokens(p)}
    diff["0,1,2"] = chain(1, {"1,2": 1, "0,2": 1, "0,1": 1})
    return DirComplex(K.basis, diff, {t: 1 for t in K.tokens(0)})


def test_validate_flags_corrupted_differential():
    report = validate_complex(corrupted_triangle())
    assert not report.ok
    assert len(report.problems) == 1
    assert "0,1,2" in report.problems[0]


def test_constructor_rejects_malformed_tables():
    with pytest.raises(ValueError):
        DirComplex([["v", "v"]], {}, {})
    with pytest.raises(ValueError):
        DirComplex([["v"], ["e"]], {"e": chain(1, {"e": 1})}, {"v": 1})
    with pytest.raises(ValueError):
        DirComplex([["v"]], {}, {"w": 1})


# -- morphisms ---------------------------------------------------------------

def test_degeneracy_collapse_is_valid():
    K1, K0 = c_delta(1), c_delta(0)
    f = morphism_from_dict(
        K1, K0, {"0": chain(0, {"0": 1}), "1": chain(0, {"0": 1}), "0,1": Chain.zero(1)}
    )
    assert check_morphism(f).ok


def test_negative_image_is_flagged():
    K = c_delta(1)
    f = morphism_from_dict(
        K,
        K,
        {"0": chain(0, {"0": 1}), "1": chain(0, {"1": 1}), "0,1": chain(1, {"0,1": -1})},
    )
    report = check_morphism(f)
    assert any("not positive" in p for p in report.problems)


def test_broken_d_compatibility_is_flagged():
    K = c_delta(1)
    f = morphism_from_dict(
        K,
        K,
        {"0": chain(0, {"0": 1}), "1": chain(0, {"0": 1}), "0,1": chain(1, {"0,1": 1})},
    )
    report = check_morphism(f)
    assert any("d-compatibility" in p for p in report.problems)


@pytest.mark.parametrize(
    "K",
    [c_delta(0), c_delta(2), tensor_complex(c_delta(1), c_delta(1))],
    ids=["point", "triangle", "square"],
)
def test_identity_passes_check(K):
    assert check_morphism(identity_morphism(K)).ok


def test_morphism_shape_errors():
    K1, K0 = c_delta(1), c_delta(0)
    missing = morphism_from_dict(K1, K0, {"0": chain(0, {"0": 1}), "1": chain(0, {"0": 1})})
    report = check_morphism(missing)
    assert not report.ok
    assert any("no image for basis token '0,1'" in p for p in report.problems)
    wrong_degree = morphism_from_dict(
        K1,
        K0,
        {
            "0": chain(0, {"0": 1}),
            "1": chain(0, {"0": 1}),
            "0,1": chain(0, {"0": 1}),
        },
    )
    report = check_morphism(wrong_degree)
    assert not report.ok
    assert any("has degree 0, expected 1" in p for p in report.problems)


# -- atoms -------------------------------------------------------------------

def test_atom_of_the_triangle():
    atom = atom_cell(c_delta(2), "0,1,2")
    assert atom.x0 == (chain(0, {"0": 1}), chain(1, {"0,2": 1}), chain(2, {"0,1,2": 1}))
    assert atom.x1 == (
        chain(0, {"2": 1}),
        chain(1, {"0,1": 1, "1,2": 1}),
        chain(2, {"0,1,2": 1}),
    )


def test_atom_of_a_vertex():
    K = DirComplex([["v"]], {}, {"v": 1})
    atom = atom_cell(K, "v")
    assert atom.x0 == atom.x1 == (chain(0, {"v": 1}),)


def test_atom_with_augmentation_two_is_not_a_cell():
    K = DirComplex(
        [["v1", "v2", "w"], ["g"]],
        {"g": chain(0, {"v1": 1, "v2": 1, "w": -1})},
        {"v1": 1, "v2": 1, "w": 1},
    )
    atom = _atom(K, "g")
    assert atom.x0[0] == chain(0, {"w": 1})
    assert atom.x1[0] == chain(0, {"v1": 1, "v2": 1})
    with pytest.raises(ValueError, match="not a cell"):
        atom_cell(K, "g")


@given(st.integers(0, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_atom_rows_satisfy_the_boundary_identity(n, data):
    K = c_delta(n)
    degree = data.draw(st.integers(0, n))
    token = data.draw(st.sampled_from(list(K.tokens(degree))))
    atom = atom_cell(K, token)
    for k in range(1, degree + 1):
        for entry in (atom.x0[k], atom.x1[k]):
            assert K.d(entry) == atom.x1[k - 1] - atom.x0[k - 1]


# -- basis predicates ---------------------------------------------------------

@pytest.mark.parametrize("n", range(5))
def test_simplex_chains_are_strong_steiner(n):
    K = c_delta(n)
    assert is_unitary(K)
    assert is_loopfree(K)
    assert strong_loopfree_order(K) is not None
    assert strong_preorder_is_total(K)


def test_square_precedence_order_is_total():
    # the generator order of the square snakes through all nine generators
    K = tensor_complex(c_delta(1), c_delta(1))
    assert strong_loopfree_order(K) is not None
    assert strong_preorder_is_total(K)


def test_disconnected_vertices_give_nontotal_order():
    K = DirComplex([["a", "b"]], {}, {"a": 1, "b": 1})
    assert strong_loopfree_order(K) is not None
    assert not strong_preorder_is_total(K)


def two_loop_complex():
    return DirComplex(
        [["a", "b"], ["g1", "g2"]],
        {"g1": chain(0, {"b": 1, "a": -1}), "g2": chain(0, {"a": 1, "b": -1})},
        {"a": 1, "b": 1},
    )


def test_two_cycle_is_not_strongly_loopfree():
    K = two_loop_complex()
    assert strong_loopfree_order(K) is None


def non_unitary_complex():
    return DirComplex(
        [["v", "w"], ["g"]],
        {"g": chain(0, {"w": 2, "v": -2})},
        {"v": 1, "w": 1},
    )


def test_non_unitary_counterexample():
    K = non_unitary_complex()
    assert validate_complex(K).ok
    assert not is_unitary(K)


@pytest.mark.parametrize(
    "K",
    [c_delta(3), tensor_complex(c_delta(1), c_delta(2)), two_loop_complex()],
    ids=["tetrahedron", "prism", "two-loop"],
)
def test_strong_order_implies_loopfree(K):
    if strong_loopfree_order(K) is not None:
        assert is_loopfree(K)


def test_strong_order_is_a_linear_extension():
    K = c_delta(2)
    order = strong_loopfree_order(K)
    position = {t: i for i, t in enumerate(order)}
    for p in K.degrees():
        if p == 0:
            continue
        for t in K.tokens(p):
            plus, minus = pos_neg_decompose(K.diff_of(t))
            for s in minus.support():
                assert position[s] < position[t]
            for s in plus.support():
                assert position[t] < position[s]


@given(
    st.integers(1, 6),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_toposort_matches_networkx(size, pairs, levels):
    nodes = [f"v{i}" for i in range(size)]
    edges = {(nodes[a % size], nodes[b % size]) for a, b in pairs}
    graph = nx.DiGraph(edges)
    graph.add_nodes_from(nodes)
    level = dict(zip(nodes, levels))
    for key in (None, lambda n: (-level[n], n)):
        order, unique = _toposort(nodes, edges, key=key)
        if not nx.is_directed_acyclic_graph(graph):  # a self-loop is a cycle too
            assert (order, unique) == (None, False)
            continue
        assert order == list(nx.lexicographical_topological_sort(graph, key=key))
        reference = list(nx.topological_sort(graph))
        assert unique == all(graph.has_edge(a, b) for a, b in zip(reference, reference[1:]))


@given(st.lists(st.integers(0, 3), max_size=8), st.lists(st.integers(0, 3), max_size=8))
@settings(max_examples=300, deadline=None)
def test_matched_is_the_nested_loop(left_keys, right_keys):
    """Pairs of equal keys, by left, then by the order of the rights; keys
    repeat on both sides, and the items are positions, so order shows."""
    lefts, rights = list(range(len(left_keys))), [-1 - i for i in range(len(right_keys))]
    want = [
        (l, r) for l, a in zip(lefts, left_keys) for r, b in zip(rights, right_keys) if a == b
    ]
    assert list(_matched(lefts, iter(left_keys), rights, iter(right_keys))) == want


def test_matched_reads_the_left_keys_in_step():
    def left_keys():
        yield "k"
        raise RuntimeError("read past the first left key")

    pairs = _matched(["x", "y"], left_keys(), ["r", "s", "t"], ["k", "j", "k"])
    assert next(pairs) == ("x", "r") and next(pairs) == ("x", "t")
    with pytest.raises(RuntimeError):
        next(pairs)


@st.composite
def small_complexes(draw):
    """Complexes of dimension <= 2 with arbitrary differentials in {-1, 0, 1, 2}."""
    basis = [[f"v{i}" for i in range(draw(st.integers(1, 3)))]]
    for p in (1, 2):
        basis.append([f"{'eg'[p - 1]}{i}" for i in range(draw(st.integers(0, 3)))])
    diff = {
        t: Chain.make(p - 1, {s: draw(st.integers(-1, 2)) for s in basis[p - 1]})
        for p in (1, 2)
        for t in basis[p]
    }
    return DirComplex(basis, diff, {t: 1 for t in basis[0]})


@given(small_complexes())
@example(c_delta(3))
@example(tensor_complex(c_delta(1), c_delta(2)))
@example(two_loop_complex())  # a 2-cycle among the vertices
@settings(max_examples=200, deadline=None)
def test_is_loopfree_matches_networkx(K):
    assert is_loopfree(K) == loopfree_by_networkx(K)
