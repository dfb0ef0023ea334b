import hashlib
import itertools
import random
import time

import pytest

from oracles import brute_morphisms, functoriality_failures
from test_acceptance import report
from steiner_lab import (
    AdcMorphism,
    Chain,
    DirComplex,
    c_delta,
    decalage_homotopy,
    hom_enumerate,
    nerve,
    over_slice,
    solve,
    under_slice,
)
import steiner_lab.nerves as nerves_module
from steiner_lab.nerves import (
    SimplicialSetTrunc,
    bisimplicial_comparison,
    enumerate_morphisms,
    identity_simplicial_map,
    map_under_slice,
    nerve_map,
    over_slice_projection,
    simplicial_map_failures,
    standard_simplex,
    under_slice_projection,
)
from steiner_lab.simplex import (
    MonotoneMap,
    all_monotone_maps,
    c_of_map,
    constant_map,
    degeneracy_map,
    face_map,
    identity_map,
    vertex_map,
)
from steiner_lab.retract import attachment_pushout, wedge_pushout
from steiner_lab.serialize import complex_from_json, complex_to_json
from steiner_lab.tensor import tensor_complex
from test_cells import two_loop_complex


def test_facet_accessors():
    D2 = standard_simplex(2, 3)
    top = identity_map(2)
    edge = MonotoneMap(1, 2, (0, 2))
    assert D2.act(edge, top) == edge
    loop = D2.act(MonotoneMap(1, 2, (0, 0)), top)
    assert loop == MonotoneMap(1, 2, (0, 0))
    # functoriality against two-step restriction
    once = D2.act(identity_map(2), top)
    assert D2.act(edge, once) == D2.act(edge, top)


@pytest.mark.parametrize(
    "n,K,expected",
    [
        (1, c_delta(2), 7),
        (3, c_delta(0), 1),
        (2, c_delta(2), 15),
    ],
)
def test_hom_counts(n, K, expected):
    assert len(hom_enumerate(n, K)) == expected


@pytest.mark.parametrize(
    "n,K,bound",
    [(1, c_delta(2), 2), (2, c_delta(2), 2), (2, c_delta(1), 2)],
)
def test_hom_enumeration_matches_brute_force(n, K, bound):
    ours = set(hom_enumerate(n, K))
    brute = set(brute_morphisms(c_delta(n), K, bound))
    assert brute <= ours
    for f in ours - brute:
        assert any(
            c > bound for p in f.source.degrees() for t in f.source.tokens(p)
            for _, c in f.image_of(t).items()
        )


def _shuffled(K, seed=7):
    """K read back from JSON with fresh tokens, shuffled in every degree, so
    neither token names nor their order match the original."""
    data = complex_to_json(K)
    rng = random.Random(seed)
    tokens = [t for level in data["basis"] for t in level]
    names = {t: f"g{i}" for i, t in enumerate(rng.sample(tokens, len(tokens)))}
    return complex_from_json({
        "basis": [rng.sample([names[t] for t in level], len(level)) for level in data["basis"]],
        "diff": {names[t]: {names[s]: c for s, c in d.items()} for t, d in data["diff"].items()},
        "aug": {names[t]: v for t, v in data["aug"].items()},
    })


# every complex the suite enumerates into, with (n, bound) small enough that
# the brute force stays cheap
BRUTE_CASES = {
    "point": (c_delta(0), 2, 2),
    "interval": (c_delta(1), 2, 2),
    "triangle": (c_delta(2), 2, 2),
    "tetrahedron": (c_delta(3), 2, 1),
    "square": (tensor_complex(c_delta(1), c_delta(1)), 2, 1),
    "prism": (tensor_complex(c_delta(2), c_delta(1)), 1, 1),
    "wedge": (wedge_pushout(1, 1).complex, 2, 1),
    "attachment": (attachment_pushout(1, 1).complex, 1, 1),
    "two-loop": (two_loop_complex(), 2, 2),
    "non-unitary": (
        DirComplex([["v", "w"], ["g"]], {"g": Chain.make(0, {"w": 2, "v": -2})}, {"v": 1, "w": 1}),
        2, 2,
    ),
    "disconnected": (DirComplex([["a", "b"]], {}, {"a": 1, "b": 1}), 2, 2),
}


@pytest.mark.parametrize("name", BRUTE_CASES)
def test_bounded_hom_enumeration_equals_brute_force_cold_and_warm(name):
    K, n, bound = BRUTE_CASES[name]
    K = complex_from_json(complex_to_json(K))  # a cold solve memo
    brute = brute_morphisms(c_delta(n), K, bound)
    cold = hom_enumerate(n, K, coeff_bound=bound)
    warm = hom_enumerate(n, K, coeff_bound=bound)
    assert len(set(brute)) == len(brute) == len(cold)
    assert set(cold) == set(brute) and warm == cold


def test_interval_nerve_is_the_interval():
    N = nerve(c_delta(1), 3)
    D1 = standard_simplex(1, 3)
    for n in range(3):
        assert len(N.simplices(n)) == len(D1.simplices(n))
    assert [nd for _, _, nd in N.counts(2)] == [2, 1, 0]


def test_point_nerve_is_a_point():
    N = nerve(c_delta(0), 4)
    assert all(len(N.simplices(n)) == 1 for n in range(5))


def test_triangle_nerve_counts():
    N = nerve(c_delta(2), 2)
    assert [t for _, t, _ in N.counts(2)] == [3, 7, 15]
    assert [nd for _, _, nd in N.counts(2)] == [3, 4, 4]


@pytest.mark.parametrize(
    "K",
    [c_delta(0), c_delta(1), c_delta(2), tensor_complex(c_delta(1), c_delta(1))],
    ids=["point", "interval", "triangle", "square"],
)
def test_nerve_simplicial_identities(K):
    N = nerve(K, 3)
    assert not N.identity_failures(2)


def test_nerve_map_is_simplicial():
    from steiner_lab import c_of_map
    from steiner_lab.simplex import face_map

    N1 = nerve(c_delta(1), 3)
    N2 = nerve(c_delta(2), 3)
    u = nerve_map(c_of_map(face_map(2, 0)), N1, N2)
    assert not simplicial_map_failures(u, 2)


# -- slices -------------------------------------------------------------------

def test_over_slice_of_the_triangle_at_its_last_vertex():
    D2 = standard_simplex(2, 3)
    space = over_slice(D2, vertex_map(2, 2), 0)
    assert sorted(x.image for x in space.simplices(0)) == [(0, 2), (1, 2), (2, 2)]


def test_slice_of_a_point():
    P = standard_simplex(0, 3)
    space = over_slice(P, identity_map(0), 0)
    assert len(space.simplices(0)) == 1 and len(space.simplices(1)) == 1


def test_under_slice_of_interval_nerve():
    N = nerve(c_delta(1), 3)
    zeros = [x for x in N.simplices(0) if x.image_of("0") == Chain.unit(0, "0")]
    space = under_slice(N, zeros[0], 0)
    assert len(space.simplices(0)) == 2


def test_slice_projections_are_simplicial():
    D2 = standard_simplex(2, 4)
    y = vertex_map(2, 2)
    over_sp = over_slice(D2, y, 0)
    under_sp = under_slice(D2, vertex_map(2, 0), 0)
    assert not simplicial_map_failures(over_slice_projection(D2, 0, over_sp), 2)
    assert not simplicial_map_failures(
        under_slice_projection(D2, 0, under_sp), 2
    )


def test_slice_cap_errors():
    D2 = standard_simplex(2, 1)
    with pytest.raises(ValueError, match="cap"):
        over_slice(D2, identity_map(2), 2)


# -- the shift contraction -------------------------------------------------------

def test_contraction_endpoints_on_the_triangle():
    D2 = standard_simplex(2, 4)
    data = decalage_homotopy(D2, vertex_map(2, 2), 0)
    space = data.space
    for n in range(3):
        for xp in space.simplices(n):
            assert data.homotopy(constant_map(n, 1, 1), xp) == data.section(n, xp)
            assert data.homotopy(constant_map(n, 1, 0), xp) == xp


def test_contraction_on_the_point():
    P = standard_simplex(0, 3)
    data = decalage_homotopy(P, identity_map(0), 0)
    for n in range(2):
        for xp in data.space.simplices(n):
            assert data.homotopy(constant_map(n, 1, 0), xp) == xp
            assert data.homotopy(constant_map(n, 1, 1), xp) == xp


def test_contraction_is_simplicial_exhaustively():
    D2 = standard_simplex(2, 4)
    data = decalage_homotopy(D2, vertex_map(2, 2), 0)
    space = data.space
    for m in range(3):
        for mp in range(3):
            for psi in all_monotone_maps(mp, m):
                for phi in all_monotone_maps(m, 1):
                    for xp in space.simplices(m):
                        lhs = space.act(psi, data.homotopy(phi, xp))
                        rhs = data.homotopy(phi.compose(psi), space.act(psi, xp))
                        assert lhs == rhs


def test_contraction_lands_in_the_slice():
    N = nerve(c_delta(2), 4)
    x = N.simplices(1)[3]
    data = decalage_homotopy(N, x, 1)
    for n in range(2):
        level = set(data.space.simplices(n))
        for xp in data.space.simplices(n):
            for phi in all_monotone_maps(n, 1):
                assert data.homotopy(phi, xp) in level


# -- bisimplicial comparison -------------------------------------------------------

def test_comparison_of_the_point_is_a_point():
    N = nerve(c_delta(0), 5)
    S, forget = bisimplicial_comparison(identity_simplicial_map(N), 2, 2)
    for m in range(3):
        for n in range(3):
            assert len(S.simplices(m, n)) == 1


def test_columns_split_into_under_slices():
    K = c_delta(1)
    N = nerve(K, 4)
    u = identity_simplicial_map(N)
    S, forget = bisimplicial_comparison(u, 1, 1)
    for m in range(2):
        for n in range(2):
            total = 0
            for y in N.simplices(m):
                space = map_under_slice(u, y, m)
                total += len(space.simplices(n))
            assert total == len(S.simplices(m, n))
            # and the splitting is by the initial face
            from steiner_lab.simplex import initial_inclusion

            for yp, x in S.simplices(m, n):
                key = N.act(initial_inclusion(m, n), yp)
                assert (yp, x) in map_under_slice(u, key, m).simplices(n)


def _pairs_by_brute_force(u, m, n, y=None):
    """Every (y', x) in Y_(m+1+n) x X_n whose final n-face is u(x) and, when
    y is given, whose initial m-face is y, listed by x, then by y'; faces
    come from vertex lists."""
    X, Y = u.src, u.dst
    k = m + 1 + n
    return [
        (yp, x)
        for x in X.simplices(n)
        for yp in Y.simplices(k)
        if Y.act(MonotoneMap(n, k, tuple(range(m + 1, k + 1))), yp) == u(n, x)
        and (y is None or Y.act(MonotoneMap(m, k, tuple(range(m + 1))), yp) == y)
    ]


def _small_simplicial_map(name):
    if name == "interval identity":
        return identity_simplicial_map(nerve(c_delta(1), 3))
    if name == "triangle identity":
        return identity_simplicial_map(nerve(c_delta(2), 3))
    if name == "edge into triangle":
        f = c_of_map(face_map(2, 1))
        return nerve_map(f, nerve(c_delta(1), 3), nerve(c_delta(2), 3))
    f = c_of_map(degeneracy_map(1, 0))
    return nerve_map(f, nerve(c_delta(2), 3), nerve(c_delta(1), 3))


@pytest.mark.parametrize(
    "name",
    ["interval identity", "triangle identity", "edge into triangle", "triangle onto edge"],
)
def test_slice_levels_match_brute_force(name):
    u = _small_simplicial_map(name)
    S, _ = bisimplicial_comparison(u, 1, 1)
    for m in range(2):
        for n in range(2):
            level = S.simplices(m, n)
            assert len(set(level)) == len(level)
            assert set(level) == set(_pairs_by_brute_force(u, m, n))
            for y in u.dst.simplices(m):
                level = map_under_slice(u, y, m).simplices(n)
                assert len(set(level)) == len(level)
                assert set(level) == set(_pairs_by_brute_force(u, m, n, y))


@pytest.mark.parametrize("u_is", ["identity", "sigma0"])
def test_relative_slices_and_comparison_levels_are_listed_by_x(u_is):
    """On the triangle nerve, under the identity and under the nerve map of
    c(sigma_0): cDelta3 -> cDelta2, S(u) and every relative under-slice list
    their pairs by x, then by y' in level order."""
    Y = nerve(c_delta(2), 4)
    if u_is == "identity":
        u = identity_simplicial_map(Y)
    else:
        u = nerve_map(c_of_map(degeneracy_map(2, 0)), nerve(c_delta(3), 2), Y)
    S, _ = bisimplicial_comparison(u, 1, 2)
    compared = 0
    for m in range(2):
        for n in range(3):
            assert S.simplices(m, n) == _pairs_by_brute_force(u, m, n)
            for y in Y.simplices(m):
                level = map_under_slice(u, y, m).simplices(n)
                assert level == _pairs_by_brute_force(u, m, n, y)
                compared += len(level)
    assert compared == sum(len(S.simplices(m, n)) for m in range(2) for n in range(3))


def test_rows_split_into_over_slices():
    K = c_delta(1)
    N = nerve(K, 4)
    u = identity_simplicial_map(N)
    S, forget = bisimplicial_comparison(u, 2, 0)
    for m in range(3):
        total = 0
        for x in N.simplices(0):
            space = over_slice(N, u(0, x), 0)
            total += len(space.simplices(m))
        assert total == len(S.simplices(m, 0))
        for yp, x in S.simplices(m, 0):
            assert yp in over_slice(N, u(0, x), 0).simplices(m)


def test_diagonal_and_bifunctoriality():
    N = nerve(c_delta(1), 5)
    S, _ = bisimplicial_comparison(identity_simplicial_map(N), 2, 2)
    diag = S.diagonal()
    assert not diag.identity_failures(1)
    for (m, n) in [(1, 1), (2, 1)]:
        for phi in all_monotone_maps(m - 1, m):
            for psi in all_monotone_maps(n, n):
                for pair in S.simplices(m, n):
                    one = S.act(phi, identity_map(n), S.act(identity_map(m), psi, pair))
                    two = S.act(phi, psi, pair)
                    assert one == two


def test_forgetful_projection():
    N = nerve(c_delta(1), 4)
    u = identity_simplicial_map(N)
    S, forget = bisimplicial_comparison(u, 1, 1)
    for m in range(2):
        for n in range(2):
            for pair in S.simplices(m, n):
                assert forget(m, n, pair) == pair[1]


@pytest.mark.parametrize(
    "K,generators_only,budget",
    [
        (c_delta(0), False, None),
        (c_delta(1), False, None),
        (c_delta(2), False, None),
        (tensor_complex(c_delta(1), c_delta(1)), False, None),
        (c_delta(3), True, 10),
    ],
    ids=["point", "interval", "triangle", "square", "tetrahedron"],
)
def test_nerve_identities_exhaustive_to_cap_four(K, generators_only, budget):
    started = time.time()
    N = nerve(K, 4)
    assert not N.identity_failures(4, generators_only=generators_only)
    if budget is not None:
        report("cap-4 nerve identities", started, budget)


def _space_with_fault(fault):
    """The triangle nerve at cap 3, with ``act`` changed on one face of its
    nondegenerate 2-simplex: ``in level`` gives another face of it,
    ``outside`` gives a 1-simplex of the tetrahedron nerve, which the nerve
    action still accepts."""
    N = nerve(c_delta(2), 3)
    if fault is None:
        return N
    top = c_of_map(identity_map(2))
    wrong = {
        "in level": N.act(face_map(2, 2), top),
        "outside": c_of_map(MonotoneMap(1, 3, (0, 3))),
    }[fault]

    def act(phi, x):
        return wrong if (phi, x) == (face_map(2, 0), top) else N.act(phi, x)

    return SimplicialSetTrunc(3, N.simplices, act)


@pytest.mark.parametrize("generators_only", [False, True])
@pytest.mark.parametrize("fault", [None, "in level", "outside"])
def test_identity_failures_match_the_triple_loop_oracle(fault, generators_only):
    X = _space_with_fault(fault)
    expected = functoriality_failures(X, 3, generators_only)
    assert bool(expected) == (fault is not None)
    assert X.identity_failures(3, generators_only=generators_only) == expected


@pytest.mark.parametrize("generators_only", [False, True])
def test_a_fault_on_the_coded_path_matches_the_triple_loop_oracle(monkeypatch, generators_only):
    """The nerve reads c(d_1) for c(d_0) on Delta2, after its levels are
    built: its own act and act_all then gather codes through the wrong
    plan and return another face, a simplex of the level."""
    N = nerve(c_delta(2), 3)
    for n in range(4):
        N.simplices(n)
    d0, d1 = face_map(2, 0), face_map(2, 1)
    wrong = c_of_map(d1)
    monkeypatch.setattr(
        nerves_module, "c_of_map", lambda phi: wrong if phi == d0 else c_of_map(phi)
    )
    top = c_of_map(identity_map(2))
    assert N.act(d0, top) is N.act(d1, top) and N.act_all(d0, [top]) == [N.act(d1, top)]
    expected = functoriality_failures(N, 3, generators_only)
    assert expected
    assert N.identity_failures(3, generators_only=generators_only) == expected


def test_identity_failures_look_each_operator_up_once(monkeypatch):
    """Once the levels are built, checking every pair of operators on the
    triangle nerve at cap 3 asks for c(phi) once per table, one per
    operator, and not once per simplex acted on."""
    N = nerve(c_delta(2), 3)
    for n in range(4):
        N.simplices(n)
    calls = []

    def counting(phi):
        calls.append(phi)
        return c_of_map(phi)

    monkeypatch.setattr(nerves_module, "c_of_map", counting)
    assert not N.identity_failures()
    operators = [phi for n in range(4) for m in range(4) for phi in all_monotone_maps(m, n)]
    assert len(calls) == len(set(calls)) == len(operators) == 121
    assert set(calls) == set(operators)


def test_enumeration_solves_each_boundary_target_once(monkeypatch):
    calls = []
    dispatch = solve._dispatch

    def counting(*args):
        calls.append(args)
        return dispatch(*args)

    monkeypatch.setattr(solve, "_dispatch", counting)
    K = complex_from_json(complex_to_json(c_delta(3)))  # its memo starts empty
    assert len(hom_enumerate(4, K)) == 1316
    assert len(calls) == 31  # 30 boundary targets and 1 augmentation value
    assert len(hom_enumerate(4, K)) == 1316
    assert len(calls) == 31


def test_enumeration_calls_the_solver_once_per_tuple_of_face_images(monkeypatch):
    """A generator's candidates depend only on the images of its faces, so the
    solver is asked once per distinct tuple of them, not per partial map."""
    calls = {"boundary": 0, "augmentation": 0}

    def counting(kind, solver):
        def call(*args):
            calls[kind] += 1
            return solver(*args)
        return call

    monkeypatch.setattr(nerves_module, "solve_boundary", counting("boundary", solve.solve_boundary))
    monkeypatch.setattr(
        nerves_module, "solve_augmentation", counting("augmentation", solve.solve_augmentation)
    )
    assert len(hom_enumerate(4, c_delta(3))) == 1316
    assert calls == {"boundary": 1182, "augmentation": 5}


def _in_token_order(morphisms):
    """Morphisms sorted by their images, read in source token order."""
    return sorted(
        morphisms,
        key=lambda f: [f.image_of(t).coeffs for t in sorted(itertools.chain(*f.source.basis))],
    )


SQUARE = _shuffled(tensor_complex(c_delta(1), c_delta(1)), seed=3)
SQUARE_VERTEX = Chain.unit(0, SQUARE.tokens(0)[0])
SQUARE_EDGE = Chain.unit(1, next(  # an edge out of SQUARE_VERTEX
    t for t in SQUARE.tokens(1) if SQUARE.diff_of(t).coeff(SQUARE.tokens(0)[0]) == -1
))

# (source, target, fixed, coeff_bound, the oracle's bound, complete)
ORACLE_CASES = {
    "edge into relabelled square": (c_delta(1), SQUARE, None, None, 2, True),
    "triangle into relabelled square": (c_delta(2), SQUARE, None, None, 2, True),
    "bounded into two-loop": (c_delta(1), two_loop_complex(), None, 2, 2, False),
    "pinned": (c_delta(2), SQUARE, {"0": SQUARE_VERTEX, "0,2": SQUARE_EDGE}, None, 2, True),
    "pin matching nothing": (c_delta(2), SQUARE, {"0": 2 * SQUARE_VERTEX}, None, 2, True),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_enumeration_equals_the_sorted_brute_force(name):
    src, dst, fixed, bound, brute_bound, complete = ORACLE_CASES[name]
    brute = [
        f for f in brute_morphisms(src, dst, brute_bound)
        if all(f.image_of(t) == z for t, z in (fixed or {}).items())
    ]
    morphisms, certified = enumerate_morphisms(src, dst, fixed=fixed, coeff_bound=bound)
    assert morphisms == _in_token_order(brute) and certified == complete
    assert (not morphisms) == (name == "pin matching nothing")


def test_bounded_enumeration_stays_marked_incomplete():
    K = two_loop_complex()
    morphisms, complete = enumerate_morphisms(c_delta(1), K, coeff_bound=1)
    assert len(morphisms) == 6 and not complete
    N = nerve(K, 1, coeff_bound=1)
    assert [len(N.simplices(n)) for n in range(2)] == [2, 6] and not N.complete


@pytest.mark.parametrize("check", ["identity_failures", "counts", "simplicial_map_failures"])
def test_checks_refuse_a_negative_bound(check):
    N = nerve(c_delta(1), 2)
    run = {
        "identity_failures": lambda: N.identity_failures(-1),
        "counts": lambda: N.counts(-1),
        "simplicial_map_failures": lambda: simplicial_map_failures(identity_simplicial_map(N), -1),
    }[check]
    with pytest.raises(ValueError, match="non-negative"):
        run()


# -- the nerve's code gather ------------------------------------------------------

GATHER_CASES = {
    "triangle": (c_delta(2), 4),
    "tetrahedron": (c_delta(3), 3),
    "shuffled prism": (_shuffled(tensor_complex(c_delta(2), c_delta(1))), 3),
}


@pytest.mark.parametrize("name", GATHER_CASES)
def test_code_gather_matches_composition(name, monkeypatch):
    """Every operator within the cap, on every level simplex, gives the
    composite with c(phi), as the very object of its level, and never needs
    the composition fallback: ``act`` composes no morphism."""
    K, cap = GATHER_CASES[name]
    N = nerve(K, cap)
    levels = [N.simplices(n) for n in range(cap + 1)]
    fallbacks = []
    after = AdcMorphism.after
    in_act = [False]

    def counting(f, g):
        if in_act[0]:
            fallbacks.append(g)
        return after(f, g)

    def act(phi, x):
        in_act[0] = True
        try:
            return N.act(phi, x)
        finally:
            in_act[0] = False

    monkeypatch.setattr(AdcMorphism, "after", counting)
    for n in range(cap + 1):
        for m in range(cap + 1):
            level = {id(y) for y in levels[m]}
            for phi in all_monotone_maps(m, n):
                c = c_of_map(phi)
                for x in levels[n]:
                    y = act(phi, x)
                    assert y == x.after(c)
                    assert id(y) in level
    assert not fallbacks


@pytest.mark.parametrize("name", GATHER_CASES)
def test_act_all_returns_the_objects_act_returns(name):
    """On every level, every operator within the cap acts on the whole
    level as ``act`` does on each simplex: the very same objects."""
    K, cap = GATHER_CASES[name]
    N = nerve(K, cap)
    for n in range(cap + 1):
        level = N.simplices(n)
        for m in range(cap + 1):
            for phi in all_monotone_maps(m, n):
                acted = N.act_all(phi, level)
                assert len(acted) == len(level)
                assert all(y is N.act(phi, x) for x, y in zip(level, acted))


def test_nerves_sharing_chains_keep_their_own_simplices():
    """The chains of Delta2 are chains of Delta3 too; each nerve's operators
    still land in its own levels."""
    spaces = [nerve(c_delta(2), 2), nerve(c_delta(3), 2)]
    for n in range(3):
        for m in range(3):
            for phi in all_monotone_maps(m, n):
                for N in spaces:
                    level = {id(y) for y in N.simplices(m)}
                    for x in N.simplices(n):
                        y = N.act(phi, x)
                        assert y.target is x.target and id(y) in level


def test_act_without_a_code_is_precomposition():
    """Values the nerve has not coded: nerve_map images, before and after the
    nerve's levels exist, a simplex of another nerve, and operators past the
    cap.  ``act_all`` on the values of one dimension gives what ``act`` gives
    on each, the very level simplex wherever ``act`` gives one.  An operator
    of the wrong dimension is still refused."""
    N1, N2 = nerve(c_delta(1), 3), nerve(c_delta(2), 3)
    u = nerve_map(c_of_map(face_map(2, 1)), N1, N2)
    outside = c_of_map(MonotoneMap(1, 3, (0, 3)))  # a 1-simplex of the tetrahedron nerve
    for built in (False, True):
        level = {id(z) for n in range(4) for z in N2.simplices(n)} if built else set()
        values = [u(n, x) for n in range(3) for x in N1.simplices(n)] + [outside]
        for n in range(3):
            ys = [y for y in values if y.source.dim == n]
            for m in range(5):
                for phi in all_monotone_maps(m, n):
                    acted = [N2.act(phi, y) for y in ys]
                    assert acted == [y.after(c_of_map(phi)) for y in ys]
                    together = N2.act_all(phi, ys)
                    assert together == acted
                    assert all(
                        a is b if id(b) in level else id(a) not in level
                        for a, b in zip(together, acted)
                    )
    assert N2.act(identity_map(1), outside).target == c_delta(3)
    with pytest.raises(ValueError, match="composition mismatch"):
        N2.act(face_map(2, 0), N2.simplices(1)[0])


def _level_digest(N, cap):
    """A hash of the ordered levels through ``cap``, each simplex given by
    its sorted (token, image) items."""
    h = hashlib.sha256()
    for n in range(cap + 1):
        for x in N.simplices(n):
            K = x.source
            items = sorted((t, x.image_of(t).items()) for p in K.degrees() for t in K.tokens(p))
            h.update(repr(items).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


# recorded from the levels built by plain hom-enumeration, before nerves coded
# their simplices
LEVEL_DIGESTS = {
    "tetrahedron cap 4": (c_delta(3), 4, "7ef84e343b2ea21f"),
    "triangle cap 5": (c_delta(2), 5, "35abeb006529bd35"),
    "prism cap 3": (tensor_complex(c_delta(2), c_delta(1)), 3, "b47669504f2371d7"),
}


@pytest.mark.parametrize("acted_first", [False, True], ids=["built", "acted first"])
@pytest.mark.parametrize("name", LEVEL_DIGESTS)
def test_nerve_levels_keep_their_order(name, acted_first):
    """The same simplices in the same order, also when operators on the top
    level have registered the lower levels' simplices before those levels
    are built."""
    K, cap, expected = LEVEL_DIGESTS[name]
    N = nerve(K, cap)
    if acted_first:
        top = N.simplices(cap)
        for m in range(cap):
            for phi in all_monotone_maps(m, cap):
                for x in top:
                    N.act(phi, x)
    assert _level_digest(N, cap) == expected


# (target, cap, coeff_bound, level sizes or None)
GROWTH_CASES = {
    "tetrahedron cap 5": (c_delta(3), 5, None, [4, 15, 60, 265, 1316, 7461]),
    "shuffled prism cap 4": (_shuffled(tensor_complex(c_delta(2), c_delta(1))), 4, None, None),
    "square cap 4": (tensor_complex(c_delta(1), c_delta(1)), 4, None, None),
    "two-loop bound 1": (two_loop_complex(), 3, 1, [2, 6, 12, 20]),
    "two-loop bound 2": (two_loop_complex(), 3, 2, [2, 10, 30, 70]),
}


@pytest.mark.parametrize("acted_first", [False, True], ids=["built", "acted first"])
@pytest.mark.parametrize("name", GROWTH_CASES)
def test_grown_levels_equal_hom_enumeration(name, acted_first):
    """Levels past 1 grow from the level below by face pairs and fillers,
    yet list the morphisms out of cDelta(n) as hom-enumeration does, in
    its order, with its completeness flag.  Also when every operator has
    acted on level 1 first: reading a level builds every level below it,
    so only there can operators, degeneracies into each level, code
    simplices of levels not built yet."""
    K, cap, bound, sizes = GROWTH_CASES[name]
    N = nerve(K, cap, coeff_bound=bound)
    if acted_first:
        for m in range(cap + 1):
            for phi in all_monotone_maps(m, 1):
                for x in N.simplices(1):
                    N.act(phi, x)
    complete = True
    for n in range(cap + 1):
        expected, certified = enumerate_morphisms(c_delta(n), K, coeff_bound=bound)
        complete &= certified
        assert N.simplices(n) == expected
        assert acted_first or N.complete == complete
    assert N.complete == complete == (bound is None)
    if sizes:
        assert [len(N.simplices(n)) for n in range(cap + 1)] == sizes


def test_only_levels_zero_and_one_are_enumerated(monkeypatch):
    sources = []
    enumerate_ = nerves_module.enumerate_morphisms

    def recording(src, dst, **options):
        sources.append(src)
        return enumerate_(src, dst, **options)

    monkeypatch.setattr(nerves_module, "enumerate_morphisms", recording)
    K = complex_from_json(complex_to_json(c_delta(3)))  # its memo starts empty
    N = nerve(K, 5)
    assert [len(N.simplices(n)) for n in range(6)] == [4, 15, 60, 265, 1316, 7461]
    assert sources == [c_delta(0), c_delta(1)]


def test_a_grown_level_solves_only_its_fillers(monkeypatch):
    """Level n of the cap-4 nerve of Delta3 asks the solver only for the
    generators of cDelta(n) on both vertices 0 and n: 676 calls for 31
    targets, where enumerating every level from scratch made 1,770."""
    calls = {"boundary": 0, "dispatch": 0}

    def counting(kind, solver):
        def call(*args):
            calls[kind] += 1
            return solver(*args)
        return call

    monkeypatch.setattr(nerves_module, "solve_boundary", counting("boundary", solve.solve_boundary))
    monkeypatch.setattr(solve, "_dispatch", counting("dispatch", solve._dispatch))
    K = complex_from_json(complex_to_json(c_delta(3)))
    N = nerve(K, 4)
    assert [len(N.simplices(n)) for n in range(5)] == [4, 15, 60, 265, 1316]
    assert calls == {"boundary": 676, "dispatch": 31}
