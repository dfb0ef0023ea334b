import dataclasses
import itertools
from math import comb

import pytest

from oracles import morphism_from_dict
from steiner_lab import (
    Chain,
    c_delta,
    check_morphism,
    cylinder_attachment,
    cylinder_to_cone,
    from_slice_pair,
    hom_enumerate,
    identity_morphism,
    nerve,
    partial_wedge_projection,
    slice_retract_data,
    to_slice_pair,
    verify_suite,
    wedge_projection,
    wedge_projection_endo,
)
from steiner_lab.chains import AdcMorphism
from steiner_lab.nerves import (
    SimplicialMap,
    enumerate_morphisms,
    identity_simplicial_map,
    simplicial_map_failures,
)
from steiner_lab import retract, slices
from steiner_lab.retract import IdentityResult, attachment_pushout
from steiner_lab.simplex import (
    MonotoneMap,
    _operators,
    all_monotone_maps,
    c_of_map,
    constant_map,
    degeneracy_map,
    final_inclusion,
    identity_map,
)
from steiner_lab.slices import (
    INTERVAL_SRC,
    INTERVAL_TGT,
    OplaxTransformation,
    constant_morphism,
    cylinder_complex,
)
from steiner_lab.tensor import pushout_complex, tensor_token


def test_cone_collapse_values():
    pi = cylinder_to_cone(1)
    assert pi.image_of(tensor_token("0", "1")) == Chain.unit(0, "0")
    assert pi.image_of(tensor_token("0", "0,1")).is_zero
    assert pi.image_of(tensor_token("1", "0,1")) == Chain.unit(1, "1,2")
    assert pi.image_of(tensor_token("0,1", "0,1")) == Chain.unit(2, "0,1,2")
    assert check_morphism(pi).ok


def test_attachment_values():
    P = attachment_pushout(1, 1)
    kappa = cylinder_attachment(1, 1)
    assert kappa.image_of("0,1") == P.left.apply(Chain.unit(1, "0,1"))
    assert kappa.image_of("1,3") == P.left.apply(Chain.unit(1, "1,3")) + P.right.apply(
        Chain.unit(1, tensor_token("0,1", "1"))
    )
    assert kappa.image_of("2,3") == P.right.apply(
        Chain.unit(1, tensor_token("1", "0,1"))
    )
    assert check_morphism(kappa).ok


def test_wedge_projection_values():
    f = wedge_projection_endo(1, 1)
    assert f.image_of("0,2") == Chain.make(1, {"0,1": 1, "1,2": 1})
    assert f.image_of("0,2,3") == Chain.unit(2, "1,2,3")
    assert f.image_of("0,1,3") .is_zero
    assert check_morphism(f).ok


def test_partial_wedge_values():
    f = partial_wedge_projection(1, 1, identity_map(1))
    assert f.image_of("0,2,3") == Chain.make(2, {"0,1,3": 1, "1,2,3": 1})
    assert check_morphism(f).ok
    assert partial_wedge_projection(1, 1, constant_map(1, 1, 1)) == identity_morphism(
        c_delta(3)
    )
    assert partial_wedge_projection(1, 1, constant_map(1, 1, 0)) == wedge_projection_endo(
        1, 1
    )


@pytest.mark.parametrize("m,n", [(0, 0), (1, 2), (2, 1), (4, 4)])
def test_chain_maps_at_larger_sizes(m, n):
    assert check_morphism(cylinder_attachment(m, n)).ok
    assert check_morphism(wedge_projection(m, n)).ok
    for phi in all_monotone_maps(n, 1):
        assert check_morphism(partial_wedge_projection(m, n, phi)).ok


def corrupted_wedge_projection(m, n):
    """The two-step case with its second term flipped in sign."""
    src = c_delta(m + 1 + n)
    good = wedge_projection_endo(m, n)
    images = {}
    for p in src.degrees():
        for token in src.tokens(p):
            images[token] = good.image_of(token)
    from steiner_lab.simplex import simplex_token, token_simplex

    for token in src.tokens(1):
        i0, i1 = token_simplex(token)
        if i0 < m < i1:
            images[token] = Chain.make(
                1, {simplex_token((i0, m)): 1, simplex_token((m, i1)): -1}
            )
    return morphism_from_dict(src, src, images)


def test_corrupted_wedge_projection_fails_where_expected():
    bad = corrupted_wedge_projection(1, 1)
    report = check_morphism(bad)
    assert not report.ok
    assert any("not positive" in p for p in report.problems)
    d_failures = [p for p in report.problems if "d-compatibility" in p]
    assert d_failures and "0,2" in d_failures[0]


def test_suite_passes_at_small_bounds():
    report = verify_suite(1, 1)
    assert report.all_passed


def test_verify_suite_builds_each_pushout_once(monkeypatch):
    """At m, n <= 1: 4 attachment pushouts, 6 wedge pushouts (two of them
    for the nerve retracts, at n = 2) and 2 fold-square pushouts, the
    cylinder folds of ``slices.py``."""
    for name in (
        "attachment_pushout", "wedge_pushout", "cylinder_to_cone", "cylinder_attachment",
        "wedge_projection", "wedge_inclusion", "wedge_projection_endo",
        "partial_wedge_projection",
    ):
        getattr(retract, name).cache_clear()
    built = []

    def counting_pushout(f, g):
        built.append((f, g))
        return pushout_complex(f, g)

    monkeypatch.setattr(retract, "pushout_complex", counting_pushout)
    monkeypatch.setattr(slices, "pushout_complex", counting_pushout)
    assert verify_suite(1, 1).all_passed
    assert len(built) == 12


def test_attachment_naturality_asks_for_each_cylinder_map_once(monkeypatch):
    """psi runs outside phi, so each cylinder map is asked for once however
    many operators psi there are (at (4, 4), 456 against a cache of 256)."""
    asked = []

    def counting(psi):
        asked.append(psi)
        return real(psi)

    real = retract._cylinder_map
    monkeypatch.setattr(retract, "_cylinder_map", counting)
    assert all(r.passed for r in retract._attachment_checks(1, 3))
    operators = [psi for _, _, psi in _operators(3)]
    assert len(operators) == 121
    assert asked == operators


def _operator_pairs(bound):
    """Monotone maps Delta(a) -> Delta(b) for a, b <= bound: C(a+b+1, a+1) each."""
    return sum(comb(a + b + 1, a + 1) for a in range(bound + 1) for b in range(bound + 1))


def test_family_instance_counts_match_closed_forms():
    report = verify_suite(2, 3)
    counts = {r.name: r.instances for r in report.results}
    assert all(n > 0 for n in counts.values())
    m_max, n_max = 2, 3
    coherence = (m_max + 1) * sum(
        comb(a + b + 1, a + 1) * (b + 2) for a in range(n_max + 1) for b in range(n_max + 1)
    )
    expected = {
        "cylinder attachment naturality": _operator_pairs(m_max) * _operator_pairs(n_max),
        "wedge projection naturality": (m_max + 1) * _operator_pairs(n_max),
        "partial wedge coherence with final-block operators": coherence,
        "cone collapse naturality (n, n' <= 3)": _operator_pairs(n_max),
        "cylinder attachment fixes the initial face": (m_max + 1) * (n_max + 1),
    }
    assert {name: counts[name] for name in expected} == expected
    assert list(expected.values()) == [3751, 363, 1593, 121, 12]


def test_cone_checks_report_the_instances_reached(monkeypatch):
    real = retract.join_maps

    def broken(phi, psi):
        # the cone side of the identity psi of Delta(1) goes wrong
        return MonotoneMap(2, 2, (0, 1, 1)) if psi == identity_map(1) else real(phi, psi)

    monkeypatch.setattr(retract, "join_maps", broken)
    failed = retract._cone_checks(1)[-1]
    # psi runs over Delta(0) -> Delta(0), Delta(1) -> Delta(0), the two maps
    # Delta(0) -> Delta(1), then (0, 0) and the identity (0, 1): the 6th of 7
    # fails, and the family still compares the 7th
    assert failed == IdentityResult(
        "cone collapse naturality (n, n' <= 1)", False, 7, "n=1, psi=(0, 1)"
    )


def spoiled(f):
    """f with its first nonzero image of positive degree negated."""
    k = next(i for i, x in enumerate(f.images) if x.degree > 0 and not x.is_zero)
    return AdcMorphism(f.source, f.target, f.images[:k] + (-f.images[k],) + f.images[k + 1:])


def fault(name, at, wrong):
    """A fault: retract's ``name`` at the arguments ``at`` returns
    ``wrong(value)`` instead of its value."""

    def inject(monkeypatch):
        real = getattr(retract, name)
        monkeypatch.setattr(
            retract, name, lambda *args: wrong(real(*args)) if args == at else real(*args)
        )

    return inject


def collapse_level_two(monkeypatch):
    """A fault: the nerve retraction and section send every 2-simplex where
    they send the first one."""
    real = retract.slice_retract_data

    def collapsed(f):
        first = f.src.simplices(2)[0]
        return SimplicialMap(f.src, f.dst, lambda n, x: f(n, first if n == 2 else x))

    def data(u, b, m):
        d = real(u, b, m)
        return dataclasses.replace(
            d, retraction=collapsed(d.retraction), section=collapsed(d.section)
        )

    monkeypatch.setattr(retract, "slice_retract_data", data)


def swap_degeneracy(monkeypatch):
    """A fault: the nerve slices act by sigma_1: Delta(2) -> Delta(1) where
    sigma_0 is asked; no operator Delta(n) -> Delta(n+1) sees it."""
    real = retract.map_under_slice
    sigma0, sigma1 = degeneracy_map(1, 0), degeneracy_map(1, 1)

    def swapped(u, y, m):
        S = real(u, y, m)
        act = S.act
        S.act = lambda psi, x: act(sigma1 if psi == sigma0 else psi, x)
        return S

    monkeypatch.setattr(retract, "map_under_slice", swapped)


CHECKS = {
    "attachment": lambda: retract._attachment_checks(1, 1),
    "wedge": lambda: retract._wedge_checks(1, 1),
    "partial wedge": lambda: retract._partial_wedge_checks(1, 1),
    "interval nerve": lambda: retract._retract_checks_on_nerve(
        c_delta(1), 0, 2, "the interval nerve"
    ),
    "triangle nerve": lambda: retract._retract_checks_on_nerve(
        c_delta(2), 1, 2, "the triangle nerve"
    ),
}
SPOILED_ATTACHMENT = fault("cylinder_attachment", (1, 1), spoiled)
SPOILED_PARTIAL_WEDGE = fault("partial_wedge_projection", (0, 1, identity_map(1)), spoiled)
FAULTY_FAMILIES = [
    (SPOILED_ATTACHMENT, "attachment", "cylinder attachment is a chain map (m=1, n=1)",
     "image of 0,1 is not positive: -(K:0,1)"),
    (SPOILED_ATTACHMENT, "attachment", "cylinder attachment naturality",
     "(m,n)=(1,0) phi=(0, 1) psi=(0, 0)"),
    (fault("initial_inclusion", (1, 1), lambda _: MonotoneMap(1, 3, (0, 2))), "attachment",
     "cylinder attachment fixes the initial face", "(m,n)=(1,1)"),
    (fault("join_maps", (identity_map(0), identity_map(1)),
           lambda _: MonotoneMap(2, 2, (0, 1, 1))),
     "wedge", "wedge projection naturality", "(m,n,n')=(1,1,1) psi=(0, 1)"),
    (SPOILED_PARTIAL_WEDGE, "partial wedge",
     "partial wedge projections: chain maps, endpoints, absorption",
     "chain map fails at (m,n)=(0,1) phi=(0, 1)"),
    (SPOILED_PARTIAL_WEDGE, "partial wedge", "partial wedge coherence with final-block operators",
     "(m,n,n')=(0,1,0) phi=(0, 1) psi=(0,)"),
    (SPOILED_PARTIAL_WEDGE, "interval nerve", "homotopy is simplicial on the interval nerve",
     "the interval nerve: homotopy not simplicial at level 1, psi=(0,)"),
    (swap_degeneracy, "triangle nerve", "homotopy is simplicial on the triangle nerve",
     "the triangle nerve: homotopy not simplicial at level 1, psi=(0, 0, 1)"),
    (fault("partial_wedge_projection", (0, 1, constant_map(1, 1, 0)), spoiled),
     "interval nerve", "strong retract square on the interval nerve",
     "the interval nerve: strong square at level 1"),
    (collapse_level_two, "interval nerve", "retraction has section on the interval nerve",
     "the interval nerve: r.s misses at level 2"),
    (collapse_level_two, "interval nerve", "homotopy endpoints on the interval nerve",
     "the interval nerve: h(0) != s.r at level 2"),
    (collapse_level_two, "interval nerve", "section is simplicial on the interval nerve",
     "the interval nerve: section does not commute with phi=(0, 0, 0)"),
    (collapse_level_two, "interval nerve", "retraction is simplicial on the interval nerve",
     "the interval nerve: retraction does not commute with phi=(0, 0, 0)"),
]


@pytest.mark.parametrize(
    "inject,checks,name,counterexample", FAULTY_FAMILIES, ids=[f[2] for f in FAULTY_FAMILIES]
)
def test_a_faulty_family_sweeps_every_instance(monkeypatch, inject, checks, name, counterexample):
    """Under a fault, a family still compares all the instances it compares
    when it passes, and names its first unequal pair."""
    passing = {r.name: r for r in CHECKS[checks]()}[name]
    assert passing.passed and passing.instances > 0
    inject(monkeypatch)
    failed = {r.name: r for r in CHECKS[checks]()}[name]
    assert failed == IdentityResult(name, False, passing.instances, counterexample)


def test_suite_report_formats():
    report = verify_suite(0, 0)
    text = str(report)
    assert "pass" in text and "FAIL" not in text


# -- retract data on nerve tables -----------------------------------------------

def interval_retract():
    N = nerve(c_delta(1), 4)
    u = identity_simplicial_map(N)
    b = [x for x in N.simplices(1) if x.image_of("0,1") == Chain.unit(1, "0,1")][0]
    return slice_retract_data(u, b, 1)


def test_retraction_section_identity():
    data = interval_retract()
    for n in range(data.small.cap + 1):
        for pair in data.small.simplices(n):
            assert data.retraction(n, data.section(n, pair)) == pair


def test_retract_maps_are_simplicial():
    data = interval_retract()
    assert not simplicial_map_failures(data.section, 2)
    assert not simplicial_map_failures(data.retraction, 2)


def test_homotopy_endpoints_and_strong_square():
    data = interval_retract()
    for n in range(min(2, data.big.cap) + 1):
        for pair in data.big.simplices(n):
            assert data.homotopy(constant_map(n, 1, 1), pair) == pair
            sr = data.section(n, data.retraction(n, pair))
            assert data.homotopy(constant_map(n, 1, 0), pair) == sr
        for pair in data.small.simplices(n):
            for phi in all_monotone_maps(n, 1):
                lhs = data.homotopy(phi, data.section(n, pair))
                assert lhs == data.section(n, pair)


def suite_retract(N, m):
    """The retract data verify_suite checks on the nerve of Delta(N): at the
    first m-simplex, through level 2."""
    nerve_n = nerve(c_delta(N), 2 + m + 1)
    return slice_retract_data(identity_simplicial_map(nerve_n), nerve_n.simplices(m)[0], m)


@pytest.mark.parametrize(
    "retract_data,instances",
    [(interval_retract, 109), (lambda: suite_retract(1, 0), 397),
     (lambda: suite_retract(2, 1), 3654)],
    ids=["interval at its edge", "interval at a vertex", "triangle at an edge"],
)
def test_homotopy_is_simplicial(retract_data, instances):
    """X(psi) h(phi, x) = h(phi.psi, X(psi) x) for every operator psi:
    Delta(k) -> Delta(n) with k, n <= 2, degeneracies included, every phi:
    Delta(n) -> Delta(1) and every n-simplex x of the big slice."""
    data = retract_data()
    space = data.big
    compared = 0
    for n in range(min(2, space.cap) + 1):
        for k in range(min(2, space.cap) + 1):
            for psi, phi in itertools.product(all_monotone_maps(k, n), all_monotone_maps(n, 1)):
                for pair in space.simplices(n):
                    compared += 1
                    lhs = space.act(psi, data.homotopy(phi, pair))
                    assert lhs == data.homotopy(phi.compose(psi), space.act(psi, pair))
    assert compared == instances


# -- the slice-nerve comparison ---------------------------------------------------

def classified_pairs(K, c, n):
    Kn = c_delta(n)
    const = constant_morphism(Kn, K, c)
    out = []
    for a in hom_enumerate(n, K):
        fixed = {}
        for p in Kn.degrees():
            for b in Kn.tokens(p):
                fixed[tensor_token(INTERVAL_SRC, b)] = const.image_of(b)
                fixed[tensor_token(INTERVAL_TGT, b)] = a.image_of(b)
        hs, complete = enumerate_morphisms(cylinder_complex(Kn), K, fixed=fixed)
        assert complete
        out.extend((a, OplaxTransformation(h)) for h in hs)
    return out


def under_slice_simplices(K, c, n):
    out = []
    for cp in hom_enumerate(1 + n, K):
        if cp.image_of("0") == c:
            out.append((cp, cp.after(c_of_map(final_inclusion(0, n)))))
    return out


@pytest.mark.parametrize(
    "N,dims", [(1, (0, 1, 2)), (2, (0, 1))], ids=["interval", "triangle"]
)
def test_comparison_bijection(N, dims):
    K = c_delta(N)
    c = Chain.unit(0, "0")
    for n in dims:
        lhs = under_slice_simplices(K, c, n)
        rhs = classified_pairs(K, c, n)
        forward = {}
        for cp, a in lhs:
            a2, T = to_slice_pair(cp, a, n)
            assert a2 == a
            forward[(cp, a)] = (a, T)
            assert from_slice_pair(a, T, n, c) == cp
        assert len({(a, T.h) for (a, T) in forward.values()}) == len(lhs)
        assert {(a, T.h) for (a, T) in forward.values()} == {
            (a, T.h) for (a, T) in rhs
        }
        for a, T in rhs:
            cp = from_slice_pair(a, T, n, c)
            assert check_morphism(cp).ok
            assert cp.image_of("0") == c
            assert cp.after(c_of_map(final_inclusion(0, n))) == a
            a3, T3 = to_slice_pair(cp, a, n)
            assert T3.h == T.h


def test_comparison_point_case():
    K = c_delta(0)
    c = Chain.unit(0, "0")
    lhs = under_slice_simplices(K, c, 0)
    rhs = classified_pairs(K, c, 0)
    assert len(lhs) == len(rhs) == 1


def test_comparison_is_simplicial():
    # the forward maps commute with the simplicial operators on both sides
    K = c_delta(1)
    c = Chain.unit(0, "0")
    from steiner_lab.simplex import join_maps
    from steiner_lab.tensor import tensor_morphism

    for n in (1, 2):
        for psi in all_monotone_maps(n - 1, n):
            for cp, a in under_slice_simplices(K, c, n):
                a_res = a.after(c_of_map(psi))
                cp_res = cp.after(c_of_map(join_maps(identity_map(0), psi)))
                _, T = to_slice_pair(cp, a, n)
                _, T_res = to_slice_pair(cp_res, a_res, n - 1)
                routed = T.h.after(
                    tensor_morphism(identity_morphism(c_delta(1)), c_of_map(psi))
                )
                assert routed == T_res.h


def test_cone_atom_recursion():
    # the atom over a cone tuple is built from the base tuple's atom: the
    # lower rows prepend the cone point to the opposite row one degree down
    from steiner_lab import atom_cell
    from steiner_lab.simplex import simplex_token, token_simplex

    for n in (2, 3):
        K = c_delta(1 + n)

        def cone(chain):
            return Chain.make(
                chain.degree + 1,
                [
                    (simplex_token((0,) + token_simplex(t)), coeff)
                    for t, coeff in chain.items()
                ],
            )

        for p in range(1, n + 1):
            for token in K.tokens(p):
                tup = token_simplex(token)
                if tup[0] != 0:
                    continue
                base = atom_cell(K, simplex_token(tup[1:]))
                whole = atom_cell(K, token)
                assert whole.x0[0] == Chain.unit(0, "0")
                assert whole.x1[0] == base.x1[0]
                for r in range(1, p):
                    assert whole.x0[r] == cone(base.x1[r - 1])
                    assert whole.x1[r] == base.x1[r] + cone(
                        base.x0[r - 1]
                    )
