"""Acceptance criteria, one test per criterion, each timed against its
stated budget and reporting a single pass line."""

import time

from axioms import all_axiom_failures
from oracles import brute_morphisms
from steiner_lab import (
    Chain,
    atom_cell,
    atom_tableau,
    c_delta,
    c_of_map,
    check_morphism,
    cylinder_attachment,
    cylinder_to_cone,
    decalage_homotopy,
    enumerate_cells,
    from_slice_pair,
    hom_enumerate,
    is_loopfree,
    is_unitary,
    lambda_of_nu,
    nerve,
    partial_wedge_projection,
    strong_loopfree_order,
    to_slice_pair,
    validate_complex,
    verify_suite,
    wedge_projection,
)
from steiner_lab.nerves import enumerate_morphisms
from steiner_lab.retract import wedge_pushout, attachment_pushout
from steiner_lab.simplex import (
    all_monotone_maps,
    constant_map,
    final_inclusion,
    vertex_map,
)
from steiner_lab.slices import (
    INTERVAL_SRC,
    INTERVAL_TGT,
    OplaxTransformation,
    constant_morphism,
    cylinder_complex,
)
from steiner_lab.tensor import tensor_complex, tensor_token


def report(criterion, started, budget):
    elapsed = time.time() - started
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget


def structural_suite(K):
    assert validate_complex(K).ok
    assert is_unitary(K)
    assert is_loopfree(K)
    assert strong_loopfree_order(K) is not None


def acceptance_complexes():
    out = [c_delta(n) for n in range(6)]
    for p in range(6):
        for q in range(6 - p):
            out.append(tensor_complex(c_delta(p), c_delta(q)))
    for m in range(4):
        for n in range(4):
            out.append(attachment_pushout(m, n).complex)
            out.append(wedge_pushout(m, n).complex)
    return out


def test_criterion_1_structural_validity():
    started = time.time()
    for K in acceptance_complexes():
        structural_suite(K)
    report(1, started, 10)


def test_criterion_2_atom_correctness():
    started = time.time()
    atom = atom_cell(c_delta(2), "0,1,2")
    assert atom.x0 == (
        Chain.unit(0, "0"),
        Chain.unit(1, "0,2"),
        Chain.unit(2, "0,1,2"),
    )
    assert atom.x1 == (
        Chain.unit(0, "2"),
        Chain.make(1, {"0,1": 1, "1,2": 1}),
        Chain.unit(2, "0,1,2"),
    )
    for K in acceptance_complexes():
        for p in K.degrees():
            for token in K.tokens(p):
                rows = atom_tableau(K, token).rows
                for k in range(1, p + 1):
                    want = rows[k - 1][1] - rows[k - 1][0]
                    assert K.d(rows[k][0]) == want and K.d(rows[k][1]) == want
    report(2, started, 60)


def test_criterion_3_oriental_counts():
    started = time.time()
    K2 = c_delta(2)
    assert len(enumerate_cells(K2, 0).cells) == 3
    assert len(enumerate_cells(K2, 1).nonidentity()) == 4
    assert len(enumerate_cells(K2, 2).nonidentity()) == 1

    # the nerve of the interval is the representable interval
    K1 = c_delta(1)
    for n in range(3):
        maps = {c_of_map(phi) for phi in all_monotone_maps(n, 1)}
        assert maps == set(hom_enumerate(n, K1))

    # counts certified against the brute-force oracle
    brute1 = brute_morphisms(c_delta(1), K2, 2)
    brute2 = brute_morphisms(c_delta(2), K2, 2)
    assert len(brute1) == 7 and len(hom_enumerate(1, K2)) == 7
    assert len(brute2) == 15 and len(hom_enumerate(2, K2)) == 15
    N2 = nerve(K2, 2)
    assert [nd for _, _, nd in N2.counts(2)] == [3, 4, 4]
    report(3, started, 60)


def test_criterion_4_presented_abelianization():
    started = time.time()
    for n in range(4):
        for comparison in lambda_of_nu(c_delta(n), n):
            assert comparison.matches, comparison
    report(4, started, 60)


def test_criterion_4_counit_on_tensor_products():
    # Every degree of two 4-dimensional Steiner complexes: the relation
    # matrices reach 579 x 235, which the sparse Smith normal form keeps cheap.
    started = time.time()
    for p, q in ((2, 2), (3, 1)):
        K = tensor_complex(c_delta(p), c_delta(q))
        reports = lambda_of_nu(K, 4)
        assert [r.degree for r in reports] == list(range(K.dim + 1))
        for comparison in reports:
            assert comparison.matches, comparison
    report("4b", started, 5)


def test_criterion_5_axiom_suite_on_the_three_oriental():
    started = time.time()
    cells = []
    for i in range(4):
        enum = enumerate_cells(c_delta(3), i)
        assert enum.complete
        cells.extend(enum.cells)
    assert not all_axiom_failures(cells)
    report(5, started, 120)


def test_criterion_6_chain_maps_with_fault_injection():
    started = time.time()
    for n in range(5):
        assert check_morphism(cylinder_to_cone(n)).ok
    for m in range(5):
        for n in range(5):
            assert check_morphism(cylinder_attachment(m, n)).ok
            assert check_morphism(wedge_projection(m, n)).ok
            for phi in all_monotone_maps(n, 1):
                assert check_morphism(partial_wedge_projection(m, n, phi)).ok

    from test_retract import corrupted_wedge_projection

    bad = corrupted_wedge_projection(1, 1)
    report_bad = check_morphism(bad)
    assert not report_bad.ok
    assert any("d-compatibility broken at 0,2" in p for p in report_bad.problems)
    report(6, started, 60)


def test_criterion_7_identity_and_retract_suite():
    started = time.time()
    suite = verify_suite(3, 3, include_nerve_retract=True)
    for result in suite.results:
        assert result.passed, (result.name, result.counterexample)
    counts = {r.name: r.instances for r in suite.results}
    assert all(n > 0 for n in counts.values())
    assert counts["cylinder attachment naturality"] == 14641
    assert counts["wedge projection naturality"] == 484
    assert counts["partial wedge coherence with final-block operators"] == 2124
    assert counts["cone collapse naturality (n, n' <= 3)"] == 121
    report(7, started, 300)


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


def test_criterion_8_slice_nerve_comparison():
    started = time.time()
    for N, dims in ((1, (0, 1, 2)), (2, (0, 1))):
        K = c_delta(N)
        c = Chain.unit(0, "0")
        for n in dims:
            lhs = [
                (cp, cp.after(c_of_map(final_inclusion(0, n))))
                for cp in hom_enumerate(1 + n, K)
                if cp.image_of("0") == c
            ]
            rhs = classified_pairs(K, c, n)
            images = set()
            for cp, a in lhs:
                a2, T = to_slice_pair(cp, a, n)
                assert from_slice_pair(a2, T, n, c) == cp
                images.add((a2, T.h))
            assert len(images) == len(lhs)
            assert images == {(a, T.h) for a, T in rhs}
            for a, T in rhs:
                cp = from_slice_pair(a, T, n, c)
                a2, T2 = to_slice_pair(cp, a, n)
                assert T2.h == T.h
    report(8, started, 120)


def contraction_equations(space_data, cap):
    data = space_data
    for n in range(cap + 1):
        for xp in data.space.simplices(n):
            assert data.homotopy(constant_map(n, 1, 0), xp) == xp
            assert data.homotopy(constant_map(n, 1, 1), xp) == data.section(n, xp)
    for n in range(cap):
        for psi in all_monotone_maps(n, n + 1):
            for phi in all_monotone_maps(n + 1, 1):
                for xp in data.space.simplices(n + 1):
                    lhs = data.space.act(psi, data.homotopy(phi, xp))
                    rhs = data.homotopy(phi.compose(psi), data.space.act(psi, xp))
                    assert lhs == rhs


def test_criterion_9_contractibility_data():
    started = time.time()
    from steiner_lab.nerves import standard_simplex

    D2 = standard_simplex(2, 4)
    contraction_equations(decalage_homotopy(D2, vertex_map(2, 2), 0), 2)
    N2 = nerve(c_delta(2), 4)
    edge = [
        x
        for x in N2.simplices(1)
        if x.image_of("0,1") == Chain.unit(1, "0,2")
    ][0]
    contraction_equations(decalage_homotopy(N2, edge, 1), 2)
    vertex = [x for x in N2.simplices(0) if x.image_of("0") == Chain.unit(0, "1")][0]
    contraction_equations(decalage_homotopy(N2, vertex, 0), 2)
    report(9, started, 120)


def test_nerve_of_the_tetrahedron_to_cap_five():
    """The tetrahedron's nerve to cap 5, built without acting first: its level
    sizes and its ordered levels, recorded before the enumeration solved once
    per tuple of face images."""
    from test_nerves import _level_digest

    started = time.time()
    N = nerve(c_delta(3), 5)
    assert [len(N.simplices(n)) for n in range(6)] == [4, 15, 60, 265, 1316, 7461]
    report("nerve(Delta3, 5)", started, 10)
    assert _level_digest(N, 5) == "5fdcff768da44bfe"
