import pytest

from axioms import all_axiom_failures
from oracles import brute_cells
from steiner_lab import (
    Chain,
    c_delta,
    atom_cell,
    c_of_map,
    compose,
    enumerate_cells,
    identity,
    is_identity_cell,
    lambda_of_nu,
    map_cell,
    object_cell,
    source,
    source_iter,
    target,
    target_iter,
)
from steiner_lab.cells import CellTableau, cell_problems, composable
from steiner_lab.simplex import MonotoneMap, face_map


def triangle():
    return c_delta(2)


def test_atom_is_a_cell():
    assert not cell_problems(atom_cell(triangle(), "0,1,2"))


def test_padded_object_identity_is_a_cell():
    obj = object_cell(triangle(), Chain.unit(0, "0"))
    assert not cell_problems(identity(identity(obj)))


def test_augmentation_two_fails():
    K = triangle()
    bad = CellTableau(
        K,
        (Chain.make(0, {"0": 1, "1": 1}),),
        (Chain.make(0, {"0": 1, "1": 1}),),
    )
    assert any("augmentation" in p for p in cell_problems(bad))


def test_structural_error_on_degree_mismatch():
    K = triangle()
    with pytest.raises(ValueError):
        cell_problems(CellTableau(K, (Chain.unit(1, "0,1"),), (Chain.unit(1, "0,1"),)))


@pytest.mark.parametrize(
    "x0, x1, message",
    [
        ((), (), "equal-length nonempty"),
        ((Chain.unit(0, "0"),), (Chain.unit(0, "0"), Chain.unit(1, "0,1")), "equal-length"),
        ((Chain.unit(0, "9"),), (Chain.unit(0, "9"),), "outside the complex"),
    ],
    ids=["no rows", "unequal rows", "token outside"],
)
def test_structural_error_on_malformed_rows(x0, x1, message):
    with pytest.raises(ValueError, match=message):
        cell_problems(CellTableau(c_delta(1), x0, x1))


@pytest.mark.parametrize(
    "x0, x1, problems",
    [
        (
            (Chain.make(0, {"0": 2, "1": -1}),),
            (Chain.make(0, {"0": 2, "1": -1}),),
            ["lower entry in degree 0 is not positive", "upper entry in degree 0 is not positive"],
        ),
        (
            (Chain.unit(0, "0"), Chain.unit(1, "0,1")),
            (Chain.unit(0, "0"), Chain.unit(1, "0,1")),
            [
                "d of lower degree-1 entry is not the row difference",
                "d of upper degree-1 entry is not the row difference",
            ],
        ),
        ((Chain.unit(0, "0"),), (Chain.unit(0, "1"),), ["top entries differ"]),
    ],
    ids=["not positive", "not the row difference", "top entries differ"],
)
def test_cell_problems_name_each_broken_condition(x0, x1, problems):
    assert cell_problems(CellTableau(c_delta(1), x0, x1)) == problems


def test_source_and_target_of_the_atom():
    a = atom_cell(triangle(), "0,1,2")
    s, t = source(a), target(a)
    assert s.top == Chain.unit(1, "0,2")
    assert t.top == Chain.make(1, {"0,1": 1, "1,2": 1})
    assert not cell_problems(s) and not cell_problems(t)
    assert source_iter(a, 0).top == Chain.unit(0, "0")
    assert target_iter(a, 0).top == Chain.unit(0, "2")


def test_source_of_zero_cell_raises():
    with pytest.raises(ValueError):
        source(object_cell(triangle(), Chain.unit(0, "0")))


def test_target_of_identity_is_the_cell():
    a = atom_cell(triangle(), "0,1,2")
    assert source(identity(a)) == a and target(identity(a)) == a


def test_identity_twice_has_two_zero_rows():
    obj = object_cell(triangle(), Chain.unit(0, "1"))
    two = identity(identity(obj))
    assert two.x0[1].is_zero and two.x0[2].is_zero


def test_compose_edges_of_the_triangle():
    K = triangle()
    left = atom_cell(K, "0,1")
    right = atom_cell(K, "1,2")
    comp = compose(right, left, 0)
    assert comp.top == Chain.make(1, {"0,1": 1, "1,2": 1})
    assert not cell_problems(comp)


def test_compose_with_padded_object():
    K = triangle()
    a = atom_cell(K, "0,1,2")
    obj = object_cell(K, Chain.unit(0, "0"))
    assert compose(a, obj, 0) == a


def test_noncomposable_raises():
    K = triangle()
    with pytest.raises(ValueError, match="0-composable"):
        compose(atom_cell(K, "0,1"), atom_cell(K, "1,2"), 0)


def test_composability_matches_the_iterated_boundaries():
    K = triangle()
    cells = [c for d in range(3) for c in enumerate_cells(K, d).cells]

    def pad(cell, i):
        while cell.dim < i:
            cell = identity(cell)
        return cell

    joined = apart = 0
    for x in cells:
        for y in cells:
            i = max(x.dim, y.dim)
            assert not composable(x, y, i)
            for j in range(i):
                if source_iter(pad(x, i), j) == target_iter(pad(y, i), j):
                    joined += 1
                    assert composable(x, y, j)
                    assert not cell_problems(compose(x, y, j))
                else:
                    apart += 1
                    assert not composable(x, y, j)
                    with pytest.raises(ValueError, match=f"not {j}-composable"):
                        compose(x, y, j)
    assert (joined, apart) == (113, 426)


def test_composability_reads_the_lower_rows_of_a_tableau():
    # on genuine cells x0[:j] and x1[:j] each follow from the other two
    # conditions; on tableaux they do not
    K = triangle()
    v, w = Chain.unit(0, "0"), Chain.unit(0, "1")
    e, z = Chain.unit(1, "0,1"), Chain.zero(2)
    x = CellTableau(K, (v, e, z), (v, e, z))
    for y in (CellTableau(K, (v, e, z), (w, e, z)), CellTableau(K, (w, e, z), (v, e, z))):
        assert source_iter(x, 1) != target_iter(y, 1)
        assert not composable(x, y, 1)
        with pytest.raises(ValueError, match="not 1-composable"):
            compose(x, y, 1)


def test_map_cell_collapse_and_relabel():
    K1 = c_delta(1)
    edge = atom_cell(K1, "0,1")
    collapsed = map_cell(c_of_map(MonotoneMap(1, 0, (0, 0))), edge)
    assert is_identity_cell(collapsed)
    relabeled = map_cell(c_of_map(face_map(2, 0)), edge)
    assert relabeled == atom_cell(c_delta(2), "1,2")


def test_map_cell_of_identity():
    from steiner_lab import identity_morphism

    K = triangle()
    a = atom_cell(K, "0,1,2")
    assert map_cell(identity_morphism(K), a) == a


# -- enumeration ---------------------------------------------------------------

def test_triangle_cell_counts():
    K = triangle()
    enum1 = enumerate_cells(K, 1)
    assert enum1.complete
    assert len(enum1.cells) == 7 and len(enum1.nonidentity()) == 4
    enum2 = enumerate_cells(K, 2)
    assert len(enum2.nonidentity()) == 1
    assert enum2.nonidentity()[0] == atom_cell(K, "0,1,2")


def test_point_has_one_cell_in_every_dimension():
    K = c_delta(0)
    for i in range(4):
        assert len(enumerate_cells(K, i).cells) == 1


@pytest.mark.parametrize("n,dim", [(2, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
def test_enumeration_matches_brute_force(n, dim):
    K = c_delta(n)
    ours = enumerate_cells(K, dim)
    brute = brute_cells(K, dim, 3)
    assert ours.complete
    assert set(ours.cells) == set(brute)


def test_identity_of_every_enumerated_cell_is_valid():
    K = c_delta(3)
    for i in range(4):
        for cell in enumerate_cells(K, i).cells:
            assert not cell_problems(identity(cell))


def test_objects_are_the_degree_zero_atoms():
    K = c_delta(3)
    objects = set(enumerate_cells(K, 0).cells)
    atoms = {atom_cell(K, t) for t in K.tokens(0)}
    assert objects == atoms


def test_every_atom_validates():
    for K in (c_delta(3), c_delta(4)):
        for p in K.degrees():
            for t in K.tokens(p):
                assert not cell_problems(atom_cell(K, t))


# -- abelianization -------------------------------------------------------------

def test_lambda_comparison_for_triangle():
    reports = lambda_of_nu(triangle(), 2)
    assert all(r.matches for r in reports)
    assert reports[1].generators == 7 and reports[1].rank == 3


def test_lambda_point():
    reports = lambda_of_nu(c_delta(0), 0)
    assert reports[0].rank == 1 and not reports[0].torsion


def test_lambda_tetrahedron_degree_two():
    reports = lambda_of_nu(c_delta(3), 2)
    assert reports[2].rank == 4 and reports[2].matches


# -- axioms ----------------------------------------------------------------------

def test_axiom_suite_on_the_triangle():
    cells = []
    for i in range(3):
        cells.extend(enumerate_cells(triangle(), i).cells)
    assert not all_axiom_failures(cells)


def test_functor_property_of_map_cell():
    src, dst = c_delta(2), c_delta(3)
    f = c_of_map(MonotoneMap(2, 3, (0, 2, 3)))
    cells = []
    for i in range(3):
        cells.extend(enumerate_cells(src, i).cells)
    for c in cells:
        image = map_cell(f, c)
        assert not cell_problems(image)
        if c.dim > 0:
            assert map_cell(f, source(c)) == source(image)
            assert map_cell(f, target(c)) == target(image)
        assert map_cell(f, identity(c)) == identity(image)
    for j in (0, 1):
        for x in cells:
            for y in cells:
                if x.dim != y.dim or x.dim <= j:
                    continue
                if source_iter(x, j) != target_iter(y, j):
                    continue
                assert map_cell(f, compose(x, y, j)) == compose(
                    map_cell(f, x), map_cell(f, y), j
                )


# -- completeness markers ---------------------------------------------------------

def two_loop_complex():
    from steiner_lab import DirComplex

    return DirComplex(
        [["a", "b"], ["g1", "g2"]],
        {"g1": Chain.make(0, {"b": 1, "a": -1}), "g2": Chain.make(0, {"a": 1, "b": -1})},
        {"a": 1, "b": 1},
    )


def test_enumeration_without_certificate_is_marked_incomplete():
    K = two_loop_complex()
    enum = enumerate_cells(K, 1, coeff_bound=2)
    assert not enum.complete
    # the loop g1+g2 keeps spawning endomorphisms, so the marker is honest
    assert len(enum.cells) > len(enumerate_cells(K, 1, coeff_bound=1).cells)


def test_enumeration_without_certificate_or_bound_raises():
    from steiner_lab.solve import SolverError

    with pytest.raises(SolverError, match="bound"):
        enumerate_cells(two_loop_complex(), 1)


def test_lambda_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match="non-negative"):
        lambda_of_nu(triangle(), -1)


def test_lambda_refuses_incomplete_enumerations():
    with pytest.raises(ValueError, match="incomplete"):
        lambda_of_nu(two_loop_complex(), 1, coeff_bound=2)
