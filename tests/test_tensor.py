import itertools

import pytest

from oracles import morphism_from_dict
from steiner_lab import (
    Chain,
    c_delta,
    c_of_map,
    check_morphism,
    final_inclusion,
    identity_morphism,
    is_loopfree,
    is_unitary,
    pushout_complex,
    rigid_mono_check,
    strong_loopfree_order,
    tensor_complex,
    tensor_morphism,
    validate_complex,
    vertex_map,
)
from steiner_lab.retract import attachment_pushout
from steiner_lab.simplex import MonotoneMap, constant_map
from steiner_lab.tensor import (
    PushoutPreconditionError,
    left_unitor,
    tensor_injection,
    tensor_token,
)


def test_square_sizes_and_koszul_differential():
    I = c_delta(1)
    T = tensor_complex(I, I)
    assert [len(T.tokens(p)) for p in T.degrees()] == [4, 4, 1]
    d = T.diff_of(tensor_token("0,1", "0,1"))
    assert d == Chain.make(
        1,
        {
            tensor_token("1", "0,1"): 1,
            tensor_token("0", "0,1"): -1,
            tensor_token("0,1", "1"): -1,
            tensor_token("0,1", "0"): 1,
        },
    )


def test_unit_of_the_tensor():
    K = c_delta(2)
    unitor = left_unitor(K)
    assert check_morphism(unitor).ok and rigid_mono_check(unitor)
    T = unitor.source
    assert [len(T.tokens(p)) for p in T.degrees()] == [
        len(K.tokens(p)) for p in K.degrees()
    ]


def test_prism_sizes():
    T = tensor_complex(c_delta(1), c_delta(2))
    assert [len(T.tokens(p)) for p in T.degrees()] == [6, 9, 5, 1]


@pytest.mark.parametrize("p,q", [(p, q) for p in range(4) for q in range(4) if p + q <= 4])
def test_tensor_preserves_strong_steiner(p, q):
    T = tensor_complex(c_delta(p), c_delta(q))
    assert validate_complex(T).ok
    assert is_unitary(T)
    assert strong_loopfree_order(T) is not None
    assert is_loopfree(T)


def test_tensor_of_identities_is_identity():
    K, L = c_delta(1), c_delta(2)
    f = tensor_morphism(identity_morphism(K), identity_morphism(L))
    assert f == identity_morphism(tensor_complex(K, L))


def test_tensor_morphism_collapse():
    I = c_delta(1)
    collapse = c_of_map(MonotoneMap(1, 0, (0, 0)))
    f = tensor_morphism(collapse, identity_morphism(I))
    assert check_morphism(f).ok
    assert f.image_of(tensor_token("0,1", "0,1")).is_zero


def test_tensor_morphism_is_functorial():
    sigma = c_of_map(MonotoneMap(2, 1, (0, 0, 1)))
    delta = c_of_map(MonotoneMap(1, 2, (0, 2)))
    lhs = tensor_morphism(sigma.after(delta), identity_morphism(c_delta(1)))
    rhs = tensor_morphism(sigma, identity_morphism(c_delta(1))).after(
        tensor_morphism(delta, identity_morphism(c_delta(1)))
    )
    assert lhs == rhs


def test_rigid_checks():
    assert rigid_mono_check(c_of_map(final_inclusion(1, 1)))
    assert not rigid_mono_check(c_of_map(MonotoneMap(1, 0, (0, 0))))
    assert rigid_mono_check(tensor_injection(c_delta(1), c_delta(2), "1"))


# -- pushouts ----------------------------------------------------------------

def glued_intervals():
    I, P0 = c_delta(1), c_delta(0)
    f = morphism_from_dict(P0, I, {"0": Chain.unit(0, "1")})
    g = morphism_from_dict(P0, I, {"0": Chain.unit(0, "0")})
    return pushout_complex(f, g)


def test_interval_gluing_sizes():
    P = glued_intervals()
    assert [len(P.complex.tokens(p)) for p in P.complex.degrees()] == [3, 2]
    assert validate_complex(P.complex).ok
    assert is_unitary(P.complex)
    assert strong_loopfree_order(P.complex) is not None


def test_attachment_pushout_sizes_by_formula():
    m, n = 1, 1
    K = c_delta(m + 1 + n)
    T = tensor_complex(c_delta(1), c_delta(n))
    M = c_delta(n)
    P = pushout_complex(
        c_of_map(final_inclusion(m, n)), tensor_injection(c_delta(1), M, "0")
    )
    for p in P.complex.degrees():
        expected = len(K.tokens(p)) + len(T.tokens(p)) - len(M.tokens(p))
        assert len(P.complex.tokens(p)) == expected
    assert [len(P.complex.tokens(p)) for p in P.complex.degrees()] == [6, 9, 5, 1]


def test_pushout_along_identities_is_the_complex():
    K = c_delta(2)
    ident = identity_morphism(K)
    P = pushout_complex(ident, ident)
    # reflects K up to the token namespace
    rename = P.left
    assert rigid_mono_check(rename)
    assert [len(P.complex.tokens(p)) for p in P.complex.degrees()] == [
        len(K.tokens(p)) for p in K.degrees()
    ]
    assert P.induced(ident, ident).after(P.left) == ident


def test_pushout_rejects_nonrigid_legs():
    I, P0 = c_delta(1), c_delta(0)
    collapse = c_of_map(MonotoneMap(1, 0, (0, 0)))
    with pytest.raises(PushoutPreconditionError, match="rigid"):
        pushout_complex(collapse, identity_morphism(I).after(identity_morphism(I)))


def test_pushout_rejects_nontotal_base():
    from steiner_lab import DirComplex

    M = DirComplex([["a", "b"]], {}, {"a": 1, "b": 1})
    K = c_delta(1)
    f = morphism_from_dict(M, K, {"a": Chain.unit(0, "0"), "b": Chain.unit(0, "1")})
    with pytest.raises(PushoutPreconditionError, match="total"):
        pushout_complex(f, f)


def test_universal_property_on_small_instances():
    P = glued_intervals()
    I = c_delta(1)
    K2 = c_delta(2)
    # map the two glued intervals onto consecutive edges of the triangle
    u = c_of_map(MonotoneMap(1, 2, (0, 1)))
    v = c_of_map(MonotoneMap(1, 2, (1, 2)))
    induced = P.induced(u, v)
    assert check_morphism(induced).ok
    assert induced.after(P.left) == u
    assert induced.after(P.right) == v


@pytest.mark.parametrize("m,n", list(itertools.product(range(3), range(3))))
def test_attachment_pushouts_are_strong_steiner(m, n):
    P = pushout_complex(
        c_of_map(final_inclusion(m, n)),
        tensor_injection(c_delta(1), c_delta(n), "0"),
    )
    assert validate_complex(P.complex).ok
    assert is_unitary(P.complex)
    assert strong_loopfree_order(P.complex) is not None


@pytest.mark.parametrize("m,n", list(itertools.product(range(3), range(3))))
def test_wedge_pushouts_are_strong_steiner(m, n):
    P = pushout_complex(
        c_of_map(vertex_map(m, m)), c_of_map(vertex_map(1 + n, 0))
    )
    assert validate_complex(P.complex).ok
    assert is_unitary(P.complex)
    assert strong_loopfree_order(P.complex) is not None


def test_induced_rejects_bad_co_pairings():
    P = attachment_pushout(1, 1)
    assert P.induced(P.left, P.right) == identity_morphism(P.complex)
    cylinder = P.right.source
    with pytest.raises(ValueError, match="wrong sources"):
        P.induced(P.right, P.right)
    with pytest.raises(ValueError, match="different targets"):
        P.induced(P.left, identity_morphism(cylinder))
    # push the whole cylinder to its far end, away from the glued base
    far_end = tensor_morphism(c_of_map(constant_map(1, 1, 1)), identity_morphism(c_delta(1)))
    v = P.right.after(far_end)
    assert check_morphism(v).ok
    with pytest.raises(ValueError, match="disagree on the base"):
        P.induced(P.left, v)
