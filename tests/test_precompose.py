"""Precomposition with a simplicial operator: c(phi) against an independently
built c(phi), composites through ``after`` against composites summed from
raw terms, and the cylinder map id (x) c(psi) against a(x)t -> a(x)psi(t)."""

import pytest

from oracles import composite_by_make, morphism_from_dict, oracle_c
from steiner_lab import Chain, identity_morphism
from steiner_lab.retract import _cylinder_map, attachment_pushout
from steiner_lab.simplex import (
    all_monotone_maps,
    c_delta,
    c_of_map,
    identity_map,
    simplex_token,
    token_simplex,
)
from steiner_lab.tensor import tensor_complex, tensor_token


def labelled(K, L):
    """A map K -> L with a different image on every token (not a chain map):
    token k of degree p goes to (k + 1) times the first p-token of L."""
    images = {}
    for p in K.degrees():
        for k, token in enumerate(K.tokens(p)):
            images[token] = (k + 1) * Chain.unit(p, L.tokens(p)[0])
    return morphism_from_dict(K, L, images)


def maps_up_to(bound):
    return [
        phi for m in range(bound + 1) for n in range(bound + 1) for phi in all_monotone_maps(m, n)
    ]


def test_precompose_and_c_of_map_match_the_oracle():
    phis = maps_up_to(4)
    assert len(phis) == 456
    collapsing = 0
    for phi in phis:
        c = oracle_c(phi)
        assert c_of_map(phi) == c
        f = labelled(c_delta(phi.dst), c_delta(4))
        assert f.after(c_of_map(phi)).images == composite_by_make(f, c)
        collapsing += len(set(phi.image)) < len(phi.image)
    assert collapsing > 0


def test_cylinder_gather_matches_tensor_composite():
    """id (x) c(psi) sends a(x)t to a(x)psi(t), or to 0 where psi repeats a
    value on t, and precomposing with it is composing with it."""
    I = c_delta(1)
    checked = 0
    for n in range(4):
        P = attachment_pushout(0, n)
        f = labelled(tensor_complex(I, c_delta(n)), tensor_complex(I, c_delta(4)))
        for n2 in range(4):
            for psi in all_monotone_maps(n2, n):
                cylinder = _cylinder_map(psi)
                assert cylinder.source == tensor_complex(I, c_delta(n2))
                assert cylinder.target == tensor_complex(I, c_delta(n))
                for q in I.degrees():
                    for a in I.tokens(q):
                        for p in c_delta(n2).degrees():
                            for t in c_delta(n2).tokens(p):
                                values = tuple(psi(i) for i in token_simplex(t))
                                want = (
                                    Chain.zero(p + q) if len(set(values)) < len(values)
                                    else Chain.unit(p + q, tensor_token(a, simplex_token(values)))
                                )
                                assert cylinder.image_of(tensor_token(a, t)) == want
                for g in (P.right, f):
                    assert g.after(cylinder).images == composite_by_make(g, cylinder)
                checked += 1
    assert checked == 121


def test_mismatched_sources_raise():
    with pytest.raises(ValueError, match="composition mismatch"):
        identity_morphism(c_delta(2)).after(c_of_map(identity_map(3)))
    with pytest.raises(ValueError, match="composition mismatch"):
        identity_morphism(c_delta(2)).after(_cylinder_map(identity_map(2)))
