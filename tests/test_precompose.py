"""Precomposition with a simplicial operator as a gather, against the
composite with an independently built c(phi)."""

import pytest

from oracles import oracle_c
from steiner_lab import AdcMorphism, Chain, identity_morphism, tensor_morphism
from steiner_lab.retract import attachment_pushout, cylinder_precompose
from steiner_lab.simplex import (
    all_monotone_maps,
    c_delta,
    c_of_map,
    identity_map,
    precompose,
)
from steiner_lab.tensor import tensor_complex


def labelled(K, L):
    """A map K -> L with a different image on every token (not a chain map):
    token k of degree p goes to (k + 1) times the first p-token of L."""
    images = {}
    for p in K.degrees():
        for k, token in enumerate(K.tokens(p)):
            images[token] = Chain.unit(p, L.tokens(p)[0], k + 1)
    return AdcMorphism(K, L, images)


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
        assert precompose(f, phi) == f.after(c)
        collapsing += len(set(phi.image)) < len(phi.image)
    assert collapsing > 0


def test_cylinder_gather_matches_tensor_composite():
    I = c_delta(1)
    checked = 0
    for n in range(4):
        P = attachment_pushout(0, n)
        f = labelled(tensor_complex(I, c_delta(n)), tensor_complex(I, c_delta(4)))
        for n2 in range(4):
            for psi in all_monotone_maps(n2, n):
                via_tensor = tensor_morphism(identity_morphism(I), c_of_map(psi))
                assert cylinder_precompose(P.right, psi) == P.right.after(via_tensor)
                assert cylinder_precompose(f, psi) == f.after(via_tensor)
                checked += 1
    assert checked == 121


def test_mismatched_sources_raise():
    with pytest.raises(ValueError, match="composition mismatch"):
        precompose(identity_morphism(c_delta(2)), identity_map(3))
    with pytest.raises(ValueError, match="composition mismatch"):
        cylinder_precompose(identity_morphism(c_delta(2)), identity_map(2))
