"""The public constructions refuse arguments outside their domain with a
named error: each case calls one of them on such arguments and checks the
exception type and its message."""

import re

import pytest

from steiner_lab import (
    AdcMorphism,
    Chain,
    DirComplex,
    OplaxTransformation,
    atom_cell,
    bisimplicial_comparison,
    c_delta,
    c_of_map,
    compose,
    enumerate_slice_cells,
    identity_morphism,
    identity_oplax,
    map_cell,
    nerve,
    partial_wedge_projection,
    pushout_complex,
    slice_compose,
    slice_functor,
    target_iter,
)
from steiner_lab.nerves import identity_simplicial_map
from steiner_lab.simplex import constant_map, degeneracy_map, face_map, identity_map
from steiner_lab.slices import constant_morphism
from steiner_lab.solve import solve_boundary
from steiner_lab.tensor import PushoutPreconditionError


def _point_comparison(cap_m, cap_n):
    """S(u) of the identity of the point's nerve, known to level 1."""
    return bisimplicial_comparison(identity_simplicial_map(nerve(c_delta(0), 1)), cap_m, cap_n)


def _slice_object(vertex):
    """A 0-cell of the slice of the triangle's identity under ``vertex``."""
    return enumerate_slice_cells(identity_morphism(c_delta(2)), Chain.unit(0, vertex), 0)[0][0]


def _edge_slice_functor(v, w):
    """The slice functor of (id, v, w, identity_oplax(id)) over cDelta(1)."""
    ident = identity_morphism(c_delta(1))
    return slice_functor(ident, v, w, identity_oplax(ident))


EDGE = c_delta(1)
COLLAPSE = c_of_map(constant_map(1, 1, 0))
TWO_POINTS = DirComplex([["a", "b"]], {}, {"a": 1, "b": 1})

REFUSALS = {
    "MonotoneMap.compose": (
        lambda: face_map(2, 0).compose(face_map(2, 0)), ValueError, "composition mismatch"
    ),
    "partial_wedge_projection": (
        lambda: partial_wedge_projection(1, 2, identity_map(2)), ValueError,
        "phi must be a monotone map Delta(n) -> Delta(1)",
    ),
    "solve_boundary degree 0": (
        lambda: solve_boundary(EDGE, 0, Chain.zero(0)), ValueError,
        "use solve_augmentation in degree 0",
    ),
    "solve_boundary target degree": (
        lambda: solve_boundary(EDGE, 1, Chain.zero(1)), ValueError, "target degree mismatch"
    ),
    "simplices beyond the cap": (
        lambda: nerve(c_delta(0), 1).simplices(2), ValueError, "dimension 2 beyond cap 1"
    ),
    "bisimplices beyond the caps": (
        lambda: _point_comparison(0, 0)[0].simplices(1, 0), ValueError,
        "bidegree (1,0) beyond caps",
    ),
    "bisimplicial_comparison past Y's cap": (
        lambda: _point_comparison(1, 0), ValueError,
        "cap exceeded: deeper tables needed for S(u)",
    ),
    "compose over two complexes": (
        lambda: compose(atom_cell(EDGE, "0,1"), atom_cell(c_delta(2), "0,1"), 0), ValueError,
        "cells live over different complexes",
    ),
    "compose above the dimension": (
        lambda: compose(atom_cell(EDGE, "0,1"), atom_cell(EDGE, "0,1"), 1), ValueError,
        "no composition *_1 in dimension 1",
    ),
    "map_cell off the source": (
        lambda: map_cell(COLLAPSE, atom_cell(c_delta(2), "0")), ValueError,
        "cell does not live over the morphism source",
    ),
    "target_iter below 0": (
        lambda: target_iter(atom_cell(EDGE, "0,1"), -1), ValueError, "0-cells have no target"
    ),
    "slice_compose across slices": (
        lambda: slice_compose(_slice_object("0"), _slice_object("1"), 0), ValueError,
        "slice cells live in different slices",
    ),
    "slice_compose above the dimension": (
        lambda: slice_compose(_slice_object("0"), _slice_object("0"), 0), ValueError,
        "no composition *_0 in dimension 0",
    ),
    "slice_functor source leg": (
        lambda: _edge_slice_functor(COLLAPSE, identity_morphism(EDGE)), ValueError,
        "alpha does not start at the left leg",
    ),
    "slice_functor target leg": (
        lambda: _edge_slice_functor(identity_morphism(EDGE), COLLAPSE), ValueError,
        "alpha does not end at the composed leg",
    ),
    "slice_functor cell off the left leg": (
        lambda: _edge_slice_functor(identity_morphism(EDGE), identity_morphism(EDGE))(
            _slice_object("0")
        ),
        ValueError, "slice cell is not over the left leg",
    ),
    "constant_morphism": (
        lambda: constant_morphism(EDGE, EDGE, Chain.make(0, {"0": 1, "1": 1})), ValueError,
        "constant value must be an object chain of the target",
    ),
    "OplaxTransformation": (
        lambda: OplaxTransformation(identity_morphism(EDGE)), ValueError,
        "h is not defined on a cylinder complex",
    ),
    "pushout of a repeated target": (
        lambda: pushout_complex(*[AdcMorphism(TWO_POINTS, c_delta(0), c_delta(0).row[:1] * 2)] * 2),
        PushoutPreconditionError, "left leg is not a rigid monomorphism",
    ),
    "pushout right leg": (
        lambda: pushout_complex(identity_morphism(EDGE), c_of_map(degeneracy_map(0, 0))),
        PushoutPreconditionError, "right leg is not a rigid monomorphism",
    ),
    "pushout without a shared base": (
        lambda: pushout_complex(identity_morphism(c_delta(0)), identity_morphism(EDGE)),
        PushoutPreconditionError, "legs do not share a base complex",
    ),
    "DirComplex token type": (
        lambda: DirComplex([[1]], {}, {}), TypeError, "token 1 is not a string"
    ),
    "DirComplex unknown token": (
        lambda: DirComplex([["a"]], {"b": Chain.zero(0)}, {}), ValueError,
        "differential on unknown token 'b'",
    ),
    "DirComplex degree-0 differential": (
        lambda: DirComplex([["a"]], {"a": Chain.zero(0)}, {}), ValueError,
        "differential on degree-0 token 'a'",
    ),
    "diff_of in degree 0": (
        lambda: EDGE.diff_of("0"), ValueError, "no differential in degree 0 ('0')"
    ),
    "aug_of above degree 0": (
        lambda: EDGE.aug_of("0,1"), ValueError,
        "augmentation is defined in degree 0 only ('0,1')",
    ),
    "d in degree 0": (
        lambda: EDGE.d(Chain.unit(0, "0")), ValueError, "d is defined in degree >= 1"
    ),
    "e above degree 0": (
        lambda: EDGE.e(Chain.unit(1, "0,1")), ValueError,
        "augmentation applies to degree-0 chains",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_public_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
