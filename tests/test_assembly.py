"""The bisimplicial assembly induced by a comparison triangle, exercised on
concrete data: membership, bisimplicial naturality, the initial-column
identification, and the interval-fold pentagon on instances."""

import pytest

from steiner_lab import (
    Chain,
    c_delta,
    check_morphism,
    cylinder_attachment,
    cylinder_to_cone,
    identity_morphism,
    vertical_compose,
)
from steiner_lab.nerves import hom_enumerate
from steiner_lab.retract import attachment_pushout
from steiner_lab.simplex import (
    all_monotone_maps,
    c_of_map,
    final_inclusion,
    identity_map,
    initial_inclusion,
    join_maps,
)
from steiner_lab.slices import (
    INTERVAL_SRC,
    INTERVAL_TGT,
    OplaxTransformation,
    cylinder_complex,
    precompose_oplax,
)
from steiner_lab.tensor import tensor_morphism, tensor_token
from test_slices import nontrivial_triangle


def assembly_map(u, w, alpha, m, n, c, a):
    """One bidegree of the triangle's assembly: rewrite the cone simplex
    through the attached cylinder and push the tail through u."""
    P = attachment_pushout(m, n)
    kappa = cylinder_attachment(m, n)
    whiskered = precompose_oplax(alpha, a)
    folded = P.induced(c, whiskered.h)
    return folded.after(kappa), u.after(a)


def triangle_bidegree(v, m, n, c_value):
    """Elements (c, a) of the comparison object of v in bidegree (m, n)."""
    out = []
    KA, KC = v.source, v.target
    for c in hom_enumerate(m + 1 + n, KC):
        tail = c.after(c_of_map(final_inclusion(m, n)))
        for a in hom_enumerate(n, KA):
            if v.after(a) == tail:
                out.append((c, a))
    return out


@pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_assembly_lands_in_the_target_object(m, n):
    u, v, w, alpha = nontrivial_triangle()
    for c, a in triangle_bidegree(v, m, n, None):
        new_c, new_a = assembly_map(u, w, alpha, m, n, c, a)
        assert check_morphism(new_c).ok
        # the final face of the image is w . u . a
        assert new_c.after(c_of_map(final_inclusion(m, n))) == w.after(new_a)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (1, 1)])
def test_assembly_is_bisimplicial_on_instances(m, n):
    u, v, w, alpha = nontrivial_triangle()
    for m2 in range(m + 1):
        for n2 in range(n + 1):
            for phi in all_monotone_maps(m2, m):
                for psi in all_monotone_maps(n2, n):
                    for c, a in triangle_bidegree(v, m, n, None):
                        moved_c = c.after(c_of_map(join_maps(phi, psi)))
                        moved_a = a.after(c_of_map(psi))
                        lhs = assembly_map(u, w, alpha, m2, n2, moved_c, moved_a)
                        big = assembly_map(u, w, alpha, m, n, c, a)
                        rhs = (
                            big[0].after(c_of_map(join_maps(phi, psi))),
                            big[1].after(c_of_map(psi)),
                        )
                        assert lhs == rhs


@pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (1, 1)])
def test_assembly_fixes_the_initial_column(m, n):
    u, v, w, alpha = nontrivial_triangle()
    inc = c_of_map(initial_inclusion(m, n))
    for c, a in triangle_bidegree(v, m, n, None):
        new_c, _ = assembly_map(u, w, alpha, m, n, c, a)
        assert new_c.after(inc) == c.after(inc)


@pytest.mark.parametrize("n", [0, 1])
def test_assembly_column_is_the_vertical_composite(n):
    # at m = 0 the rewritten cone simplex classifies exactly the vertical
    # composite of the whiskered transformation with the simplex's own one
    u, v, w, alpha = nontrivial_triangle()
    pi = cylinder_to_cone(n)
    for c, a in triangle_bidegree(v, 0, n, None):
        new_c, _ = assembly_map(u, w, alpha, 0, n, c, a)
        lhs = OplaxTransformation(new_c.after(pi))
        rhs = vertical_compose(
            precompose_oplax(alpha, a), OplaxTransformation(c.after(pi)), a.source
        )
        assert lhs.h == rhs.h
