"""The explicit chain maps comparing simplex, cylinder and wedge shapes,
the strong-deformation-retract data they induce on nerve slices, and an
exhaustive verification suite for every identity they satisfy.

The four map families:

* ``cylinder_to_cone(n)``: collapses the cylinder over the n-simplex onto
  the cone Delta(1+n), flattening the starting end to the cone point.
* ``cylinder_attachment(m, n)``: rewrites an (m+1+n)-simplex inside the
  complex obtained by gluing a cylinder onto its final n-face.
* ``wedge_projection(m, n)``: projects the (m+1+n)-simplex onto the wedge
  of Delta(m) and Delta(1+n) joined at the middle vertex m.
* ``partial_wedge_projection(m, n, phi)``: the interpolation family
  indexed by phi: Delta(n) -> Delta(1), equal to the identity at phi = 1
  and to the wedge projection at phi = 0; it realizes the simplicial
  homotopy of the strong retraction.

Every formula collapses tuples with repeated entries to zero, consistent
with the chains functor.  Each constructor builds its map once per argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .chains import AdcMorphism, Chain, check_morphism, identity_morphism, images_in_basis_order
from .nerves import (
    SimplicialMap,
    identity_simplicial_map,
    map_under_slice,
    nerve,
    simplicial_map_failures,
)
from .simplex import (
    MonotoneMap,
    all_monotone_maps,
    c_delta,
    c_of_map,
    constant_map,
    final_inclusion,
    identity_map,
    initial_inclusion,
    join_maps,
    simplex_chain,
    simplex_morphism,
    simplex_token,
    token_simplex,
    vertex_map,
)
from .slices import OplaxTransformation
from .tensor import (
    pushout_complex,
    tensor_chains,
    tensor_complex,
    tensor_injection,
    tensor_morphism,
    tensor_token,
)


# Entries kept per constructor; verify_suite(3, 3) needs at most 121 (the
# cylinder maps, one per psi).
MAP_CACHE_SIZE = 256


def _shift(tup, k):
    return tuple(i + k for i in tup)


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _cylinder_map(psi):
    """id (x) c(psi): interval (x) cDelta(psi.src) -> interval (x) cDelta(psi.dst)."""
    return tensor_morphism(identity_morphism(c_delta(1)), c_of_map(psi))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def cylinder_to_cone(n):
    """interval (x) cDelta(n) -> cDelta(1+n): flatten the 0-end to the cone
    point, embed the 1-end as the final face, send prisms to cones."""
    I = c_delta(1)
    Kn = c_delta(n)
    src = tensor_complex(I, Kn)
    dst = c_delta(1 + n)
    images = {}
    for token, p in Kn.graded():
        shifted = _shift(token_simplex(token), 1)
        images[tensor_token("0", token)] = simplex_chain((0,)) if p == 0 else Chain.zero(p)
        images[tensor_token("1", token)] = simplex_chain(shifted)
        images[tensor_token("0,1", token)] = simplex_chain((0,) + shifted)
    return AdcMorphism(src, dst, images_in_basis_order(src, images))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def attachment_pushout(m, n):
    """cDelta(m+1+n) glued to a cylinder over its final n-face."""
    return pushout_complex(
        c_of_map(final_inclusion(m, n)),
        tensor_injection(c_delta(1), c_delta(n), "0"),
    )


@lru_cache(maxsize=MAP_CACHE_SIZE)
def cylinder_attachment(m, n):
    """cDelta(m+1+n) -> cDelta(m+1+n) + cylinder over the final face.

    Tuples with at least two initial-block entries stay put; tuples with
    exactly one pick up a prism correction; tuples entirely in the final
    block are pushed to the far end of the cylinder.
    """
    P = attachment_pushout(m, n)

    def image(tup):
        r = sum(1 for i in tup if i <= m)
        if r == 0:
            back = _shift(tup, -(m + 1))
            return P.right.apply(tensor_chains(Chain.unit(0, "1"), simplex_chain(back)))
        chain = P.left.apply(simplex_chain(tup))
        if r == 1 and len(tup) > 1:
            back = _shift(tup[1:], -(m + 1))
            chain = chain + P.right.apply(tensor_chains(Chain.unit(1, "0,1"), simplex_chain(back)))
        return chain

    return simplex_morphism(m + 1 + n, P.complex, image)


@lru_cache(maxsize=MAP_CACHE_SIZE)
def wedge_pushout(m, n):
    """cDelta(m) and cDelta(1+n) joined at vertex m = vertex 0."""
    return pushout_complex(
        c_of_map(vertex_map(m, m)),
        c_of_map(vertex_map(1 + n, 0)),
    )


def _wedge_tuple_terms(m, tup):
    """The wedge projection of a strictly increasing tuple, as a list of
    tuples in the coordinates of the ambient simplex."""
    p = len(tup) - 1
    if tup[p] <= m or m <= tup[0]:
        return [tup]
    if p == 1:
        return [(tup[0], m), (m, tup[1])]
    if tup[1] > m:
        return [(m,) + tup[1:]]
    if tup[p - 1] < m:
        return [tup[:p] + (m,)]
    return []


def _wedge_name(m, tup, pushout):
    """Interpret an ambient tuple lying in the wedge inside the pushout."""
    if tup[-1] <= m:
        return pushout.left.apply(simplex_chain(tup))
    return pushout.right.apply(simplex_chain(_shift(tup, -m)))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def wedge_projection(m, n):
    """cDelta(m+1+n) -> cDelta(m) + cDelta(1+n): squash tuples through the
    middle vertex, killing those spanning it in more than two steps."""
    P = wedge_pushout(m, n)
    return simplex_morphism(m + 1 + n, P.complex, lambda tup: Chain.make(len(tup) - 1, [
        item for term in _wedge_tuple_terms(m, tup) for item in _wedge_name(m, term, P).items()
    ]))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def wedge_inclusion(m, n):
    """The wedge as a subcomplex of the ambient simplex."""
    P = wedge_pushout(m, n)

    def image(token):
        side, _, orig = token.partition(":")
        tup = token_simplex(orig)
        return simplex_chain(tup if side == "K" else _shift(tup, m))

    return AdcMorphism(P.complex, c_delta(m + 1 + n), tuple(map(image, P.complex.index)))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def wedge_projection_endo(m, n):
    """The wedge projection followed by the subcomplex inclusion."""
    return simplex_morphism(m + 1 + n, c_delta(m + 1 + n), lambda tup: Chain.make(
        len(tup) - 1, [(simplex_token(term), 1) for term in _wedge_tuple_terms(m, tup)]
    ))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def partial_wedge_projection(m, n, phi):
    """The endomorphism splitting each tuple at the fiber of phi.

    The prefix of a tuple lying over 0 (under phi extended by 0 on the
    initial block) is pushed through the wedge projection; the suffix over
    1 is concatenated back unchanged.
    """
    if phi.src != n or phi.dst != 1:
        raise ValueError("phi must be a monotone map Delta(n) -> Delta(1)")

    def image(tup):
        split = next((k for k, i in enumerate(tup) if i > m and phi(i - m - 1) == 1), len(tup))
        if split == 0:
            return simplex_chain(tup)
        suffix = tup[split:]
        return Chain.make(len(tup) - 1, [
            (simplex_token(term + suffix), 1) for term in _wedge_tuple_terms(m, tup[:split])
        ])

    return simplex_morphism(m + 1 + n, c_delta(m + 1 + n), image)


def interval_fold():
    """The interval folded through the glued double interval.

    Returns (pushout, morphism): the pushout joins two intervals end to
    start; the morphism sends the edge to the sum of the two edges.
    """
    I = c_delta(1)
    point = c_delta(0)
    P = pushout_complex(
        AdcMorphism(point, I, (Chain.unit(0, "0"),)),
        AdcMorphism(point, I, (Chain.unit(0, "1"),)),
    )
    images = {
        "0": P.right.apply(Chain.unit(0, "0")),
        "1": P.left.apply(Chain.unit(0, "1")),
        "0,1": P.left.apply(Chain.unit(1, "0,1")) + P.right.apply(Chain.unit(1, "0,1")),
    }
    return P, AdcMorphism(I, P.complex, images_in_basis_order(I, images))


# -- the slice-nerve comparison ------------------------------------------


def to_slice_pair(c_prime, a, n):
    """Turn an under-slice simplex of a nerve into (functor, transformation).

    ``c_prime`` maps cDelta(1+n) into the target complex, ``a`` maps
    cDelta(n) into the source complex; the transformation is the cylinder
    composite through the cone collapse.
    """
    return a, OplaxTransformation(c_prime.after(cylinder_to_cone(n)))


def from_slice_pair(a, T, n, c):
    """Rebuild the cone simplex from (functor, transformation), atom by atom.

    The initial vertex goes to c, tuples avoiding the cone point come from
    the far end of the cylinder, tuples through the cone point from the
    edge component.
    """

    def image(tup):
        if tup == (0,):
            return c
        if tup[0] == 0:
            return T.h.image_of(tensor_token("0,1", simplex_token(_shift(tup[1:], -1))))
        return T.h.image_of(tensor_token("1", simplex_token(_shift(tup, -1))))

    return simplex_morphism(1 + n, T.h.target, image)


# -- strong deformation retract data on nerve slices ----------------------


@dataclass(frozen=True)
class SliceRetract:
    """r, s, h exhibiting the vertex slice as a strong deformation retract.

    ``big`` is the slice at an m-simplex b, ``small`` the slice at its last
    vertex; ``homotopy(phi, pair)`` runs from the composite s.r (phi = 0)
    to the identity (phi = 1) while fixing the image of s.
    """

    m: int
    base: AdcMorphism
    big: object
    small: object
    retraction: SimplicialMap
    section: SimplicialMap

    def homotopy(self, phi, pair):
        y, x = pair
        return (y.after(partial_wedge_projection(self.m, phi.src, phi)), x)


def slice_retract_data(u, b, m):
    """Build the retract data for the relative under-slice of u at b."""
    big = map_under_slice(u, b, m)
    b_last = b.after(c_of_map(vertex_map(m, m)))
    small = map_under_slice(u, b_last, 0)

    def r_fn(n, pair):
        y, x = pair
        spine = MonotoneMap(1 + n, m + 1 + n, tuple(m + k for k in range(n + 2)))
        return (y.after(c_of_map(spine)), x)

    def s_fn(n, pair):
        y_prime, x = pair
        folded = wedge_pushout(m, n).induced(b, y_prime)
        return (folded.after(wedge_projection(m, n)), x)

    return SliceRetract(
        m,
        b,
        big,
        small,
        SimplicialMap(big, small, r_fn),
        SimplicialMap(small, big, s_fn),
    )


# -- the verification suite ------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    """One identity's verdict and the number of instances it compared."""

    name: str
    passed: bool
    instances: int
    counterexample: str = ""


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[IdentityResult, ...]

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def __str__(self):
        lines = []
        for r in self.results:
            mark = "pass" if r.passed else "FAIL"
            tail = f"  [{r.counterexample}]" if r.counterexample else ""
            lines.append(f"{mark}  {r.name}{tail}")
        return "\n".join(lines)


def _first_difference(f, g):
    if f.source != g.source or f.target != g.target:
        return "different endpoints"
    for (token, _), x, y in zip(f.source.graded(), f.images, g.images):
        if x != y:
            return f"at {token}: {x} vs {y}"
    return ""


def _identity(name, failures, instances):
    """The result of an identity, with its first failure as counterexample."""
    return IdentityResult(name, not failures, instances, failures[0] if failures else "")


def _morphism_identity(name, lhs, rhs):
    return _identity(name, [] if lhs == rhs else [_first_difference(lhs, rhs)], 1)


def _chain_map_result(name, f):
    return _identity(name, check_morphism(f).problems, 1)


def _cone_checks(n_max):
    out = []
    for n in range(n_max + 1):
        out.append(_chain_map_result(f"cone collapse is a chain map (n={n})", cylinder_to_cone(n)))
    instances = 0
    for n in range(n_max + 1):
        for n2 in range(n_max + 1):
            for psi in all_monotone_maps(n2, n):
                instances += 1
                lhs = cylinder_to_cone(n).after(_cylinder_map(psi))
                rhs = c_of_map(join_maps(identity_map(0), psi)).after(cylinder_to_cone(n2))
                if lhs != rhs:
                    out.append(
                        IdentityResult(
                            "cone collapse naturality", False, instances, f"n={n}, psi={psi.image}"
                        )
                    )
                    return out
    out.append(IdentityResult(f"cone collapse naturality (n, n' <= {n_max})", True, instances))
    return out


def _attachment_checks(m_max, n_max):
    out = []
    pairs = list(itertools.product(range(m_max + 1), range(n_max + 1)))
    for m, n in pairs:
        out.append(
            _chain_map_result(
                f"cylinder attachment is a chain map (m={m}, n={n})", cylinder_attachment(m, n)
            )
        )
    for k, (m, n) in enumerate(pairs, 1):
        initial = c_of_map(initial_inclusion(m, n))
        lhs = cylinder_attachment(m, n).after(initial)
        rhs = attachment_pushout(m, n).left.after(initial)
        if lhs != rhs:
            out.append(IdentityResult(
                f"cylinder attachment fixes the initial face (m={m}, n={n})",
                False, k, _first_difference(lhs, rhs),
            ))
            return out
    out.append(IdentityResult("cylinder attachment fixes the initial face", True, len(pairs)))

    failures = []
    instances = 0
    for m, n in pairs:
        P = attachment_pushout(m, n)
        for m2, n2 in pairs:
            for phi in all_monotone_maps(m2, m):
                for psi in all_monotone_maps(n2, n):
                    instances += 1
                    joined = c_of_map(join_maps(phi, psi))
                    glue = attachment_pushout(m2, n2).induced(
                        P.left.after(joined), P.right.after(_cylinder_map(psi))
                    )
                    lhs = cylinder_attachment(m, n).after(joined)
                    rhs = glue.after(cylinder_attachment(m2, n2))
                    if lhs != rhs:
                        failures.append(f"(m,n)=({m},{n}) phi={phi.image} psi={psi.image}")
    out.append(_identity("cylinder attachment naturality", failures, instances))
    return out


def _fold_square_checks(n_max):
    out = []
    I = c_delta(1)
    for n in range(n_max + 1):
        Kn = c_delta(n)
        PK = attachment_pushout(0, n)
        Q = pushout_complex(
            tensor_injection(I, Kn, "0"),
            tensor_injection(I, Kn, "1"),
        )
        T = tensor_complex(I, Kn)
        images = {}
        for token, base in zip(Kn.index, Kn.row):
            images[tensor_token("0", token)] = Q.right.apply(
                tensor_chains(Chain.unit(0, "0"), base)
            )
            images[tensor_token("1", token)] = Q.left.apply(
                tensor_chains(Chain.unit(0, "1"), base)
            )
            images[tensor_token("0,1", token)] = Q.left.apply(
                tensor_chains(Chain.unit(1, "0,1"), base)
            ) + Q.right.apply(tensor_chains(Chain.unit(1, "0,1"), base))
        fold_tensor = AdcMorphism(T, Q.complex, images_in_basis_order(T, images))
        bottom = Q.induced(PK.right, PK.left.after(cylinder_to_cone(n)))
        lhs = cylinder_attachment(0, n).after(cylinder_to_cone(n))
        rhs = bottom.after(fold_tensor)
        res = _morphism_identity(f"interval fold square (n={n})", lhs, rhs)
        out.append(res)
    return out


def _wedge_checks(m_max, n_max):
    out = []
    failures = []
    instances = 0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            P = wedge_pushout(m, n)
            f = wedge_projection(m, n)
            out.append(
                _chain_map_result(f"wedge projection is a chain map (m={m}, n={n})", f)
            )
            endo = wedge_projection_endo(m, n)
            out.append(
                _morphism_identity(
                    f"wedge projection factors through the wedge (m={m}, n={n})",
                    wedge_inclusion(m, n).after(f),
                    endo,
                )
            )
            out.append(
                _morphism_identity(
                    f"wedge projection is idempotent (m={m}, n={n})",
                    endo.after(endo),
                    endo,
                )
            )
            out.append(
                _morphism_identity(
                    f"wedge projection restricts to the identity (m={m}, n={n})",
                    f.after(wedge_inclusion(m, n)),
                    identity_morphism(P.complex),
                )
            )
            for n2 in range(n_max + 1):
                for psi in all_monotone_maps(n2, n):
                    instances += 1
                    psi1 = join_maps(identity_map(m), psi)
                    psi2 = join_maps(identity_map(0), psi)
                    glue = wedge_pushout(m, n2).induced(P.left, P.right.after(c_of_map(psi2)))
                    lhs = f.after(c_of_map(psi1))
                    rhs = glue.after(wedge_projection(m, n2))
                    if lhs != rhs:
                        failures.append(f"(m,n,n')=({m},{n},{n2}) psi={psi.image}")
    out.append(_identity("wedge projection naturality", failures, instances))
    return out


def _partial_wedge_checks(m_max, n_max):
    out = []
    chain_failures = []
    checks = 0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            endo = wedge_projection_endo(m, n)
            # per phi a chain-map and an absorption check, then two endpoints
            checks += 2 * len(all_monotone_maps(n, 1)) + 2
            for phi in all_monotone_maps(n, 1):
                f_phi = partial_wedge_projection(m, n, phi)
                rep = check_morphism(f_phi)
                if not rep.ok:
                    chain_failures.append(f"(m,n)=({m},{n}) phi={phi.image}")
                if not endo.after(f_phi) == endo:
                    chain_failures.append(
                        f"absorption fails (m,n)=({m},{n}) phi={phi.image}"
                    )
            ident = partial_wedge_projection(m, n, constant_map(n, 1, 1))
            if ident != identity_morphism(c_delta(m + 1 + n)):
                chain_failures.append(f"phi=1 endpoint (m,n)=({m},{n})")
            if partial_wedge_projection(m, n, constant_map(n, 1, 0)) != endo:
                chain_failures.append(f"phi=0 endpoint (m,n)=({m},{n})")
    out.append(
        _identity(
            "partial wedge projections: chain maps, endpoints, absorption", chain_failures, checks
        )
    )
    coherence_failures = []
    instances = 0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            for n2 in range(n_max + 1):
                for psi in all_monotone_maps(n2, n):
                    psi1 = join_maps(identity_map(m), psi)
                    for phi in all_monotone_maps(n, 1):
                        instances += 1
                        lhs = partial_wedge_projection(m, n, phi).after(c_of_map(psi1))
                        rhs = c_of_map(psi1).after(
                            partial_wedge_projection(m, n2, phi.compose(psi))
                        )
                        if lhs != rhs:
                            coherence_failures.append(
                                f"(m,n,n')=({m},{n},{n2}) phi={phi.image} psi={psi.image}"
                            )
    out.append(
        _identity(
            "partial wedge coherence with final-block operators", coherence_failures, instances
        )
    )
    return out


def _retract_checks_on_nerve(K, m, cap, label):
    """Section/retraction/homotopy identities on actual (unbounded, so complete) nerves."""
    out = []
    N = nerve(K, cap + m + 1)
    u = identity_simplicial_map(N)
    b = N.simplices(m)[0]
    data = slice_retract_data(u, b, m)
    r, s = data.retraction, data.section
    rs_failures = []
    sr_failures = []
    hom_failures = []
    square_failures = []
    levels = range(min(data.big.cap, cap) + 1)
    small_pairs = sum(len(data.small.simplices(n)) for n in levels)
    big_pairs = sum(len(data.big.simplices(n)) for n in levels)
    for n in levels:
        for pair in data.small.simplices(n):
            if r(n, s(n, pair)) != pair:
                rs_failures.append(f"{label}: r.s misses at level {n}")
            lhs = data.homotopy(constant_map(n, 1, 0), s(n, pair))
            if lhs != s(n, r(n, s(n, pair))):
                square_failures.append(f"{label}: strong square at level {n}")
        for pair in data.big.simplices(n):
            if data.homotopy(constant_map(n, 1, 1), pair) != pair:
                hom_failures.append(f"{label}: h(1) != id at level {n}")
            if data.homotopy(constant_map(n, 1, 0), pair) != s(n, r(n, pair)):
                sr_failures.append(f"{label}: h(0) != s.r at level {n}")
    out.append(_identity(f"retraction has section on {label}", rs_failures, small_pairs))
    out.append(_identity(
        f"homotopy endpoints on {label}", hom_failures + sr_failures, 2 * big_pairs
    ))
    out.append(_identity(f"strong retract square on {label}", square_failures, small_pairs))
    for name, f, space in (("section", s, data.small), ("retraction", r, data.big)):
        through = min(space.cap, cap)
        failures = simplicial_map_failures(f, through)
        instances = sum(
            len(all_monotone_maps(k, n)) * len(space.simplices(n))
            for n in range(through + 1)
            for k in range(through + 1)
        )
        out.append(IdentityResult(f"{name} is simplicial on {label}", not failures, instances))
    h_failures = []
    instances = 0
    for n in range(min(data.big.cap, cap)):
        for psi in all_monotone_maps(n, n + 1):
            for phi in all_monotone_maps(n + 1, 1):
                for pair in data.big.simplices(n + 1):
                    instances += 1
                    lhs = data.big.act(psi, data.homotopy(phi, pair))
                    rhs = data.homotopy(phi.compose(psi), data.big.act(psi, pair))
                    if lhs != rhs:
                        h_failures.append(f"{label}: homotopy not simplicial")
    out.append(_identity(f"homotopy is simplicial on {label}", h_failures, instances))
    return out


def verify_suite(m_max, n_max):
    """Exhaustively check every comparison-map identity within the bounds.

    Identities are grouped into families; the report lists them in order.
    """
    if m_max < 0 or n_max < 0:
        raise ValueError(f"bounds must be non-negative, got m_max={m_max}, n_max={n_max}")
    results = (
        _cone_checks(n_max)
        + _attachment_checks(m_max, n_max)
        + _fold_square_checks(n_max)
        + _wedge_checks(m_max, n_max)
        + _partial_wedge_checks(m_max, n_max)
        + _retract_checks_on_nerve(c_delta(1), 0, 2, "the interval nerve")
    )
    if m_max >= 1:
        results += _retract_checks_on_nerve(c_delta(2), 1, 2, "the triangle nerve")
    return SuiteReport(tuple(results))
