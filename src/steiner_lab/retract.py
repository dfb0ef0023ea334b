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

In the suite each identity is a stream of compared pairs (lhs, rhs): its
instance count is the number of pairs compared, and a failing family still
sweeps every instance, reporting the first unequal pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .chains import AdcMorphism, Chain, check_morphism, identity_morphism, images_in_basis_order
from .nerves import (
    SimplicialMap,
    _commutations,
    identity_simplicial_map,
    map_under_slice,
    nerve,
)
from .simplex import (
    _operators,
    all_monotone_maps,
    c_delta,
    c_of_map,
    constant_map,
    degeneracy_map,
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
from .slices import OplaxTransformation, cylinder_fold
from .tensor import (
    pushout_complex,
    tensor_chains,
    tensor_complex,
    tensor_injection,
    tensor_morphism,
    tensor_token,
)


# Entries kept per constructor.  The cone and attachment families each ask
# for the cylinder map of every psi once, so at (3, 3) all 121 are built once.
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
    """The wedge as a subcomplex of the ambient simplex: the co-pairing of
    the inclusions of Delta(m) onto 0..m and of Delta(1+n) onto m..m+1+n."""
    return wedge_pushout(m, n).induced(
        c_of_map(initial_inclusion(m, n)), c_of_map(final_inclusion(m - 1, n + 1))
    )


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
        return (y.after(c_of_map(final_inclusion(m - 1, n + 1))), x)

    def s_fn(n, pair):
        y_prime, x = pair
        folded = wedge_pushout(m, n).induced(b, y_prime)
        return (folded.after(wedge_projection(m, n)), x)

    return SliceRetract(
        m,
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


def _family(name, cases, label):
    """Compare and count every (args, lhs, rhs) that ``cases`` yields; the
    first unequal pair, if any, is reported as ``label(*args)``."""
    instances, first = 0, None
    for args, lhs, rhs in cases:
        instances += 1
        if lhs != rhs and first is None:
            first = label(*args)
        del args, lhs, rhs  # so the next pair is built with this one freed
    return IdentityResult(name, first is None, instances, first or "")


def _equal_maps(name, lhs, rhs):
    return _family(name, [((lhs, rhs), lhs, rhs)], _first_difference)


def _chain_map(name, f):
    return _family(
        name, [((f,), check_morphism(f).ok, True)], lambda f: check_morphism(f).problems[0]
    )


def _cone_checks(n_max):
    out = [
        _chain_map(f"cone collapse is a chain map (n={n})", cylinder_to_cone(n))
        for n in range(n_max + 1)
    ]

    def naturality():
        for n, n2, psi in _operators(n_max):
            lhs = cylinder_to_cone(n).after(_cylinder_map(psi))
            rhs = c_of_map(join_maps(identity_map(0), psi)).after(cylinder_to_cone(n2))
            yield (n, psi.image), lhs, rhs

    out.append(_family(
        f"cone collapse naturality (n, n' <= {n_max})", naturality(), "n={}, psi={}".format
    ))
    return out


def _attachment_checks(m_max, n_max):
    pairs = list(itertools.product(range(m_max + 1), range(n_max + 1)))
    out = [
        _chain_map(f"cylinder attachment is a chain map (m={m}, n={n})", cylinder_attachment(m, n))
        for m, n in pairs
    ]

    def fixes_initial_face():
        for m, n in pairs:
            initial = c_of_map(initial_inclusion(m, n))
            lhs = cylinder_attachment(m, n).after(initial)
            yield (m, n), lhs, attachment_pushout(m, n).left.after(initial)

    def naturality():  # psi outermost: each cylinder map asked for once per psi
        for n, n2, psi in _operators(n_max):
            cylinder = _cylinder_map(psi)
            for m, phis in itertools.groupby(_operators(m_max), lambda op: op[0]):
                P = attachment_pushout(m, n)
                right = P.right.after(cylinder)
                for _, m2, phi in phis:
                    joined = c_of_map(join_maps(phi, psi))
                    glue = attachment_pushout(m2, n2).induced(P.left.after(joined), right)
                    lhs = cylinder_attachment(m, n).after(joined)
                    yield (m, n, phi.image, psi.image), lhs, glue.after(cylinder_attachment(m2, n2))

    out.append(_family(
        "cylinder attachment fixes the initial face", fixes_initial_face(), "(m,n)=({},{})".format
    ))
    out.append(_family(
        "cylinder attachment naturality", naturality(), "(m,n)=({},{}) phi={} psi={}".format
    ))
    return out


def _fold_square_checks(n_max):
    out = []
    for n in range(n_max + 1):
        PK = attachment_pushout(0, n)
        Q, fold = cylinder_fold(c_delta(n))
        bottom = Q.induced(PK.right, PK.left.after(cylinder_to_cone(n)))
        lhs = cylinder_attachment(0, n).after(cylinder_to_cone(n))
        out.append(_equal_maps(f"interval fold square (n={n})", lhs, bottom.after(fold)))
    return out


def _wedge_checks(m_max, n_max):
    out = []
    for m, n in itertools.product(range(m_max + 1), range(n_max + 1)):
        P, f, endo = wedge_pushout(m, n), wedge_projection(m, n), wedge_projection_endo(m, n)
        bounds = f"(m={m}, n={n})"
        out += [
            _chain_map(f"wedge projection is a chain map {bounds}", f),
            _equal_maps(f"wedge projection factors through the wedge {bounds}",
                        wedge_inclusion(m, n).after(f), endo),
            _equal_maps(f"wedge projection is idempotent {bounds}", endo.after(endo), endo),
            _equal_maps(f"wedge projection restricts to the identity {bounds}",
                        f.after(wedge_inclusion(m, n)), identity_morphism(P.complex)),
        ]

    def naturality():
        for m in range(m_max + 1):
            for n, n2, psi in _operators(n_max):
                P = wedge_pushout(m, n)
                glue = wedge_pushout(m, n2).induced(
                    P.left, P.right.after(c_of_map(join_maps(identity_map(0), psi)))
                )
                lhs = wedge_projection(m, n).after(c_of_map(join_maps(identity_map(m), psi)))
                yield (m, n, n2, psi.image), lhs, glue.after(wedge_projection(m, n2))

    out.append(_family(
        "wedge projection naturality", naturality(), "(m,n,n')=({},{},{}) psi={}".format
    ))
    return out


def _partial_wedge_checks(m_max, n_max):
    def maps_endpoints_absorption():
        for m, n in itertools.product(range(m_max + 1), range(n_max + 1)):
            endo = wedge_projection_endo(m, n)
            for phi in all_monotone_maps(n, 1):
                f_phi = partial_wedge_projection(m, n, phi)
                yield ("chain map", m, n, phi.image), check_morphism(f_phi).ok, True
                yield ("absorption", m, n, phi.image), endo.after(f_phi), endo
            one, zero = constant_map(n, 1, 1), constant_map(n, 1, 0)
            ident = identity_morphism(c_delta(m + 1 + n))
            yield ("phi=1 endpoint", m, n, one.image), partial_wedge_projection(m, n, one), ident
            yield ("phi=0 endpoint", m, n, zero.image), partial_wedge_projection(m, n, zero), endo

    def coherence():
        for m in range(m_max + 1):
            for n, n2, psi in _operators(n_max):
                psi1 = c_of_map(join_maps(identity_map(m), psi))
                for phi in all_monotone_maps(n, 1):
                    lhs = partial_wedge_projection(m, n, phi).after(psi1)
                    rhs = psi1.after(partial_wedge_projection(m, n2, phi.compose(psi)))
                    yield (m, n, n2, phi.image, psi.image), lhs, rhs

    return [
        _family("partial wedge projections: chain maps, endpoints, absorption",
                maps_endpoints_absorption(), "{} fails at (m,n)=({},{}) phi={}".format),
        _family("partial wedge coherence with final-block operators",
                coherence(), "(m,n,n')=({},{},{}) phi={} psi={}".format),
    ]


def _retract_checks_on_nerve(K, m, cap, label):
    """Section/retraction/homotopy identities on actual (unbounded, so complete) nerves."""
    N = nerve(K, cap + m + 1)
    data = slice_retract_data(identity_simplicial_map(N), N.simplices(m)[0], m)
    r, s, h, big = data.retraction, data.section, data.homotopy, data.big
    top = min(big.cap, cap)

    def simplices(space):
        return ((n, x) for n in range(top + 1) for x in space.simplices(n))

    def endpoints():
        for n, pair in simplices(big):
            yield ("h(1) != id", n), h(constant_map(n, 1, 1), pair), pair
            yield ("h(0) != s.r", n), h(constant_map(n, 1, 0), pair), s(n, r(n, pair))

    def homotopy_commutations():
        """Every map Delta(n) -> Delta(n+1), then every degeneracy
        Delta(n+1) -> Delta(n), for n < top: with the faces, these generate
        every operator within the top level."""
        psis = [psi for n in range(top) for psi in all_monotone_maps(n, n + 1)]
        psis += [degeneracy_map(n, i) for n in range(top) for i in range(n + 1)]
        for psi in psis:
            for pair in big.simplices(psi.dst):
                moved = big.act(psi, pair)
                for phi in all_monotone_maps(psi.dst, 1):
                    lhs = big.act(psi, h(phi, pair))
                    yield (psi.dst, psi.image), lhs, h(phi.compose(psi), moved)

    families = [
        ("retraction has section", (
            ((n,), r(n, s(n, pair)), pair) for n, pair in simplices(data.small)
        ), "r.s misses at level {}"),
        ("homotopy endpoints", endpoints(), "{} at level {}"),
        ("strong retract square", (
            ((n,), h(constant_map(n, 1, 0), s(n, pair)), s(n, r(n, s(n, pair))))
            for n, pair in simplices(data.small)
        ), "strong square at level {}"),
        ("section is simplicial", _commutations(s, min(s.src.cap, cap)),
         "section does not commute with phi={0.image}"),
        ("retraction is simplicial", _commutations(r, min(r.src.cap, cap)),
         "retraction does not commute with phi={0.image}"),
        ("homotopy is simplicial", homotopy_commutations(),
         "homotopy not simplicial at level {}, psi={}"),
    ]
    return [
        _family(f"{name} on {label}", cases, f"{label}: {text}".format)
        for name, cases, text in families
    ]


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
