"""Positional morphisms against dict-built oracles, and the plan path pinned.

Seeded random maps (not chain maps) between small complexes come in two
kinds: plain ones, whose images are all basis chains or zero, and ones with
images of several terms or another coefficient.  Composites, applications,
co-pairings, equality, hashing and JSON are checked against oracles that
read images token by token, and hand-built images hit each branch of the
summing rule ``chains._sum``.  Counting ``_sum`` pins that plain plans
compose by gathers alone and that each image of several terms is summed
once.
"""

import itertools
import json
import random

import pytest

import steiner_lab.chains as chains
from oracles import apply_by_make, composite_by_make, oracle_c
from steiner_lab import AdcMorphism, Chain, DirComplex, c_delta, identity_morphism, tensor_complex
from steiner_lab.chains import images_in_basis_order
from steiner_lab.retract import _cylinder_map, attachment_pushout, cylinder_attachment
from steiner_lab.serialize import dumps, morphism_from_json, morphism_to_json
from steiner_lab.simplex import all_monotone_maps, c_of_map, join_maps
from steiner_lab.tensor import tensor_injection

FREE = DirComplex([["a", "b", "c"], ["e", "f"]], {}, {})
COMPLEXES = (c_delta(2), tensor_complex(c_delta(1), c_delta(1)), FREE)


def tokens(K):
    return [t for p in K.degrees() for t in K.tokens(p)]


def random_image(rng, L, p, several):
    if not L.tokens(p) or (not several and rng.random() < 0.3):
        return Chain.zero(p)
    if not several:
        return Chain.unit(p, rng.choice(L.tokens(p)))
    return Chain.make(p, [
        (rng.choice(L.tokens(p)), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 3))
    ])


def random_map(rng, K, L, several):
    """A map K -> L built positionally: images zero or basis chains, or, with
    ``several``, also images of several terms, the first one always."""
    images = [random_image(rng, L, p, several and rng.random() < 0.5) for _, p in K.graded()]
    if several:  # every complex here starts with two vertices
        images[0] = Chain.make(0, [(L.tokens(0)[0], 1), (L.tokens(0)[1], -1)])
    return AdcMorphism(K, L, tuple(images))


SHAPES = {"plan.plan": (False, False), "plan.multi": (False, True),
          "multi.plan": (True, False), "multi.multi": (True, True)}


@pytest.mark.parametrize("left,right", SHAPES.values(), ids=SHAPES.keys())
def test_after_and_apply_match_the_oracles(left, right):
    rng = random.Random(f"{left}.{right}")
    checked = 0
    for K, L, M in itertools.product(COMPLEXES, repeat=3):
        for _ in range(4):
            g, f = random_map(rng, K, L, right), random_map(rng, L, M, left)
            assert (bool(f.plan.multi), bool(g.plan.multi)) == (left, right)
            composite = f.after(g)
            assert (composite.source, composite.target) == (K, M)
            assert composite.images == composite_by_make(f, g)
            if not (left or right):
                # the composite's plan is the composite of the two int tuples
                row = f.plan.positions + tuple(range(len(M.index), len(M.index) + 32))
                assert composite.plan.positions == tuple(row[i] for i in g.plan.positions)
            for p in L.degrees():
                x = random_image(rng, L, p, True)
                assert f.apply(x) == apply_by_make(f, x)
            checked += 1
    assert checked == 108


@pytest.mark.parametrize("several", [False, True])
def test_induced_matches_a_dict_built_co_pairing(several):
    rng = random.Random(int(several))
    X = c_delta(4)
    for m, n in [(0, 0), (1, 1), (2, 1), (1, 3)]:
        P = attachment_pushout(m, n)
        w = random_map(rng, P.complex, X, several)
        u, v = w.after(P.left), w.after(P.right)
        images = {}
        for leg, h in ((P.left, u), (P.right, v)):
            for t, image in zip(tokens(leg.source), leg.images):
                images[image.coeffs[0][0]] = h.image_of(t)
        assert P.induced(u, v) == AdcMorphism(P.complex, X, images_in_basis_order(P.complex, images)) == w
        leg = tensor_injection(c_delta(1), c_delta(n), "0")
        glued = P.right.source.index[leg.images[0].coeffs[0][0]]
        moved = list(v.images)
        moved[glued] = moved[glued] + Chain.unit(0, "0")
        with pytest.raises(ValueError, match="disagree on the base"):
            P.induced(u, AdcMorphism(v.source, X, tuple(moved)))


def test_dict_and_positional_builds_agree():
    rng = random.Random(3)
    for K, L in itertools.product(COMPLEXES, repeat=2):
        for several in (False, True):
            f = random_map(rng, K, L, several)
            pairs = list(zip(tokens(K), f.images))
            rng.shuffle(pairs)
            g = AdcMorphism(K, L, images_in_basis_order(K, dict(pairs)))
            assert g.images == f.images
            assert g == f and hash(g) == hash(f)
            assert all(g.image_of(t) == f.image_of(t) == x for t, x in zip(tokens(K), f.images))
            text = dumps(morphism_to_json(f))
            back = morphism_from_json(json.loads(text))
            assert back == f and hash(back) == hash(f)
            assert dumps(morphism_to_json(back)) == text


def test_a_dict_naming_an_unknown_token_is_refused():
    with pytest.raises(ValueError, match="images for unknown tokens: \\['zz'\\]"):
        images_in_basis_order(FREE, {"a": Chain.unit(0, "a"), "zz": Chain.unit(0, "a")})


def counter(monkeypatch, name):
    """The degrees of the calls of ``chains.<name>`` made from here on."""
    calls = []
    real = getattr(chains, name)

    def counting(degree, *args):
        calls.append(degree)
        return real(degree, *args)

    monkeypatch.setattr(chains, name, counting)
    return calls


@pytest.fixture
def sum_calls(monkeypatch):
    return counter(monkeypatch, "_sum")


@pytest.fixture
def combine_calls(monkeypatch):
    return counter(monkeypatch, "_combine")


# f: SUMMANDS -> M, and the images under g of the tokens k0, k1, ... of
# BRANCHES, one per branch of ``_sum``: (case, terms, summed by _combine).
M = DirComplex([["a", "b", "c"]], {}, {})
SUMMANDS = DirComplex([["o", "p", "q", "r", "s", "t", "u"]], {}, {})
F_IMAGES = {"o": [], "p": [], "q": [("a", 1)], "r": [("c", 1)], "s": [("a", -1)],
            "t": [("a", 1), ("b", 2)], "u": [("b", 1)]}
BRANCHES = [
    ("zero + zero", [("o", 1), ("p", 1)], False),
    ("zero + basis", [("p", 1), ("q", 1)], False),
    ("two basis chains in token order", [("q", 1), ("r", 1)], False),
    ("two basis chains against token order", [("r", 1), ("u", 1)], False),
    ("equal tokens that cancel", [("q", 1), ("s", 1)], True),
    ("a coefficient other than 1", [("q", 2), ("r", 1)], True),
    ("a lone summand of coefficient 2", [("o", 1), ("q", 2)], True),
    ("a summand of several terms", [("q", 1), ("t", 1)], True),
    ("three terms", [("q", 1), ("r", 1), ("u", 1)], True),
]


def test_every_branch_of_the_summing_rule_matches_the_oracles(combine_calls):
    f = AdcMorphism(SUMMANDS, M, tuple(Chain.make(0, F_IMAGES[t]) for t in tokens(SUMMANDS)))
    K = DirComplex([[f"k{i}" for i in range(len(BRANCHES))]], {}, {})
    g = AdcMorphism(K, SUMMANDS, tuple(Chain.make(0, terms) for _, terms, _ in BRANCHES))
    assert len(g.plan.multi) == len(BRANCHES)
    combine_calls.clear()
    composite = f.after(g)
    assert len(combine_calls) == sum(combined for *_, combined in BRANCHES) == 5
    assert composite.images == composite_by_make(f, g)
    for (case, _, combined), x, image in zip(BRANCHES, g.images, composite.images):
        combine_calls.clear()
        applied = f.apply(x)
        assert len(combine_calls) == combined, case
        assert applied == image == apply_by_make(f, x), case
    assert [str(x) for x in composite.images] == [
        "0", "(a)", "(a)+(c)", "(b)+(c)", "0", "2(a)+(c)", "2(a)", "2(a)+2(b)", "(a)+(b)+(c)"
    ]
    # the lone survivor of zero + basis is f's image of q itself
    assert composite.images[1] is f.image_of("q") is f.apply(g.images[1])


def test_plain_plans_compose_by_gathers_alone(sum_calls):
    """Composing with c(phi), id (x) c(psi) or a pushout injection, and
    co-pairing such composites, sums no image."""
    cases = []
    pairs = list(itertools.product(range(3), range(3)))
    for (m, n), (m2, n2) in itertools.product(pairs, repeat=2):
        for phi, psi in itertools.product(all_monotone_maps(m2, m), all_monotone_maps(n2, n)):
            maps = (cylinder_attachment(m, n), attachment_pushout(m, n), attachment_pushout(m2, n2))
            cases.append(maps + (c_of_map(join_maps(phi, psi)), _cylinder_map(psi)))
    sum_calls.clear()
    for attachment, P, Q, joined, cylinder in cases:
        glue = Q.induced(P.left.after(joined), P.right.after(cylinder))
        attachment.after(joined)
        glue.after(Q.left)
        glue.after(Q.right)
        identity_morphism(P.complex).after(glue)
    assert len(cases) == 961 and sum_calls == []


def test_images_of_several_terms_are_summed_once_each(sum_calls):
    f = cylinder_attachment(2, 3)
    g = identity_morphism(attachment_pushout(2, 3).complex)
    assert len(f.plan.multi) == 45
    sum_calls.clear()
    assert g.after(f) == f
    assert len(sum_calls) == 45


def _deleted_code_plan(phi, cap):
    """The positions the nerve's code gather read before plans, rebuilt by
    token lookups from an independently built c(phi)."""
    position = {t: i for i, t in enumerate(itertools.chain(*c_delta(phi.dst).basis))}
    end = len(position)
    c = oracle_c(phi)
    return [
        position[image.coeffs[0][0]] if image.coeffs else end + image.degree
        for image in map(c.image_of, itertools.chain(*c.source.basis))
    ] + list(range(end, end + cap + 1))


def test_code_gather_matches_the_deleted_code_plan():
    cap = 4
    zeros = tuple(range(cap + 1))
    checked = 0
    for k, n in itertools.product(range(cap + 1), repeat=2):
        # a code: distinct ids of the images, then the zero ids
        code = tuple(range(cap + 1, cap + 1 + len(c_delta(n).index))) + zeros
        for phi in all_monotone_maps(k, n):
            old = tuple(code[i] for i in _deleted_code_plan(phi, cap))
            assert c_of_map(phi).plan.gather(code) + zeros == old
            checked += 1
    assert checked == 456
