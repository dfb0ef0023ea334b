import pytest
from hypothesis import given, settings, strategies as st

from steiner_lab import (
    Chain,
    MonotoneMap,
    all_monotone_maps,
    c_delta,
    c_of_map,
    check_morphism,
    face_map,
    final_inclusion,
    identity_map,
    identity_morphism,
    initial_inclusion,
    join_maps,
    vertex_map,
)
from steiner_lab.simplex import degeneracy_map


def test_monotone_map_validation():
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (1, 0))
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (0, 2))
    with pytest.raises(ValueError):
        MonotoneMap(1, 1, (0,))


def test_join_of_vertex_and_identity():
    phi = vertex_map(1, 1)
    assert join_maps(phi, identity_map(1)).image == (1, 2, 3)


def test_join_of_identities_is_identity():
    assert join_maps(identity_map(2), identity_map(1)) == identity_map(4)


def test_block_inclusions():
    assert initial_inclusion(2, 1).image == (0, 1, 2)
    assert final_inclusion(1, 1).image == (2, 3)


def test_join_is_associative_in_blocks():
    maps = [vertex_map(2, 1), identity_map(1), degeneracy_map(1, 0)]
    a, b, c = maps
    assert join_maps(join_maps(a, b), c) == join_maps(a, join_maps(b, c))


monotone = st.integers(0, 3).flatmap(
    lambda n: st.integers(0, 3).flatmap(
        lambda m: st.sampled_from(all_monotone_maps(m, n))
    )
)


@given(monotone, st.data())
@settings(max_examples=60, deadline=None)
def test_chains_functoriality(phi, data):
    psi = data.draw(st.sampled_from(all_monotone_maps(data.draw(st.integers(0, 3)), phi.src)))
    assert c_of_map(phi.compose(psi)) == c_of_map(phi).after(c_of_map(psi))


@given(monotone)
@settings(max_examples=60, deadline=None)
def test_chains_of_map_is_a_morphism(phi):
    assert check_morphism(c_of_map(phi)).ok


def test_chains_of_identity():
    assert c_of_map(identity_map(2)) == identity_morphism(c_delta(2))


def test_degeneracy_collapses_repeated_tuples():
    f = c_of_map(MonotoneMap(2, 1, (0, 0, 1)))
    assert f.image_of("0,1").is_zero
    assert f.image_of("1,2") == c_delta(1).unit_chain("0,1")
    assert f.image_of("0,1,2").is_zero


def test_face_relabels():
    f = c_of_map(face_map(2, 0))
    assert f.image_of("0,1") == c_delta(2).unit_chain("1,2")


@pytest.mark.parametrize(
    "n,sizes",
    [(0, [1]), (2, [3, 3, 1]), (4, [5, 10, 10, 5, 1])],
)
def test_simplex_chain_sizes(n, sizes):
    K = c_delta(n)
    assert [len(K.tokens(p)) for p in K.degrees()] == sizes


def test_triangle_differential():
    K = c_delta(2)
    d = K.diff_of("0,1,2")
    assert d.coeff("1,2") == 1 and d.coeff("0,2") == -1 and d.coeff("0,1") == 1
    assert all(K.aug_of(t) == 1 for t in K.tokens(0))


def test_map_images_share_the_simplex_tokens():
    canonical = {t: t for p in c_delta(3).degrees() for t in c_delta(3).tokens(p)}
    for phi in all_monotone_maps(2, 3):
        f = c_of_map(phi)
        for t in f.source.tokens(1) + f.source.tokens(2):
            for token, _ in f.image_of(t).items():
                assert token is canonical[token]
    # every map into Delta(3) sends a simplex to one shared basis-chain object
    shared = {}
    for m in range(4):
        for phi in all_monotone_maps(m, 3):
            f = c_of_map(phi)
            for p in range(m + 1):
                for t in c_delta(m).tokens(p):
                    image = f.image_of(t)
                    if image.is_zero:
                        assert image is Chain.zero(p)
                    else:
                        assert shared.setdefault(image, image) is image
    assert len(shared) == 15


def test_direct_construction_still_validates():
    # maps built by the package skip the checks; a direct construction keeps them
    for image in ((1, 0), (0, 3), (0, 1, 2), (-1, 0)):
        with pytest.raises(ValueError):
            MonotoneMap(1, 2, image)
    for bad in (lambda: face_map(2, 3), lambda: degeneracy_map(1, 2), lambda: face_map(1, -1)):
        with pytest.raises(ValueError, match="index out of range"):
            bad()


def validated(phi):
    return MonotoneMap(phi.src, phi.dst, tuple(phi.image))


def test_trusted_maps_equal_validated_ones():
    maps = [phi for m in range(5) for n in range(5) for phi in all_monotone_maps(m, n)]
    # the hash is computed once per map, by either constructor, from the same values
    position = {validated(phi): i for i, phi in enumerate(maps)}
    for i, phi in enumerate(maps):
        assert validated(phi) == phi and hash(validated(phi)) == hash(phi)
        assert position[phi] == i
        for psi in all_monotone_maps(min(phi.src, 2), phi.src):
            assert validated(phi.compose(psi)) == phi.compose(psi)
    for n in range(1, 5):
        for i in range(n + 1):
            assert validated(face_map(n, i)) == face_map(n, i)
            assert validated(degeneracy_map(n, i)) == degeneracy_map(n, i)
    for phi in all_monotone_maps(1, 2):
        for psi in all_monotone_maps(2, 1):
            assert validated(join_maps(phi, psi)) == join_maps(phi, psi)
    # a map is its target and values: the same values into a larger simplex differ
    assert set(map(validated, maps)) == set(maps)
    for phi in maps:
        wider = MonotoneMap(phi.src, phi.dst + 1, phi.image)
        assert wider != phi and phi != wider


def test_a_monotone_map_is_an_immutable_value():
    phi = MonotoneMap(1, 2, (0, 2))
    for name, value in (("image", (0, 1)), ("src", 0), ("label", "d1")):
        with pytest.raises(AttributeError):
            setattr(phi, name, value)
    assert phi.image == (0, 2) and (phi.src, phi.dst) == (1, 2)
    assert phi != (1, 2, (0, 2)) and (1, 2, (0, 2)) != phi
    assert repr(phi) == "MonotoneMap(src=1, dst=2, image=(0, 2))"
    assert repr(face_map(2, 1)) == repr(phi)
