"""Deterministic JSON encodings for complexes, morphisms and cells.

Formats:

* complex: ``{"basis": [[tok, ...], ...], "diff": {tok: {tok: int}},
  "aug": {tok: int}}``
* morphism: ``{"source": <complex>, "target": <complex>,
  "images": {tok: {tok: int}}}``
* cell: ``{"dim": i, "x0": [{tok: int}, ...], "x1": [...]}``

Dictionaries are dumped with sorted keys, basis lists in declaration
order, so the same value always serializes to the same bytes.  Complexes
and morphisms are read back; cells are only written.  Reading rejects a
file of the wrong shape, a token outside its complex, and coefficients that
are not JSON integers (instead of truncating them).
"""

from __future__ import annotations

import json

from .chains import AdcMorphism, Chain, DirComplex, morphism_shape_problems


def chain_to_json(chain):
    return {t: c for t, c in chain.items()}


def _json_object(data, what):
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    return data


def _integer_entries(data):
    entries = dict(_json_object(data, "a chain or augmentation"))
    for token, value in entries.items():
        if type(value) is not int:  # also rejects true/false
            raise ValueError(f"value {value!r} at {token!r} is not an integer")
    return entries


def chain_from_json(degree, data):
    return Chain.make(degree, _integer_entries(data))


def complex_to_json(K):
    return {
        "basis": [list(K.tokens(p)) for p in K.degrees()],
        "diff": {
            t: chain_to_json(K.diff_of(t))
            for p in K.degrees()
            if p > 0
            for t in K.tokens(p)
            if not K.diff_of(t).is_zero
        },
        "aug": {t: K.aug_of(t) for t in K.tokens(0) if K.aug_of(t)},
    }


def complex_from_json(data):
    basis = _json_object(data, "a complex").get("basis")
    if not isinstance(basis, list) or not all(
        isinstance(level, list) and all(isinstance(t, str) for t in level)
        for level in basis
    ):
        raise ValueError("a complex needs a 'basis' list of token-string lists")
    degree_of = {t: p for p, level in enumerate(basis) for t in level}
    diff = {}
    for t, entries in _json_object(data.get("diff", {}), "'diff'").items():
        if t not in degree_of:
            raise ValueError(f"differential on unknown token {t!r}")
        diff[t] = chain_from_json(degree_of[t] - 1, entries)
    return DirComplex(basis, diff, _integer_entries(data.get("aug", {})))


def morphism_to_json(f):
    return {
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "images": {
            t: chain_to_json(f.image_of(t))
            for p in f.source.degrees()
            for t in f.source.tokens(p)
        },
    }


def morphism_from_json(data):
    _json_object(data, "a morphism")
    source = complex_from_json(data.get("source"))
    target = complex_from_json(data.get("target"))
    images = [None] * len(source.index)  # a token without an image reads None
    for t, entries in _json_object(data.get("images"), "'images'").items():
        try:
            p = source.degree_of(t)
        except KeyError:
            raise ValueError(f"image for unknown token {t!r}") from None
        images[source.index[t]] = chain_from_json(p, entries)
    f = AdcMorphism(source, target, tuple(images))
    problems = morphism_shape_problems(f)
    if problems:
        raise ValueError(problems[0])
    return f


def cell_to_json(cell):
    return {
        "dim": cell.dim,
        "x0": [chain_to_json(c) for c in cell.x0],
        "x1": [chain_to_json(c) for c in cell.x1],
    }


def dumps(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_path(path):
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
