"""Seeded inputs and job lists of the three benchmark workloads.

A job takes the generated inputs, calls the library through its public
functions (or the CLI entry ``cli.run``) and returns a JSON-shaped answer
that is invariant under relabelling, so one reference per job serves every
seed.  Library functions are looked up at call time (``lab.nerve``, ...),
so a traced run sees every call.

Sizes are scaled from the ROADMAP's figures so that one worker runs the
job list twice in a few seconds; each layer keeps its share of the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import string

WORKLOADS = ("theorem-a", "nerve", "census")

_ALNUM = string.ascii_lowercase + string.digits


def job_rng(seed, purpose):
    return random.Random(f"{seed}:{purpose}")


def relabel(data, rng):
    """An isomorphic copy of a complex in JSON form: fresh random
    alphanumeric tokens and a shuffled basis order in every degree."""
    names = {}
    used = set()
    for level in data["basis"]:
        for token in level:
            name = ""
            while not name or name in used:
                name = rng.choice(string.ascii_lowercase) + "".join(
                    rng.choice(_ALNUM) for _ in range(6)
                )
            used.add(name)
            names[token] = name
    basis = []
    for level in data["basis"]:
        renamed = [names[t] for t in level]
        rng.shuffle(renamed)
        basis.append(renamed)
    return {
        "basis": basis,
        "diff": {
            names[t]: {names[s]: c for s, c in entries.items()}
            for t, entries in data.get("diff", {}).items()
        },
        "aug": {names[t]: v for t, v in data.get("aug", {}).items()},
    }


TWO_LOOP = {
    # the uncertified complex of tests/test_cells.py: two parallel edges
    # a -> b -> a, so positive chains can loop without bound
    "basis": [["a", "b"], ["g1", "g2"]],
    "diff": {"g1": {"b": 1, "a": -1}, "g2": {"a": 1, "b": -1}},
    "aug": {"a": 1, "b": 1},
}


def make_inputs(lab, workload, seed):
    """Inputs of one workload as JSON texts, built from the seed only.

    The library's caches are cleared afterwards, so the first pass starts
    cold.  theorem-a takes no inputs: the seed changes nothing there.
    """
    rng = job_rng(seed, "inputs")
    inputs = {}
    if workload == "nerve":
        prism = lab.tensor_complex(lab.c_delta(2), lab.c_delta(1))
        inputs["prism"] = json.dumps(relabel(lab.serialize.complex_to_json(prism), rng))
    elif workload == "census":
        prism = lab.tensor_complex(lab.c_delta(3), lab.c_delta(2))
        inputs["prism"] = json.dumps(relabel(lab.serialize.complex_to_json(prism), rng))
        inputs["two_loop"] = json.dumps(relabel(TWO_LOOP, rng))
    for cached in (lab.c_delta, lab.c_of_map, lab.tensor_complex):
        cached.cache_clear()
    return inputs


def job_order(workload, seed):
    names = list(JOBS[workload])
    job_rng(seed, "order").shuffle(names)
    return names


def _counts(space, through=None):
    return [list(row) for row in space.counts(through)]


# -- theorem-a -------------------------------------------------------------


def suite(lab, inputs):
    report = lab.verify_suite(2, 3)
    return {
        "all_passed": report.all_passed,
        "results": len(report.results),
        "passed": sum(r.passed for r in report.results),
    }


# -- nerve -----------------------------------------------------------------


def nerve_delta3(lab, inputs):
    return {"counts": _counts(lab.nerve(lab.c_delta(3), 4))}


def nerve_prism(lab, inputs):
    K = lab.serialize.complex_from_json(json.loads(inputs["prism"]))
    return {"counts": _counts(lab.nerve(K, 3))}


def functoriality(lab, inputs):
    all_pairs = lab.nerve(lab.c_delta(2), 3)
    generators = lab.nerve(lab.c_delta(2), 4)
    return {
        "all_pairs_failures": len(all_pairs.identity_failures()),
        "all_pairs_levels": [len(all_pairs.simplices(n)) for n in range(4)],
        "generator_failures": len(generators.identity_failures(generators_only=True)),
        "generator_levels": [len(generators.simplices(n)) for n in range(5)],
    }


def nerve_slices(lab, inputs):
    N = lab.nerve(lab.c_delta(2), 5)
    y = N.simplices(0)[0]
    S, _ = lab.bisimplicial_comparison(lab.nerves.identity_simplicial_map(N), 1, 3)
    return {
        "under": _counts(lab.under_slice(N, y, 0)),
        "over": _counts(lab.over_slice(N, y, 0)),
        "bisimplicial": [[len(S.simplices(m, n)) for n in range(4)] for m in range(2)],
        "levels": [len(N.simplices(n)) for n in range(6)],
    }


# -- census ----------------------------------------------------------------


def _census(enum):
    return [len(enum.cells), len(enum.nonidentity()), enum.complete]


def cells_delta5(lab, inputs):
    K = lab.c_delta(5)
    return {"dims": [_census(lab.enumerate_cells(K, i)) for i in range(6)]}


def cells_prism(lab, inputs):
    K = lab.serialize.complex_from_json(json.loads(inputs["prism"]))
    return {"dims": [_census(lab.enumerate_cells(K, i)) for i in range(K.dim + 1)]}


def abelianization(lab, inputs):
    K = lab.tensor_complex(lab.c_delta(2), lab.c_delta(2))
    return {
        "degrees": [
            [r.generators, r.rank, list(r.torsion), r.basis_size]
            for r in lab.lambda_of_nu(K, 2)
        ]
    }


def slice_cells(lab, inputs):
    u = lab.identity_morphism(lab.c_delta(4))
    c = lab.Chain.unit(0, "0")
    dims = []
    for d in range(5):
        cells, complete = lab.enumerate_slice_cells(u, c, d)
        dims.append([len(cells), complete])
    return {"dims": dims}


def two_loop_cells(lab, inputs):
    K = lab.serialize.complex_from_json(json.loads(inputs["two_loop"]))
    return {
        "bounded": [
            _census(lab.enumerate_cells(K, 1, coeff_bound=b)) for b in (2, 3, 4)
        ]
    }


def two_loop_hom(lab, inputs):
    K = lab.serialize.complex_from_json(json.loads(inputs["two_loop"]))
    return {"hom": [len(lab.hom_enumerate(n, K, coeff_bound=2)) for n in range(3)]}


def cli_oriental(lab, inputs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = lab.cli.run(["oriental", "5", "--dim", "3"])
    text = out.getvalue()
    return {
        "status": status,
        "bytes": len(text.encode()),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


JOBS = {
    "theorem-a": {"verify_suite": suite},
    "nerve": {
        "nerve_delta3": nerve_delta3,
        "nerve_prism": nerve_prism,
        "functoriality": functoriality,
        "nerve_slices": nerve_slices,
    },
    "census": {
        "cells_delta5": cells_delta5,
        "cells_prism": cells_prism,
        "abelianization": abelianization,
        "slice_cells": slice_cells,
        "two_loop_cells": two_loop_cells,
        "two_loop_hom": two_loop_hom,
        "cli_oriental": cli_oriental,
    },
}


# -- closed forms ------------------------------------------------------------


def closed_form_problems(job, answer):
    """Checks that need no recorded reference."""
    problems = []
    if job == "verify_suite" and not answer["all_passed"]:
        problems.append("identity suite reports failures")
    if job == "nerve_slices":
        # the nerve of the 2-simplex has 2^(n+2) - 1 simplices at level n
        want = [2 ** (n + 2) - 1 for n in range(6)]
        if answer["levels"] != want:
            problems.append(f"Delta2 nerve levels {answer['levels']} != {want}")
    if job == "functoriality":
        if answer["all_pairs_failures"] or answer["generator_failures"]:
            problems.append("functoriality failures")
        for key, top in (("all_pairs_levels", 4), ("generator_levels", 5)):
            want = [2 ** (n + 2) - 1 for n in range(top)]
            if answer[key] != want:
                problems.append(f"{key} {answer[key]} != {want}")
    if job == "abelianization":
        for degree, (_, rank, torsion, basis_size) in enumerate(answer["degrees"]):
            if rank != basis_size or torsion:
                problems.append(f"abelianization differs from the basis in degree {degree}")
    if job in ("cells_delta5", "cells_prism", "slice_cells"):
        if not all(row[-1] for row in answer["dims"]):
            problems.append("certified enumeration reported incomplete")
    if job == "two_loop_cells" and any(row[2] for row in answer["bounded"]):
        problems.append("bounded enumeration without certificate reported complete")
    if job == "cli_oriental" and answer["status"] != 0:
        problems.append(f"CLI exit status {answer['status']}")
    return problems
