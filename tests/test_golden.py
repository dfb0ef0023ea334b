"""Byte-identical CLI outputs against frozen golden files."""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from steiner_lab import c_delta, identity_morphism, tensor_complex
from steiner_lab.cli import run
from steiner_lab.retract import verify_suite, wedge_projection
from steiner_lab.serialize import complex_to_json, morphism_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
TRIANGLE = str(GOLDEN / "triangle.json")


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("oriental2_dim1.json", ["oriental", "2", "--dim", "1"]),
        ("nerve_triangle_cap2.txt", ["nerve", TRIANGLE, "--cap", "2"]),
        ("tensor_triangle_squared.json", ["tensor", TRIANGLE, TRIANGLE]),
        (
            "slice_simplicial_vertex0.json",
            ["slice-simplicial", TRIANGLE, "0", "--cap", "2"],
        ),
        (
            "verify_theorem_a_1_1.txt",
            ["verify", "theorem-a", "--m-max", "1", "--n-max", "1"],
        ),
    ],
)
def test_cli_output_matches_golden_file(name, argv):
    assert capture(argv) == (GOLDEN / name).read_text()


def test_golden_outputs_are_reproducible(tmp_path):
    for argv in (["oriental", "2", "--counts"], ["tensor", TRIANGLE, TRIANGLE]):
        assert capture(argv) == capture(argv)


# sha256 of the stdout of `steiner-lab verify theorem-a --m-max 2 --n-max 3`,
# pinned as a digest so that no golden file grows
THEOREM_A_2_3_SHA256 = "ad94269c1d25cb1a3fa531b06119bdab6c4db6e5a98c1d6773fe605eda4afbe5"


def test_theorem_a_2_3_output_digest():
    out = capture(["verify", "theorem-a", "--m-max", "2", "--n-max", "3"])
    assert hashlib.sha256(out.encode()).hexdigest() == THEOREM_A_2_3_SHA256


# sha256 of one "name<TAB>passed<TAB>instances" line per result of
# verify_suite(2, 3), in report order: the output digest above holds only
# names and pass flags, this one also every family's instance count
SUITE_2_3_COUNTS_SHA256 = "bf1198e4b06859215b56b55c9106076dccd4d9502738e4433dfc17a5b01b2dc5"


def test_verify_suite_2_3_counts_digest():
    text = "".join(f"{r.name}\t{r.passed}\t{r.instances}\n" for r in verify_suite(2, 3).results)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_2_3_COUNTS_SHA256


# sha256 of the stdout of `steiner-lab slice` on six runs, concatenated in
# this order: (morphism, object, --cells), listing 12, 64, 3, 104, 30 and 1
# slice cells with their a0/a1 and coherence rows
SLICE_RUNS_SHA256 = "3fef5247212f4983ccb22b99ad620c064a89c95a06517ed2d44b40d77e759581"


def test_slice_output_digest(tmp_path):
    prism = tensor_complex(c_delta(2), c_delta(1))
    runs = [
        (identity_morphism(c_delta(2)), "0", 2),
        (identity_morphism(c_delta(3)), "0", 3),
        (identity_morphism(c_delta(3)), "2", 2),
        (identity_morphism(prism), "0(x)0", 3),
        (wedge_projection(1, 1), "K:0", 2),
        (wedge_projection(1, 1), "L:2", 3),
    ]
    digest, counts = hashlib.sha256(), []
    for k, (u, obj, cells) in enumerate(runs):
        K, f = tmp_path / f"K{k}.json", tmp_path / f"u{k}.json"
        K.write_text(json.dumps(complex_to_json(u.source)))
        f.write_text(json.dumps(morphism_to_json(u)))
        out = capture(["slice", str(K), str(f), obj, "--cells", str(cells)])
        counts.append(json.loads(out)["count"])
        digest.update(out.encode())
    assert counts == [12, 64, 3, 104, 30, 1]
    assert digest.hexdigest() == SLICE_RUNS_SHA256
