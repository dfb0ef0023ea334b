import contextlib
import copy
import io
import json
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from steiner_lab import (
    Chain,
    DirComplex,
    bisimplicial_comparison,
    c_delta,
    enumerate_cells,
    identity_morphism,
    nerve,
)
from steiner_lab.cli import run
from steiner_lab.nerves import nerve_map
from steiner_lab.serialize import (
    cell_to_json,
    complex_from_json,
    complex_to_json,
    dumps,
    morphism_from_json,
    morphism_to_json,
)
from steiner_lab.simplex import MonotoneMap, c_of_map, face_map
from steiner_lab.tensor import tensor_complex


def test_complex_round_trip():
    for K in (c_delta(0), c_delta(3), tensor_complex(c_delta(1), c_delta(1))):
        assert complex_from_json(complex_to_json(K)) == K


def test_complex_json_is_byte_stable():
    K = tensor_complex(c_delta(1), c_delta(2))
    assert dumps(complex_to_json(K)) == dumps(
        complex_to_json(complex_from_json(complex_to_json(K)))
    )


def test_morphism_round_trip():
    f = c_of_map(MonotoneMap(2, 1, (0, 0, 1)))
    assert morphism_from_json(morphism_to_json(f)) == f
    ident = identity_morphism(c_delta(2))
    assert morphism_from_json(morphism_to_json(ident)) == ident


# -- command line -----------------------------------------------------------------

@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(dumps(complex_to_json(c_delta(2))))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(dumps(morphism_to_json(identity_morphism(c_delta(2)))))
    return str(path)


def test_cli_validate(triangle_file, capsys):
    assert run(["adc", "validate", triangle_file]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_cli_validate_json(triangle_file, capsys):
    assert run(["adc", "validate", triangle_file, "--json"]) == 0
    assert capsys.readouterr().out == dumps({"ok": True, "problems": []})


def test_cli_validate_rejects_corruption(tmp_path, capsys):
    data = complex_to_json(c_delta(2))
    data["diff"]["0,1,2"] = {"0,1": 1, "0,2": 1, "1,2": 1}
    path = tmp_path / "bad.json"
    path.write_text(dumps(data))
    assert run(["adc", "validate", str(path)]) == 1
    assert "0,1,2" in capsys.readouterr().out


def test_cli_oriental_counts(capsys):
    assert run(["oriental", "2", "--counts"]) == 0
    assert capsys.readouterr().out.strip() == "dim0:3 dim1(nondeg):4 dim2(nondeg):1"


def test_cli_oriental_counts_mark_a_bound_that_cuts_them(capsys):
    """Bound 0 cuts every cell of the certified 2-oriental, so the counts
    carry the nerve's marker; unbounded they are complete and unmarked."""
    assert run(["oriental", "2", "--counts", "--coeff-bound", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dim0:0 dim1(nondeg):0 dim2(nondeg):0"
    assert lines[1].startswith("possibly incomplete") and len(lines) == 2
    assert run(["oriental", "2", "--counts", "--coeff-bound", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is False
    assert run(["oriental", "2", "--counts", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["complete"] is True and data["counts"] == "dim0:3 dim1(nondeg):4 dim2(nondeg):1"


def test_cli_oriental_counts_and_dim_are_exclusive(capsys):
    assert run(["oriental", "2", "--counts", "--dim", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --dim: not allowed with argument --counts" in captured.err


def test_cli_oriental_is_deterministic(capsys):
    run(["oriental", "2", "--dim", "1"])
    first = capsys.readouterr().out
    run(["oriental", "2", "--dim", "1"])
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["complete"] and len(payload["cells"]) == 7


@pytest.mark.parametrize("argv", [
    ["cells", "TRIANGLE", "--dim", "-1"],
    ["verify", "theorem-a", "--m-max", "-1", "--n-max", "-1"],
    ["verify", "theorem-a", "--m-max", "1", "--n-max", "-1"],
    ["nerve", "TRIANGLE", "--cap", "-1"],
    ["oriental", "3", "--dim", "-1"],
    ["oriental", "-2"],
    ["slice", "TRIANGLE", "IDENTITY", "0", "--cells", "-1"],
    ["bisimplicial", "TRIANGLE", "--cap-m", "-1", "--cap-n", "1"],
    ["bisimplicial", "TRIANGLE", "--cap-m", "1", "--cap-n", "-1"],
    ["cells", "TRIANGLE", "--dim", "1", "--coeff-bound", "-1"],
    ["oriental", "2", "--dim", "1", "--coeff-bound", "-1"],
    ["nerve", "TRIANGLE", "--cap", "2", "--coeff-bound", "-1"],
    ["slice", "TRIANGLE", "IDENTITY", "0", "--cells", "1", "--coeff-bound", "-1"],
])
def test_cli_rejects_negative_bounds(triangle_file, identity_file, capsys, argv):
    files = {"TRIANGLE": triangle_file, "IDENTITY": identity_file}
    assert run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["adc", "frobnicate", "TRIANGLE"], ["verify", "theorem-b"]])
def test_cli_rejects_unknown_choices(triangle_file, capsys, argv):
    assert run([triangle_file if a == "TRIANGLE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["pushout", "POINT", "TRIANGLE", "TRIANGLE", "IDENTITY", "IDENTITY"],
     "legs do not match"),
    (["slice", "POINT", "IDENTITY", "0", "--cells", "0"], "source does not match"),
    (["slice", "TRIANGLE", "IDENTITY", "9", "--cells", "0"], "not a vertex"),
    (["slice", "TRIANGLE", "IDENTITY", "0,1", "--cells", "0"], "'0,1' is not a vertex"),
    (["slice-simplicial", "TRIANGLE", "9", "--cap", "1"], "no 0-simplex"),
    (["bisimplicial", "POINT", "--morphism", "IDENTITY", "--cap-m", "0", "--cap-n", "0"],
     "source does not match"),
    # the edge to 1,2 with its ends at 0 and 1: the right shape, not a chain map
    (["slice", "INTERVAL", "NOT_CHAIN_MAP", "0", "--cells", "1"], "d-compatibility broken"),
    (["bisimplicial", "INTERVAL", "--morphism", "NOT_CHAIN_MAP", "--cap-m", "0",
      "--cap-n", "0"], "d-compatibility broken"),
    (["pushout", "INTERVAL", "TRIANGLE", "TRIANGLE", "NOT_CHAIN_MAP", "EDGE"],
     "d-compatibility broken"),
])
def test_cli_refusals_are_one_error_line(tmp_path, triangle_file, identity_file, capsys,
                                         argv, message):
    from oracles import morphism_from_dict

    files = {"TRIANGLE": triangle_file, "IDENTITY": identity_file}
    not_chain_map = morphism_from_dict(c_delta(1), c_delta(2), {
        "0": Chain.unit(0, "0"), "1": Chain.unit(0, "1"), "0,1": Chain.unit(1, "1,2"),
    })
    for name, data in (
        ("POINT", complex_to_json(c_delta(0))),
        ("INTERVAL", complex_to_json(c_delta(1))),
        ("NOT_CHAIN_MAP", morphism_to_json(not_chain_map)),
        ("EDGE", morphism_to_json(c_of_map(face_map(2, 0)))),
    ):
        path = files[name] = str(tmp_path / f"{name}.json")
        with open(path, "w") as handle:
            handle.write(dumps(data))
    assert run([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_cli_tensor_and_pushout(tmp_path, capsys):
    i_path = tmp_path / "interval.json"
    i_path.write_text(dumps(complex_to_json(c_delta(1))))
    assert run(["tensor", str(i_path), str(i_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [len(level) for level in data["basis"]] == [4, 4, 1]

    point = tmp_path / "point.json"
    point.write_text(dumps(complex_to_json(c_delta(0))))
    from oracles import morphism_from_dict

    f = morphism_from_dict(c_delta(0), c_delta(1), {"0": Chain.unit(0, "1")})
    g = morphism_from_dict(c_delta(0), c_delta(1), {"0": Chain.unit(0, "0")})
    f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
    f_path.write_text(dumps(morphism_to_json(f)))
    g_path.write_text(dumps(morphism_to_json(g)))
    code = run(
        ["pushout", str(point), str(i_path), str(i_path), str(f_path), str(g_path)]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert [len(level) for level in data["basis"]] == [3, 2]


def test_cli_cells_and_nerve(triangle_file, capsys):
    assert run(["cells", triangle_file, "--dim", "1", "--counts-only"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 7 and data["nonidentity"] == 4
    assert run(["nerve", triangle_file, "--cap", "2"]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "dim0:3(nondeg 3) dim1:7(nondeg 4) dim2:15(nondeg 4)"
    )


def test_cli_cells_lists_the_enumerated_cells(triangle_file, capsys):
    assert run(["cells", triangle_file, "--dim", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    cells = [cell_to_json(c) for c in enumerate_cells(c_delta(2), 1).cells]
    assert data["count"] == 7 and data["cells"] == cells


def test_cli_nerve_marks_bounded_counts(tmp_path, triangle_file, capsys):
    from test_cells import two_loop_complex

    path = tmp_path / "two_loop.json"
    path.write_text(dumps(complex_to_json(two_loop_complex())))
    args = ["nerve", str(path), "--cap", "1", "--coeff-bound", "1"]
    assert run(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dim0:2(nondeg 2) dim1:6(nondeg 4)"
    assert lines[1].startswith("possibly incomplete") and len(lines) == 2
    assert run(args + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["complete"] is False
    assert [row["total"] for row in data["counts"]] == [2, 6]
    assert run(["nerve", triangle_file, "--cap", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is True


def test_cli_nerve_marks_a_bound_that_cuts_a_certified_complex(triangle_file, capsys):
    """On the triangle, bound 0 drops every vertex and edge the peel finds;
    bound 1 keeps them all, so only bound 0 is flagged."""
    args = ["nerve", triangle_file, "--cap", "1", "--coeff-bound"]
    assert run(args + ["0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dim0:0(nondeg 0) dim1:0(nondeg 0)"
    assert lines[1].startswith("possibly incomplete") and len(lines) == 2
    assert run(args + ["0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is False
    assert run(args + ["1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["dim0:3(nondeg 3) dim1:7(nondeg 4)"]
    assert run(args + ["1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is True


def test_cli_slices_mark_bounded_counts(tmp_path, capsys):
    from test_cells import two_loop_complex

    path = tmp_path / "two_loop.json"
    path.write_text(dumps(complex_to_json(two_loop_complex())))
    bound = ["--coeff-bound", "1"]
    assert run(["slice-simplicial", str(path), "a", "--cap", "2"] + bound) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is False
    assert run(["bisimplicial", str(path), "--cap-m", "1", "--cap-n", "0"] + bound) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is False


def test_cli_slice(tmp_path, triangle_file, capsys):
    u_path = tmp_path / "u.json"
    u_path.write_text(dumps(morphism_to_json(identity_morphism(c_delta(2)))))
    assert run(["slice", triangle_file, str(u_path), "0", "--cells", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4


def test_cli_slice_simplicial(triangle_file, capsys):
    assert run(["slice-simplicial", triangle_file, "0", "--cap", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "under" and data["counts"][0]["total"] == 4


def test_cli_bisimplicial(triangle_file, capsys):
    assert run(["bisimplicial", triangle_file, "--cap-m", "1", "--cap-n", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    sizes = {(row["m"], row["n"]): row["count"] for row in data["sizes"]}
    assert sizes[(0, 0)] == 7  # pairs of a 1-simplex with its final vertex
    assert data["complete"] is True


def test_cli_bisimplicial_over_a_morphism(tmp_path, capsys):
    """S(u) of the nerve map of the face cDelta(1) -> cDelta(2) missing 1."""
    f = c_of_map(face_map(2, 1))
    edge, face = tmp_path / "edge.json", tmp_path / "face.json"
    edge.write_text(dumps(complex_to_json(f.source)))
    face.write_text(dumps(morphism_to_json(f)))
    argv = ["bisimplicial", str(edge), "--morphism", str(face), "--cap-m", "1", "--cap-n", "0"]
    assert run(argv) == 0
    data = json.loads(capsys.readouterr().out)
    S, _ = bisimplicial_comparison(nerve_map(f, nerve(f.source, 2), nerve(f.target, 2)), 1, 0)
    assert data["sizes"] == [
        {"m": m, "n": 0, "count": len(S.simplices(m, 0))} for m in (0, 1)
    ]
    assert [row["count"] for row in data["sizes"]] == [5, 12]  # over cDelta(2), not cDelta(1)
    assert data["complete"] is S.complete is True


def test_cli_verify_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run(
        [
            "verify",
            "theorem-a",
            "--m-max",
            "0",
            "--n-max",
            "0",
            "--json-report",
            str(report),
        ]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["all_passed"]
    assert all(r["instances"] > 0 for r in payload["results"])
    assert "ALL PASS" in capsys.readouterr().out


def test_cli_export_dot(triangle_file, capsys):
    assert run(["export-dot", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and '"0,1,2"' in out


def test_cli_export_dot_writes_the_printed_form(tmp_path, triangle_file, capsys):
    assert run(["export-dot", triangle_file]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "triangle.dot"
    assert run(["export-dot", triangle_file, "-o", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text() == printed


def test_cli_export_dot_escapes_token_names(tmp_path, capsys):
    """Every quoted ID decodes back to its token, in the rank lines and on
    both ends of each edge, whatever quotes, backslashes and newlines the
    token holds."""
    K = DirComplex(
        [['a"b', "c\\d", "e\nf"], ['g\\"h']],
        {'g\\"h': Chain.make(0, {"c\\d": 1, 'a"b': -1})},
        {'a"b': 1, "c\\d": 1, "e\nf": 1},
    )
    path = tmp_path / "quoted.json"
    path.write_text(dumps(complex_to_json(K)))
    assert run(["export-dot", str(path)]) == 0
    out = capsys.readouterr().out
    edges = [(t, s) for t in K.tokens(1) for s, _ in K.diff_of(t).coeffs]
    # header, one rank line per degree, one line per edge, closing brace
    assert len(out.splitlines()) == 2 + len(K.degrees()) + len(edges) + 1
    decode = {"\\": "\\", '"': '"', "n": "\n"}
    ids = [
        re.sub(r"\\(.)", lambda m: decode[m.group(1)], quoted)
        for label, quoted in re.findall(r'(label=)?"((?:[^"\\]|\\.)*)"', out)
        if not label
    ]
    assert ids == [*K.tokens(0), *K.tokens(1), *(x for edge in edges for x in edge)]


@pytest.mark.parametrize(
    "section,value", [("diff", 1.5), ("diff", True), ("aug", 1.0), ("aug", False)]
)
def test_cli_rejects_non_integer_coefficients(tmp_path, capsys, section, value):
    data = {
        "basis": [["a", "b"], ["g"]],
        "diff": {"g": {"b": 1, "a": -1}},
        "aug": {"a": 1, "b": 1},
    }
    entries = data["diff"]["g"] if section == "diff" else data["aug"]
    entries["b"] = value
    path = tmp_path / "coefficients.json"
    path.write_text(json.dumps(data))
    assert run(["adc", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not an integer" in captured.err


@pytest.mark.parametrize(
    "data",
    [
        {"diff": {}},
        {"basis": [["a", "b"], ["g"]], "diff": {"g": 5}},
        {"basis": [["a", "b"], ["g"]], "diff": {"h": {"a": 1}}},
        [["a", "b"], ["g"]],
        {"basis": "ab"},
        {"basis": [["a", 1]]},
        {"basis": [["a"]], "aug": [1]},
    ],
    ids=["no basis", "chain not an object", "unknown diff token", "top-level list",
         "basis not a list", "token not a string", "aug not an object"],
)
def test_cli_rejects_malformed_complex_json(tmp_path, capsys, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert run(["adc", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        "drop source",
        "images not an object",
        "image for unknown token",
        "top-level list",
        "missing image",
        "image outside the target",
    ],
)
def test_morphism_reader_rejects_malformed_json(change):
    data = morphism_to_json(identity_morphism(c_delta(1)))
    if change == "drop source":
        del data["source"]
    elif change == "images not an object":
        data["images"] = [data["images"]]
    elif change == "image for unknown token":
        data["images"]["9"] = {"0": 1}
    elif change == "missing image":
        del data["images"]["0,1"]
    elif change == "image outside the target":
        data["images"]["0,1"] = {"9": 1}
    else:
        data = [data]
    with pytest.raises(ValueError):
        morphism_from_json(data)


# -- fuzzing the JSON boundary ---------------------------------------------------

def _complex_token_sites(data, prefix=()):
    """(path of a container, key or index) of every token name in a complex."""
    return (
        [(prefix + ("basis", p), i) for p, level in enumerate(data["basis"])
         for i in range(len(level))]
        + [(prefix + ("diff",), t) for t in data["diff"]]
        + [(prefix + ("diff", t), s) for t, chain in data["diff"].items() for s in chain]
        + [(prefix + ("aug",), t) for t in data["aug"]]
    )


def _token_sites(data, is_morphism):
    if not is_morphism:
        return _complex_token_sites(data)
    return (
        _complex_token_sites(data["source"], ("source",))
        + _complex_token_sites(data["target"], ("target",))
        + [(("images",), t) for t in data["images"]]
        + [(("images", t), s) for t, chain in data["images"].items() for s in chain]
    )


def _positions(data, path=()):
    """The path of every value in a JSON tree, the root included."""
    yield path
    if isinstance(data, (dict, list)):
        for key in data if isinstance(data, dict) else range(len(data)):
            yield from _positions(data[key], path + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _mutate(draw, data, is_morphism):
    """One malformed copy of a valid complex or morphism file."""
    data = copy.deepcopy(data)
    kinds = ["drop a key", "change a type", "rename a token"]
    if is_morphism:
        kinds += ["drop an image", "image outside the target"]
    kind = draw(st.sampled_from(kinds))
    if kind == "drop a key":
        required = [("source",), ("target",), ("images",), ("source", "basis"),
                    ("target", "basis")] if is_morphism else [("basis",)]
        *parent, key = draw(st.sampled_from(required))
        del _at(data, parent)[key]
    elif kind == "change a type":
        path = draw(st.sampled_from(list(_positions(data))))
        old = _at(data, path)
        new = draw(st.sampled_from(
            [v for v in (0, 1.5, True, None, "x", [], {}) if type(v) is not type(old)]
        ))
        if not path:
            return new
        _at(data, path[:-1])[path[-1]] = new
    elif kind == "rename a token":
        path, key = draw(st.sampled_from(_token_sites(data, is_morphism)))
        container = _at(data, path)
        if isinstance(container, list):
            container[key] = "renamed"
        else:
            container["renamed"] = container.pop(key)
    else:
        images = data["images"]
        token = draw(st.sampled_from(sorted(images)))
        if kind == "drop an image":
            del images[token]
        else:
            degree = next(p for p, level in enumerate(data["source"]["basis"]) if token in level)
            elsewhere = [t for p, level in enumerate(data["target"]["basis"]) if p != degree
                         for t in level]
            images[token] = {draw(st.sampled_from(elsewhere + ["renamed"])): 1}
    return data


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_cli_rejects_mutated_json_files(mutate_morphism, data):
    u = c_of_map(MonotoneMap(2, 1, (0, 0, 1)))
    complex_data, morphism_data = complex_to_json(u.source), morphism_to_json(u)
    if mutate_morphism:
        morphism_data = _mutate(data.draw, morphism_data, True)
    else:
        complex_data = _mutate(data.draw, complex_data, False)
    with tempfile.TemporaryDirectory() as tmp:
        k_path, u_path = f"{tmp}/complex.json", f"{tmp}/morphism.json"
        for path, value in ((k_path, complex_data), (u_path, morphism_data)):
            with open(path, "w") as handle:
                json.dump(value, handle)
        commands = [["slice", k_path, u_path, "0", "--cells", "0"]]
        if not mutate_morphism:
            commands.append(["adc", "validate", k_path])
        for argv in commands:
            code, out, err = _run_quietly(argv)
            assert (code, out) == (2, ""), (argv[0], err)
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_morphism_reader_rejects_non_integer_coefficients():
    data = morphism_to_json(identity_morphism(c_delta(1)))
    data["images"]["0,1"] = {"0,1": 1.0}
    with pytest.raises(ValueError, match="not an integer"):
        morphism_from_json(data)
    data["images"]["0,1"] = {"0,1": True}
    with pytest.raises(ValueError, match="not an integer"):
        morphism_from_json(data)


def test_cli_usage_errors(tmp_path, capsys):
    assert run(["no-such-command"]) == 2
    missing = tmp_path / "missing.json"
    assert run(["adc", "validate", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["adc", "validate", str(bad)]) == 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    capsys.readouterr()
    assert run(["adc", "validate", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
