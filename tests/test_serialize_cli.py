import json

import pytest

from steiner_lab import Chain, c_delta, atom_cell, identity_morphism
from steiner_lab.cli import run
from steiner_lab.serialize import (
    cell_from_json,
    cell_to_json,
    complex_from_json,
    complex_to_json,
    dumps,
    morphism_from_json,
    morphism_to_json,
)
from steiner_lab.simplex import MonotoneMap, c_of_map
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


def test_cell_round_trip():
    K = c_delta(2)
    cell = atom_cell(K, "0,1,2")
    assert cell_from_json(K, cell_to_json(cell)) == cell


# -- command line -----------------------------------------------------------------

@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(dumps(complex_to_json(c_delta(2))))
    return str(path)


def test_cli_validate(triangle_file, capsys):
    assert run(["adc", "validate", triangle_file]) == 0
    assert capsys.readouterr().out.strip() == "OK"


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


def test_cli_oriental_is_deterministic(capsys):
    run(["oriental", "2", "--dim", "1"])
    first = capsys.readouterr().out
    run(["oriental", "2", "--dim", "1"])
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["complete"] and len(payload["cells"]) == 7


def test_cli_tensor_and_pushout(tmp_path, capsys):
    i_path = tmp_path / "interval.json"
    i_path.write_text(dumps(complex_to_json(c_delta(1))))
    assert run(["tensor", str(i_path), str(i_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [len(level) for level in data["basis"]] == [4, 4, 1]

    point = tmp_path / "point.json"
    point.write_text(dumps(complex_to_json(c_delta(0))))
    from steiner_lab import AdcMorphism

    f = AdcMorphism(c_delta(0), c_delta(1), {"0": Chain.unit(0, "1")})
    g = AdcMorphism(c_delta(0), c_delta(1), {"0": Chain.unit(0, "0")})
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
    assert "ALL PASS" in capsys.readouterr().out


def test_cli_export_dot(triangle_file, capsys):
    assert run(["export-dot", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and '"0,1,2"' in out


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
    ["drop source", "images not an object", "image for unknown token", "top-level list"],
)
def test_morphism_reader_rejects_malformed_json(change):
    data = morphism_to_json(identity_morphism(c_delta(1)))
    if change == "drop source":
        del data["source"]
    elif change == "images not an object":
        data["images"] = [data["images"]]
    elif change == "image for unknown token":
        data["images"]["9"] = {"0": 1}
    else:
        data = [data]
    with pytest.raises(ValueError):
        morphism_from_json(data)


def test_morphism_and_cell_readers_reject_non_integer_coefficients():
    data = morphism_to_json(identity_morphism(c_delta(1)))
    data["images"]["0,1"] = {"0,1": 1.0}
    with pytest.raises(ValueError, match="not an integer"):
        morphism_from_json(data)
    K = c_delta(2)
    data = cell_to_json(atom_cell(K, "0,1,2"))
    data["x1"][2] = {"0,1,2": True}
    with pytest.raises(ValueError, match="not an integer"):
        cell_from_json(K, data)


def test_cli_usage_errors(tmp_path, capsys):
    assert run(["no-such-command"]) == 2
    missing = tmp_path / "missing.json"
    assert run(["adc", "validate", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["adc", "validate", str(bad)]) == 2
