"""The scripts in ``scripts/`` run end to end as subprocesses."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_verify_identities_script():
    proc = run_script("verify_identities.py", "--m-max", "1", "--n-max", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 43 and all(line.startswith("pass  ") for line in lines[:-1])
    assert lines[-1].startswith("ALL PASS (42 identities, ")


def test_verify_identities_script_rejects_negative_bounds():
    proc = run_script("verify_identities.py", "--m-max", "-1")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_oriental_census_script():
    proc = run_script("oriental_census.py", "1", "--cap", "1")
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert [line.split("  (")[0] for line in lines if line.startswith("oriental")] == [
        "oriental 0", "oriental 1",
    ]
    assert lines[-5:-3] == ["dim 0: 2 cells, 2 non-identity", "dim 1: 3 cells, 1 non-identity"]
    assert lines[-2:] == [
        "dim 0: 2 simplices, 2 nondegenerate", "dim 1: 3 simplices, 1 nondegenerate",
    ]
