"""The benchmark's traced worker, run on each workload: every answer equals
the stored reference and every per-layer metric mapped to the workload is
nonzero, so a change that routes the work around a traced function or
method fails here, not only at the benchmark's gate."""

import json
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    """``perfbench/layers.py``, imported as the worker imports it."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import layers

    return layers


@pytest.mark.parametrize("workload", ["theorem-a", "nerve", "census"])
def test_traced_worker_meets_every_mapped_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--spawned-at", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["problems"] == {"cold": {}}
    assert _layers().unmet(record["layers"], workload) == []
