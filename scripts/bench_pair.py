#!/usr/bin/env python3
"""Before/after benchmark pairs: this checkout against a parent revision.

Usage:
    python3 scripts/bench_pair.py --out .benchmarks/BENCH_<n>.json [--parent REV]

The parent revision (default HEAD, so uncommitted work is the change) is
unpacked with ``git archive REV | tar -x`` into a temporary directory; no
worktree is made and nothing is fetched.  The workloads and the run length
are read from BENCHMARK.json.  For each workload and seed 1..10,
``python3 perfbench/run.py --trace 0`` runs once in each tree, the parent
first on odd seeds and the change first on even ones.  The output holds,
per workload and end-to-end metric, the per-seed medians of both sides,
the median over the seeds, the parent's interquartile range and whether
the gain rule is met, and the ``src/**/*.py`` line count of both trees.  A seed on which either side is
not ``correct`` is left out of the pairs and listed; the exit status is
then 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = 10  # alternating pairs per workload


def result_line(stdout):
    """The JSON object on the last line of a perfbench run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def assemble(runs):
    """The pair record from ``runs``: (workload, seed, side, result) tuples,
    ``result`` a perfbench result line.  Per workload and metric, both
    sides' samples in seed order and their medians, the parent's
    interquartile range, the seeds on which the change reads lower, and
    ``gain_rule_met``: the change reads lower on at least nine in ten of the
    pairs, and its median lies below the parent's by more than the parent's
    interquartile range.  Only seeds on which both sides are ``correct``
    are paired."""
    by_seed = {}
    for workload, seed, side, result in runs:
        by_seed.setdefault((workload, seed), {})[side] = result
    out = {}
    for (workload, seed), sides in sorted(by_seed.items()):
        if not all(side in sides and sides[side]["correct"] for side in SIDES):
            continue
        parent, change = (sides[side]["metrics"] for side in SIDES)
        for metric, entry in parent.items():
            slot = out.setdefault(workload, {}).setdefault(
                metric, {"unit": entry["unit"], "seeds": [], "parent_samples": [],
                         "change_samples": []}
            )
            slot["seeds"].append(seed)
            slot["parent_samples"].append(entry["value"])
            slot["change_samples"].append(change[metric]["value"])
    for metrics in out.values():
        for slot in metrics.values():
            parent, change = slot["parent_samples"], slot["change_samples"]
            slot["parent_median"] = statistics.median(parent)
            slot["change_median"] = statistics.median(change)
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            slot["parent_iqr"] = q3 - q1
            slot["change_lower_on"] = sum(c < p for p, c in zip(parent, change))
            slot["gain_rule_met"] = (
                10 * slot["change_lower_on"] >= 9 * len(parent)
                and slot["parent_median"] - slot["change_median"] > slot["parent_iqr"]
            )
    return out


def src_lines(tree):
    """The number of lines of the Python files under ``tree``/src."""
    return sum(path.read_bytes().count(b"\n") for path in Path(tree).glob("src/**/*.py"))


def run_side(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        return result_line(proc.stdout)
    except ValueError:
        tail = "\n".join(proc.stderr.strip().splitlines()[-3:])
        return {"correct": False, "metrics": {}, "error": tail}


def commit_of(rev):
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]

    parent = commit_of(args.parent)
    runs, bad = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.Popen(["git", "archive", parent], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"error: git archive {parent} failed")
        trees = {"parent": tmp, "change": ROOT}
        for workload in (w["name"] for w in config["workloads"]):
            for seed in range(1, SEEDS + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    result = run_side(trees[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                          flush=True)
                    if not result["correct"]:
                        bad.append(f"{workload} seed {seed} {side}: {result.get('error', '')}")
                    runs.append((workload, seed, side, result))
        lines = {side: src_lines(trees[side]) for side in SIDES}
    record = {
        "parent": parent,
        "change": "working tree of " + commit_of("HEAD"),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                   " --trace 0",
        "order": "parent first on odd seeds, change first on even seeds",
        "python": platform.python_version(),
        "src_lines": lines,
        "workloads": assemble(runs),
        "incorrect_runs": bad,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for line in bad:
        print(f"NOT CORRECT {line}", file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
