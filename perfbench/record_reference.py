"""Record every job's reference answer into perfbench/reference.json.

Usage: python3 perfbench/record_reference.py

Each workload runs in a fresh worker under two seeds; the answers must
agree (they are invariant under relabelling, basis order, job order and
hash seed) and pass the closed-form checks before they are written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)


def answers(workload, seed):
    env = {k: v for k, v in os.environ.items() if k != "STEINER_LAB_THREADS"}
    env["PYTHONHASHSEED"] = str(seed)
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--spawned-at", "0"],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"{workload} (seed {seed}) failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["answers"]["cold"]


def main():
    reference = {}
    for workload in workloads.WORKLOADS:
        runs = [answers(workload, seed) for seed in SEEDS]
        if runs[0] != runs[1]:
            sys.exit(f"{workload}: answers differ between seeds {SEEDS}")
        for job, answer in runs[0].items():
            if answer is None:
                sys.exit(f"{workload}/{job} raised")
            problems = workloads.closed_form_problems(job, answer)
            if problems:
                sys.exit(f"{workload}/{job}: {problems}")
        reference[workload] = dict(sorted(runs[0].items()))
        print(f"{workload}: {len(runs[0])} jobs agree under seeds {SEEDS}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
