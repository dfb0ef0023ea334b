"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: python3 perfbench/spread.py WORKLOAD SEED [SEED ...]

Runs the benchmark command of BENCHMARK.json once per seed (trace off),
then prints, for each end-to-end metric, the median of the per-run values
and the distance between their first and third quartiles as a share of the
median, next to the metric's bound.  A steady benchmark keeps every spread
but setup_s below a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    workload, seeds = sys.argv[1], sys.argv[2:]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        done = subprocess.run(
            [*bench["command"], "--workload", workload, "--seed", seed,
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            sys.exit(f"seed {seed}: run failed (status {done.returncode})")
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={e['value']:.4f}" for n, e in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median
        print(f"{workload:10s} {metric['name']:13s} median {median:.4f} {metric['unit']:4s}"
              f" spread {spread:.3f}  bound {metric['bound']}  "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
