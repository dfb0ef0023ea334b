"""Outside-in benchmark of steiner-lab.

Usage:
    python3 perfbench/run.py --workload {theorem-a,nerve,census} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.
Each repetition is one fresh worker process (perfbench/worker.py) that
runs the workload's job list cold, then warm, and checks every answer.
Workers run one at a time, so at most two processes exist.

--trace 0 first starts a few set-up-only workers, then repeats full
workers until S seconds have passed, and reports the end-to-end metrics
as medians over the repetitions.  --trace 1 runs one plain worker and one
traced worker (cold pass only) and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it give the samples, quartiles and run
environment; a full record, with the trace spans, goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_PROBES = 16  # set-up-only workers per run, besides the full ones
DEADLINE_S = 165  # a run never starts a worker it cannot finish by then
# at least two full workers; another only if it should end by 1.25 x --seconds
RUN_SLACK = 1.25

E2E_UNITS = {"cold_s": "s", "warm_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class WorkerError(RuntimeError):
    pass


def environment():
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "steiner_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a checkout without git history has only the source digest
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_at_start": [round(x, 2) for x in load],
        "load_above_cores": load[0] > nproc,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def worker_env(seed):
    env = {k: v for k, v in os.environ.items() if k != "STEINER_LAB_THREADS"}
    env["PYTHONHASHSEED"] = str(random.Random(f"{seed}:hash").randrange(1, 2**32))
    return env


def spawn(args, env, started):
    """Run one worker to completion; return its JSON record."""
    budget = DEADLINE_S + 10 - (time.perf_counter() - started)
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the run's deadline")
    if proc.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise WorkerError(f"worker exited with status {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def summary(values):
    """Median, quartiles and sample count of one metric."""
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def tally(record, reference_answers=None):
    """(attempted, failed, problem lines) over every pass of one worker."""
    attempted = failed = 0
    lines = []
    for name, answers in record["answers"].items():
        for job in answers:
            attempted += 1
            problem = record["problems"][name].get(job)
            if problem is None and reference_answers is not None:
                if answers[job] != reference_answers.get(job):
                    problem = "answer differs from the untraced run"
            if problem is not None:
                failed += 1
                lines.append(f"{name}/{job}: {problem}")
    return attempted, failed, lines


def measure(args, env, started):
    """--trace 0: set-up probes, then full repetitions for the run length."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def probes(count):
        return [spawn(base + ["--setup-only"], env, started)["setup_s"]
                for _ in range(count)]

    # half the set-up probes before the repetitions and half after, so that
    # a slow spell of the machine does not shift them all
    setups = probes(SETUP_PROBES // 2)
    reps = []
    while True:
        t0 = time.perf_counter()
        reps.append(spawn(base, env, started))
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        if len(reps) >= 2 and elapsed + took > RUN_SLACK * args.seconds:
            break
        if elapsed + 1.5 * took > DEADLINE_S:
            break
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    samples = {
        "cold_s": [r["cold_s"] for r in reps],
        "warm_s": [r["warm_s"] for r in reps],
        "setup_s": setups + [r["setup_s"] for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
    }
    stats = {name: summary(values) for name, values in samples.items()}
    metrics = {name: {"value": stats[name]["median"], "unit": E2E_UNITS[name]}
               for name in stats}
    attempted = failed = 0
    problems = []
    for rep in reps:
        a, f, lines = tally(rep)
        attempted, failed = attempted + a, failed + f
        problems += lines
    return metrics, {"samples": stats, "reps": len(reps)}, attempted, failed, problems


def traced(args, env, started):
    """--trace 1: one plain worker, then one traced worker (cold pass only)."""
    tracer.self_test()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = spawn(base, env, started)
    traced_rec = spawn(base + ["--trace", "1"], env, started)
    attempted, failed, problems = tally(plain)
    a, f, lines = tally(traced_rec, plain["answers"]["cold"])
    attempted, failed, problems = attempted + a, failed + f, problems + lines
    values = dict(traced_rec["layers"])
    values["trace.overhead_ratio"] = traced_rec["cold_s"] / plain["cold_s"]
    missing = layers.unmet(values, args.workload)
    if missing:
        raise WorkerError(
            f"traced functions recorded no calls on {args.workload}: {', '.join(missing)}"
        )
    units = {name: unit for name, unit, *_ in layers.METRICS}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail = {"plain_cold_s": plain["cold_s"], "traced_cold_s": traced_rec["cold_s"],
              "spans": traced_rec["spans"]}
    return metrics, detail, attempted, failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "steiner_lab" / "__init__.py").is_file():
        sys.exit(f"error: no steiner_lab sources under {ROOT / 'src'}")
    started = time.perf_counter()
    env_info = environment()
    # the "build": byte-compile the sources once, as an installed package would be
    if not compileall.compile_dir(ROOT / "src", quiet=2):
        sys.exit("error: the library sources do not compile")
    env = worker_env(args.seed)

    try:
        run = traced if args.trace else measure
        metrics, detail, attempted, failed, problems = run(args, env, started)
    except WorkerError as exc:
        sys.exit(f"error: {exc}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info,
              "hash_seed": env["PYTHONHASHSEED"], "order": workloads.job_order(args.workload, args.seed),
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": metrics, "detail": detail}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  hash seed {env['PYTHONHASHSEED']}"
          f"  job order {' '.join(record['order'])}")
    print("environment " + json.dumps(env_info))
    if env_info["load_above_cores"]:
        print(f"WARNING: load average {env_info['loadavg_at_start'][0]} is above "
              f"{env_info['nproc']} cores at start; timings are suspect")
    if args.trace:
        for metric, entry in metrics.items():
            print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    else:
        print(f"{detail['reps']} fresh workers; medians with quartiles.  No tail "
              "percentile is given: none has ten samples beyond it.")
        for metric, stats in detail["samples"].items():
            print(f"{metric:13s} {stats['median']:.4f} {E2E_UNITS[metric]}"
                  f"  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
    print(f"failed_ratio  {failed / attempted:.4f} ratio  ({failed} of {attempted} job runs "
          "raised or differed from the reference)")
    for line in problems:
        print(f"FAILED {line}")
    print(f"record written to {OUT.relative_to(ROOT) / name}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
