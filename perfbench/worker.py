"""One benchmark worker: a fresh single-threaded process that builds the
seeded inputs, then runs the workload's job list twice (cold, then warm in
the same process) and checks every answer against the reference.

It prints one JSON object on stdout.  ``--setup-only`` stops at the point
where the first job would be called; ``--trace 1`` wraps the layers and
runs the cold pass only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import steiner_lab
    import steiner_lab.cli
    import steiner_lab.linalg
    import steiner_lab.serialize
    import steiner_lab.solve

    where = Path(steiner_lab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"steiner_lab imported from {where}, not from this checkout")
    return steiner_lab


def run_pass(lab, jobs, order, inputs, reference):
    """Run every job once; return (answers, problems per job)."""
    answers, problems = {}, {}
    for name in order:
        try:
            answer = json.loads(json.dumps(jobs[name](lab, inputs)))
        except Exception:
            answers[name] = None
            problems[name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            continue
        answers[name] = answer
        found = workloads.closed_form_problems(name, answer)
        if answer != reference.get(name):
            found.append("answer differs from the reference")
        if found:
            problems[name] = "; ".join(found)
    return answers, problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    lab = import_library()
    stored = HERE / "reference.json"
    # without a stored reference every answer is reported as differing
    reference = json.loads(stored.read_text())[args.workload] if stored.exists() else {}
    jobs = workloads.JOBS[args.workload]
    order = workloads.job_order(args.workload, args.seed)
    inputs = workloads.make_inputs(lab, args.workload, args.seed)
    layer_trace = None
    if args.trace:
        import layers

        layer_trace = layers.LayerTrace(lab)
        layer_trace.install()

    first_call = time.perf_counter()
    out = {"setup_s": first_call - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return
    out["order"] = order
    out["answers"], out["problems"] = {}, {}
    passes = ("cold",) if layer_trace else ("cold", "warm")
    start = first_call
    for name in passes:
        out["answers"][name], out["problems"][name] = run_pass(
            lab, jobs, order, inputs, reference
        )
        end = time.perf_counter()
        out[f"{name}_s"] = end - start
        start = end
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if layer_trace is not None:
        out["layers"] = layer_trace.metrics()
        out["spans"] = layer_trace.span_summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
