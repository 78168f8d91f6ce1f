"""Run one workload in this process for a fixed time and print what was measured.

Started by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``,
so this process holds only the workload and its peak resident memory is the
workload's.  The last line of standard output is one JSON object.

With ``--trace 1`` every step runs the pass twice with the same seed, first
untraced and then with the layer spans installed; the difference between
their wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as spans
from shapes import NAMES, pass_seed
from workloads import make_workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    from umda_lab import kernels

    workload = make_workload(args.workload)
    tracer = spans.Tracer()
    clock = time.perf_counter
    walls: list[float] = []
    traced_walls: list[float] = []
    rates: list[float] = []
    operations = []
    outputs: dict[str, bytes] = {}
    started = clock()
    index = 0
    while True:
        seed = pass_seed(args.seed, index)
        out_dir = args.out_dir / f"pass-{index}"
        outcome = workload.run_pass(seed, out_dir, clock)
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(outcome.wall_s)
        rates.append(outcome.evals / outcome.wall_s)
        operations.extend(outcome.operations)
        if index == 0:
            outputs = outcome.outputs
        if args.trace:
            spans.install(tracer)
            try:
                traced = workload.run_pass(seed, out_dir, clock)
            finally:
                tracer.uninstall()
            shutil.rmtree(out_dir, ignore_errors=True)
            traced_walls.append(traced.wall_s)
            operations.extend(traced.operations)
        index += 1
        elapsed = clock() - started
        if elapsed + elapsed / index > args.seconds:
            break
    operations.extend(workload.checks())

    failed = [op for op in operations if not op.ok]
    result = {
        "passes": index,
        "pass_wall_s": walls,
        "operations": [vars(op) for op in operations],
        "attempted": len(operations),
        "failed": len(failed),
        "failed_operations": [op.name for op in failed],
        "exact_failures": [op.name for op in failed if op.exact],
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())},
        "backend": kernels.BACKEND,
    }
    if args.trace:
        consistent, detail = spans.phase_consistency(tracer)
        metrics = spans.layer_metrics(tracer, index, workload.jobs)
        metrics["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result.update(trace_consistent=consistent, trace_consistency=detail, metrics=metrics)
    else:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "evals_per_s": statistics.median(rates),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
