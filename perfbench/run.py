"""Benchmark entry point for umda-lab; run it from the root of a checkout.

    python3 perfbench/run.py --workload march --seed 1 --seconds 20 --trace 0

It times the package's set-up in fresh interpreters, then runs the workload
in a worker process (``worker.py``) for ``--seconds`` seconds, and prints a
report line (environment, operations, sha256 of every output file) followed
by the result line: ``correct``, ``attempted``, ``failed`` and the metrics
that ``BENCHMARK.json`` lists, end to end with ``--trace 0`` and per layer
with ``--trace 1``.  Bundles go under ``.perfbench_out/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from shapes import NAMES, setup_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0
# Fresh interpreters timed per run; set-up varies more than anything else
# measured here, so its median is taken over several cold starts.
SETUP_PROBES = 5


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"  # at most the workload's own threads on a 2-core machine
    return env


def _scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of every scipy import that a non-scipy module started.

    ``from scipy import stats`` loads ``scipy.stats`` through scipy's lazy
    ``__getattr__``, so the log has no ``scipy.stats`` line of its own; its
    modules appear as direct children of the importing module instead.
    Children are logged before their parent, so the log is walked backwards
    with a stack of open parents.
    """
    total_us = 0
    parents: list[tuple[int, str]] = []
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        indent = len(parts[2]) - len(parts[2].lstrip())
        name = parts[2].strip()
        while parents and parents[-1][0] >= indent:
            parents.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not (parents and parents[-1][1].split(".")[0] == "scipy"):
            total_us += int(parts[1])
        parents.append((indent, name))
    return total_us / 1e6


def _probe_setup(config: dict, probes: int, importtime: bool, env, deadline: float) -> list[dict]:
    """Cold-start ``umda_lab.cli`` ``probes`` times, after one untimed warm start."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else [])
    command += [str(HERE / "setup_probe.py"), json.dumps(config)]
    samples = []
    for attempt in range(probes + (probes > 1)):
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=max(1.0, deadline - time.monotonic()))
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        if importtime:
            sample["scipy_stats_s"] = _scipy_import_s(done.stderr)
        if attempt or probes == 1:
            samples.append(sample)
    return samples


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "umda_lab" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'umda_lab'}; run from a umda-lab checkout", file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace)
    env = _child_env()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    load_before = os.getloadavg()
    probes = SETUP_PROBES if args.seconds >= 3 * SETUP_PROBES else 1  # one cold start for smoke-sized runs
    try:
        setup = _probe_setup(setup_config(args.workload, args.seed), probes, bool(args.trace), env, deadline)
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.is_dir() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()
    work = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = dict(work["metrics"])
    if args.trace:
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
        metrics["cli.import.scipy_stats_s"] = statistics.median(s["scipy_stats_s"] for s in setup)
        correct = work["trace_consistent"] and not work["exact_failures"]
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        correct = not work["exact_failures"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "kernels_backend": work["backend"],
            "numba_present": importlib.util.find_spec("numba") is not None,
            "git_commit": _git_commit(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "passes": work["passes"],
        "pass_wall_s": work["pass_wall_s"],
        "setup_probes": setup,
        "operations": work["operations"],
        "failed_operations": work["failed_operations"],
        "exact_failures": work["exact_failures"],
        "sha256": work["sha256"],
    }
    if args.trace:
        report["trace_consistency"] = work["trace_consistency"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
