"""The four benchmark workloads: what one pass runs and how its outputs are checked.

A pass is timed from the first call into ``experiments.run_experiment`` (or
``cli.main``) until the last bundle file is written.  The passes of one
benchmark run use master seeds derived from the benchmark seed and the pass
index.  The statistical checks pool the outputs of every pass of the run,
so a run that fits more passes checks more replications.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from umda_lab import experiments

from shapes import MARCH, NOISY, ORACLE_CALLS, STALL

# Oracle checks against an exact reference.  The others are Monte Carlo
# bounds, like the pooled acceptance checks of the other workloads.
EXACT_ORACLE_CHECKS = {"oracle chain", "oracle maxlo", "oracle chain --n 4 --lambda 4"}

STALL_WINDOW = (2500, 5000)


@dataclass
class Operation:
    """One replication or check.

    ``exact`` operations fail only when the program is wrong: a run raised, a
    bundle is incomplete, an exact reference disagrees, or deterministic
    output changed between passes.  The others are statistical acceptance
    bounds, which a correct program misses now and then on some seed.
    """

    name: str
    ok: bool
    detail: str = ""
    exact: bool = True


@dataclass
class PassOutcome:
    wall_s: float
    evals: int
    operations: list[Operation]
    outputs: dict[str, bytes] = field(default_factory=dict)


def _read_bundle(out_dir: Path) -> dict[str, bytes]:
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


class ExperimentWorkload:
    """A scenario run through ``experiments.run_experiment`` plus ``write_bundle``."""

    trace_files = False

    def __init__(self, config: dict, jobs: int) -> None:
        self.config = config
        self.jobs = jobs
        self.rows: list[tuple[int, int, bool]] = []  # (n, evals, success)

    def run_pass(self, seed: int, out_dir: Path, clock) -> PassOutcome:
        config = experiments.parse_config({**self.config, "master_seed": seed})
        expected = [(n, rep) for n in config.n_values for rep in range(config.replications)]
        start = clock()
        try:
            result = experiments.run_experiment(config, jobs=self.jobs)
            experiments.write_bundle(result, out_dir)
        except Exception as exc:  # a raising replication is a failed operation, not a crash
            failed = [Operation(f"replication n={n} r={rep} seed={seed}", False, repr(exc)) for n, rep in expected]
            return PassOutcome(clock() - start, 0, failed)
        wall = clock() - start
        bundle = _read_bundle(out_dir)
        self.rows.extend((row.n, row.evals, row.success) for row in result.rows)
        self.observe(result)
        return PassOutcome(wall, sum(row.evals for row in result.rows),
                           self._replication_ops(bundle, expected, seed), bundle)

    def _replication_ops(self, bundle: dict[str, bytes], expected, seed: int) -> list[Operation]:
        common = ["manifest.json", "runtime.csv", "plot.svg"]
        common.append("trace.csv" if self.trace_files else "fit.json")
        present_rows = set()
        if "runtime.csv" in bundle:
            reader = csv.DictReader(io.StringIO(bundle["runtime.csv"].decode()))
            present_rows = {(int(r["n"]), int(r["replication"])) for r in reader}
        ops = []
        for n, rep in expected:
            needed = common + ([f"traces/trace_n{n}_r{rep:03d}.csv"] if self.trace_files else [])
            missing = [name for name in needed if name not in bundle]
            if (n, rep) not in present_rows:
                missing.append("runtime.csv row")
            ops.append(Operation(f"replication n={n} r={rep} seed={seed}", not missing,
                                 f"missing {missing}" if missing else ""))
        return ops

    def observe(self, result) -> None:
        """Keep what the pooled checks need from one pass."""

    def _failures(self) -> int:
        return sum(not success for _, _, success in self.rows)

    def _mean_evals(self) -> dict[int, float]:
        by_n: dict[int, list[int]] = {}
        for n, evals, success in self.rows:
            if success:
                by_n.setdefault(n, []).append(evals)
        return {n: float(np.mean(v)) for n, v in sorted(by_n.items())}


class MarchWorkload(ExperimentWorkload):
    def checks(self) -> list[Operation]:
        censored = self._failures()
        means = self._mean_evals()
        ops = [Operation("march nothing censored", censored == 0, f"censored {censored}", exact=False)]
        if len(means) < 3:
            return ops + [Operation("march power fit", False, f"only {len(means)} sizes succeeded", exact=False)]
        fit = experiments.fit_power_model(list(means.items()))
        return ops + [
            Operation("march fitted b in [0.9, 2.2]", 0.9 <= fit.b <= 2.2, f"b {fit.b:.4f}", exact=False),
            Operation("march r^2 >= 0.98", fit.r_squared >= 0.98, f"r2 {fit.r_squared:.4f}", exact=False),
        ]


class NoisyWorkload(ExperimentWorkload):
    def checks(self) -> list[Operation]:
        failures = self._failures()
        means = self._mean_evals()
        ratios = [means[2 * n] / means[n] for n in (50, 100, 200) if n in means and 2 * n in means]
        ratios_ok = len(ratios) == 3 and all(2.0 <= r <= 6.0 for r in ratios)
        return [
            Operation("noisy_threads every run succeeds", failures == 0, f"failures {failures}", exact=False),
            Operation("noisy_threads doubling ratios in [2, 6]", ratios_ok,
                      "ratios " + ", ".join(f"{r:.3f}" for r in ratios), exact=False),
        ]


class StallWorkload(ExperimentWorkload):
    trace_files = True

    def __init__(self, config: dict, jobs: int) -> None:
        super().__init__(config, jobs)
        self.above_beta = 0
        self.late_means: list[float] = []
        self.tail_sum = 0.0
        self.tail_count = 0

    def observe(self, result) -> None:
        lo, hi = STALL_WINDOW
        for row, trace in zip(result.rows, result.traces):
            beta = result.params_by_n[row.n].levels.beta
            first_position = int(math.floor(beta + 2.0))
            self.above_beta += bool(np.any(trace.z_mu[100:] > beta))
            if len(trace) < hi:  # reached the optimum early; the success check counts it
                continue
            self.late_means.append(float(trace.z_mu[lo:].mean()))
            tail = trace.marginals_tail[lo:hi, first_position - trace.tail_start:]
            self.tail_sum += float(tail.sum())
            self.tail_count += tail.size

    def checks(self) -> list[Operation]:
        successes = sum(success for _, _, success in self.rows)
        z_avg = float(np.mean(self.late_means)) if self.late_means else math.nan
        tail_mean = self.tail_sum / self.tail_count if self.tail_count else math.nan
        return [
            Operation("stall no run succeeds", successes == 0, f"successes {successes}", exact=False),
            Operation("stall z_mu[100:] <= beta", self.above_beta == 0, f"{self.above_beta} traces exceed beta",
                      exact=False),
            Operation("stall time-averaged z_mu in [58.97, 78.97]", 58.97 <= z_avg <= 78.97, f"z_mu {z_avg:.3f}",
                      exact=False),
            Operation("stall tail-marginal mean in [0.45, 0.55]", 0.45 <= tail_mean <= 0.55,
                      f"mean {tail_mean:.4f} over window {STALL_WINDOW}", exact=False),
        ]


class OracleCliWorkload:
    """Every ``umda-lab oracle`` check through ``cli.main``.

    The checks are deterministic, so each counts once per benchmark run, and
    every later pass must reproduce the first pass's reports byte for byte.
    ``oracle tailmarginal`` does not return its runs, so their evaluations
    are counted by a wrapper around the ``run`` that ``experiments`` calls.
    """

    jobs = 1

    def __init__(self) -> None:
        from umda_lab import cli

        self._cli = cli
        self.first: dict[str, tuple[int, bytes]] = {}
        self.unstable: set[str] = set()
        self._evals = 0
        run = experiments.run

        def counting_run(config):
            result = run(config)
            self._evals += result.evals
            return result

        experiments.run = counting_run

    def run_pass(self, seed: int, out_dir: Path, clock) -> PassOutcome:
        outputs: dict[str, tuple[int, bytes]] = {}
        evals_before = self._evals
        start = clock()
        for argv in ORACLE_CALLS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                try:
                    code = self._cli.main(["oracle", *argv])
                except Exception as exc:  # reported as a failed check
                    code = -1
                    print(repr(exc))
            outputs["oracle " + " ".join(argv)] = (code, buffer.getvalue().encode())
        wall = clock() - start
        if not self.first:
            self.first = outputs
        self.unstable.update(name for name, output in outputs.items() if output != self.first[name])
        return PassOutcome(wall, self._evals - evals_before, [],
                           {name.replace(" ", "_") + ".json": raw for name, (_, raw) in outputs.items()})

    def checks(self) -> list[Operation]:
        ops = []
        for name, (code, raw) in self.first.items():
            try:
                report = json.loads(raw.decode().strip().splitlines()[-1])
                passed = report["passed"] is True
            except (ValueError, IndexError, KeyError, TypeError):
                report, passed = {}, False
            detail = {k: report[k] for k in ("mean", "max_tv_distance", "abs_error") if k in report}
            if name in self.unstable:
                detail["unstable"] = "output differs between passes"
            sound = bool(report) and code == (0 if passed else 1) and name not in self.unstable
            ops.append(Operation(name, passed and sound, f"exit {code} {json.dumps(detail)}",
                                 exact=name in EXACT_ORACLE_CHECKS or not sound))
        return ops


def make_workload(name: str):
    if name == "march":
        return MarchWorkload(MARCH, jobs=1)
    if name == "stall":
        return StallWorkload(STALL, jobs=1)
    if name == "noisy_threads":
        return NoisyWorkload(NOISY, jobs=2)
    return OracleCliWorkload()

