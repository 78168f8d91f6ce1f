"""In-memory span recorder that wraps umda_lab functions from outside.

Each wrapper is installed at the name its caller looks up (for example
``umda_lab.engine.sample_population``, the name ``engine.run`` calls), so the
package itself is unchanged.  Spans are aggregated as they close: per name,
the total time and the self time (duration minus the direct child spans on
the same thread).  Counters are updated by per-wrapper hooks that run after
the span has closed, so their cost lands in the parent span only.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, after=None, keep_durations: bool = False) -> None:
        """Replace ``module.attr`` with a timing wrapper recorded as ``name``.

        ``after(tracer, args, kwargs, result)`` runs once the span is closed.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    self.total_s[name] += duration
                    self.self_s[name] += duration - frame[0]
                    if keep_durations:
                        self.durations[name].append(duration)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# The phases ``engine.run`` calls directly, in loop order.
PHASES = (
    "model.sample_population",
    "objectives.evaluate_population",
    "instrumentation.iteration_stats",
    "engine.sort_by_fitness",
    "engine.select_parents",
    "engine.update_model",
)


def _count_uniforms(tracer, args, kwargs, result) -> None:
    model, size = args[0], args[1]
    tracer.count("model.uniform_bytes", size * model.n * 8)


def _count_fitness(tracer, args, kwargs, result) -> None:
    n = result.n
    tracer.count("bits_read", float(np.minimum(result.fitness_true + 1, n).sum()))
    tracer.count("bits_sampled", result.size * n)
    tracer.count("objectives.noise_changed", int(np.count_nonzero(result.fitness_noisy != result.fitness_true)))


def _count_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("reporting.bytes_written", Path(args[0]).stat().st_size)


def _count_level_outcomes(tracer, args, kwargs, result) -> None:
    marginals, size = args[0], args[1]
    tracer.count("oracle.outcomes_enumerated", 2 ** (size * len(marginals)))


def _count_max_outcomes(tracer, args, kwargs, result) -> None:
    n, k = args[0], args[1]
    tracer.count("oracle.outcomes_enumerated", 2 ** (n * k))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross, at the caller's name."""
    from umda_lab import engine, experiments, kernels

    tracer.wrap(experiments, "run_experiment", "experiments.run_experiment")
    tracer.wrap(experiments, "write_bundle", "experiments.write_bundle")
    tracer.wrap(experiments, "resolve_params", "experiments.resolve_params")
    tracer.wrap(experiments, "fit_power_model", "experiments.fit_power_model")
    tracer.wrap(experiments, "run", "engine.run", keep_durations=True)
    tracer.wrap(experiments, "write_csv", "reporting.write_csv", after=_count_bytes)
    tracer.wrap(experiments, "write_json", "reporting.write_json", after=_count_bytes)
    tracer.wrap(experiments, "line_chart", "svgplot.line_chart")
    tracer.wrap(engine, "sample_population", "model.sample_population", after=_count_uniforms)
    tracer.wrap(engine, "evaluate_population", "objectives.evaluate_population", after=_count_fitness)
    tracer.wrap(engine, "iteration_stats", "instrumentation.iteration_stats")
    tracer.wrap(engine, "sort_by_fitness", "engine.sort_by_fitness")
    tracer.wrap(engine, "select_parents", "engine.select_parents")
    tracer.wrap(engine, "update_model", "engine.update_model")
    for name in ("sample_bits", "leading_ones_rows", "column_ones_counts"):
        tracer.wrap(kernels, name, f"kernels.{name}")
    oracle = sys.modules.get("umda_lab.oracle")  # loaded only by the workloads that use it
    if oracle is not None:
        tracer.wrap(oracle, "exact_level_chain", "oracle.exact_level_chain")
        tracer.wrap(oracle, "enumerate_level_distribution", "oracle.enumerate_level_distribution",
                    after=_count_level_outcomes)
        tracer.wrap(oracle, "brute_force_expected_max_leading_ones", "oracle.brute_force_expected_max_leading_ones",
                    after=_count_max_outcomes)
        tracer.wrap(oracle, "tail_marginal_frequency_test", "oracle.tail_marginal_frequency_test")


def layer_metrics(tracer: Tracer, passes: int, jobs: int) -> dict[str, float]:
    """Per-layer values per traced pass (times in s), plus whole-run ratios."""
    total, own, counters = tracer.total_s, tracer.self_s, tracer.counters
    metrics = {
        f"{name}.s": total[name] / passes
        for name in (
            "model.sample_population", "kernels.sample_bits", "kernels.leading_ones_rows",
            "kernels.column_ones_counts", "objectives.evaluate_population",
            "instrumentation.iteration_stats", "engine.sort_by_fitness", "engine.select_parents",
            "engine.update_model", "engine.run", "experiments.write_bundle", "reporting.write_csv",
            "svgplot.line_chart", "experiments.fit_power_model", "experiments.resolve_params",
            "oracle.exact_level_chain", "oracle.enumerate_level_distribution",
            "oracle.brute_force_expected_max_leading_ones", "oracle.tail_marginal_frequency_test",
        )
    }
    metrics["model.rng_draw_s"] = own["model.sample_population"] / passes
    metrics["objectives.evaluate_population.self_s"] = own["objectives.evaluate_population"] / passes
    metrics["engine.run.self_s"] = own["engine.run"] / passes
    runs = tracer.durations["engine.run"]
    metrics["engine.run.p50_s"] = statistics.median(runs) if runs else 0.0
    metrics["engine.run.samples"] = len(runs)
    phases = sum(total[name] for name in PHASES)
    metrics["engine.run.phase_coverage"] = phases / total["engine.run"] if runs else 0.0
    for name in ("model.uniform_bytes", "objectives.noise_changed", "reporting.bytes_written",
                 "oracle.outcomes_enumerated"):
        metrics[name] = counters[name] / passes
    sampled = counters["bits_sampled"]
    metrics["model.bits_read_ratio"] = counters["bits_read"] / sampled if sampled else 0.0
    experiment_wall = total["experiments.run_experiment"]
    metrics["experiments.busy_ratio"] = total["engine.run"] / (jobs * experiment_wall) if experiment_wall else 0.0
    return metrics


def phase_consistency(tracer: Tracer) -> tuple[bool, str]:
    """Check that the phase spans plus ``engine.run`` self time add up to ``engine.run``.

    Self time is measured per span from its direct children, while the phase
    totals are summed by name, so the two agree only if the phases are
    exactly the children of ``engine.run`` and no span is counted twice.
    """
    run_total = tracer.total_s["engine.run"]
    phases = sum(tracer.total_s[name] for name in PHASES)
    self_time = tracer.self_s["engine.run"]
    gap = abs(phases + self_time - run_total)
    ok = gap <= 1e-6 * max(1.0, run_total) and self_time >= 0.0 and phases <= run_total
    return ok, f"phases {phases:.6f} s + self {self_time:.6f} s vs engine.run {run_total:.6f} s"
