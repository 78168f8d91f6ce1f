"""Scenario orchestration: stall and progress regimes, scaling studies, power fits.

Every experiment resolves its full parameter set (per-n population sizes,
depth thresholds, budgets, per-replication seeds) before any run starts and
records it in a manifest, so each result row is re-derivable from the
manifest alone.  Replications use independent substreams derived from the
master seed by a platform-stable counter mix.

With ``jobs > 1`` the replications run in worker processes, at most one per
replication and per CPU.  The engine's per-iteration work is many small
numpy calls that hold the interpreter lock, so threads would take turns
rather than run side by side.  Each worker holds its own copy of the model
and draws from the run's own stream, so results do not depend on ``jobs``.
A worker receives one ``UmdaConfig`` and runs ``_run_replication``, a
module-level function that calls ``run`` by global lookup: callers may
replace ``experiments.run`` with a closure (a tracing or counting wrapper),
and a closure cannot be pickled, while a module-level function is pickled by
its name.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._version import VERSION
from .engine import ENGINES, RunResult, Trace, UmdaConfig, run
from .instrumentation import ThresholdParams, TraceSummary, low_pressure_condition, summarize_trace, thresholds
from .objectives import NoiseConfig
from .reporting import RUNTIME_HEADER, TRACE_HEADER, write_csv, write_json
from .svgplot import Series, line_chart

SCENARIOS = ("low_pressure", "high_pressure", "runtime_scaling", "noisy_scaling")

# quoted vs evaluated upper bound on mu/lambda for the fast-progress regime;
# both are recorded in high-pressure manifests (the evaluated form is
# (1 - 1/n)(1 - delta)/e, which does not reproduce the quoted constant)
GAMMA_BOUND_REFERENCE = 0.1821

_SCENARIO_DELTA = {"low_pressure": 0.2, "high_pressure": 0.1, "runtime_scaling": 0.1, "noisy_scaling": 0.1}
_SCENARIO_EPSILON = {"low_pressure": 0.1}


class ConfigError(ValueError):
    """Configuration rejection carrying the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class MuRule:
    """How the parent population size is derived from the problem size."""

    kind: str  # c_log_n | sqrt_n | n | explicit
    c: Optional[float] = None
    mu: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("c_log_n", "sqrt_n", "n", "explicit"):
            raise ConfigError("mu_rule.kind", f"unknown rule {self.kind!r}")
        if self.kind == "c_log_n" and (self.c is None or self.c <= 0):
            raise ConfigError("mu_rule.c", "c_log_n requires a positive coefficient")
        if self.kind == "explicit" and (self.mu is None or self.mu < 1):
            raise ConfigError("mu_rule.mu", "explicit rule requires mu >= 1")

    def resolve(self, n: int) -> int:
        if self.kind == "c_log_n":
            return math.ceil(self.c * math.log(n))
        if self.kind == "sqrt_n":
            return round(math.sqrt(n))
        if self.kind == "n":
            return n
        return int(self.mu)

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        if self.c is not None:
            data["c"] = self.c
        if self.mu is not None:
            data["mu"] = self.mu
        return data


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n_values: tuple[int, ...]
    replications: int
    master_seed: int
    gamma0: float = 0.5
    mu_rule: MuRule = field(default_factory=lambda: MuRule(kind="c_log_n", c=5.0))
    noise_p: float = 0.0
    iterations_cap: Optional[int] = None
    evals_cap: Optional[int] = None
    delta: Optional[float] = None
    epsilon: Optional[float] = None
    out_dir: Optional[str] = None
    engine: str = "levels"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError("scenario", f"unknown scenario {self.scenario!r}")
        if self.engine not in ENGINES:
            raise ConfigError("engine", f"unknown engine {self.engine!r}; choose from {', '.join(ENGINES)}")
        if not self.n_values:
            raise ConfigError("n_values", "must be non-empty")
        if any(n < 2 for n in self.n_values):
            raise ConfigError("n_values", "every problem size must be at least 2")
        if self.replications < 1:
            raise ConfigError("replications", "must be at least 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed", "must be non-negative")
        if not 0.0 < self.gamma0 < 1.0:
            raise ConfigError("gamma0", "must lie in (0, 1)")
        if not 0.0 <= self.noise_p < 1.0:
            raise ConfigError("noise_p", "must lie in [0, 1)")
        if self.iterations_cap is not None and self.evals_cap is not None:
            raise ConfigError("iterations_cap", "set either iterations_cap or evals_cap, not both")
        for name in ("iterations_cap", "evals_cap"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(name, "must be at least 1")
        for name in ("delta", "epsilon"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ConfigError(name, "must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_values": list(self.n_values),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "gamma0": self.gamma0,
            "mu_rule": self.mu_rule.to_dict(),
            "noise_p": self.noise_p,
            "iterations_cap": self.iterations_cap,
            "evals_cap": self.evals_cap,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "out_dir": self.out_dir,
            "engine": self.engine,
        }


_FIELD_TYPES = {
    "scenario": str,
    "replications": int,
    "master_seed": int,
    "gamma0": (int, float),
    "noise_p": (int, float),
    "iterations_cap": int,
    "evals_cap": int,
    "delta": (int, float),
    "epsilon": (int, float),
    "out_dir": str,
    "engine": str,
}


def parse_config(data: dict) -> ExperimentConfig:
    """Strict JSON-dict to config conversion; unknown fields are errors."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    known = set(_FIELD_TYPES) | {"n_values", "mu_rule"}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown field")
    kwargs: dict = {}
    for name, types in _FIELD_TYPES.items():
        if name in data and data[name] is not None:
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(name, f"expected {types}, got {type(value).__name__}")
            kwargs[name] = value
    if "n_values" not in data:
        raise ConfigError("n_values", "required field missing")
    raw_n = data["n_values"]
    if not isinstance(raw_n, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw_n):
        raise ConfigError("n_values", "expected a list of integers")
    kwargs["n_values"] = tuple(raw_n)
    if "mu_rule" in data and data["mu_rule"] is not None:
        raw_rule = data["mu_rule"]
        if not isinstance(raw_rule, dict):
            raise ConfigError("mu_rule", "expected an object")
        for key in raw_rule:
            if key not in ("kind", "c", "mu"):
                raise ConfigError(f"mu_rule.{key}", "unknown field")
        if "kind" not in raw_rule:
            raise ConfigError("mu_rule.kind", "required field missing")
        kwargs["mu_rule"] = MuRule(
            kind=raw_rule["kind"],
            c=raw_rule.get("c"),
            mu=raw_rule.get("mu"),
        )
    for required in ("scenario", "replications", "master_seed"):
        if required not in kwargs:
            raise ConfigError(required, "required field missing")
    return ExperimentConfig(**kwargs)


def derive_run_seed(master_seed: int, n: int, replication: int) -> int:
    """Platform-stable substream seed from (master seed, problem size, replication)."""
    ss = np.random.SeedSequence([int(master_seed), int(n), int(replication)])
    return int(ss.generate_state(1, np.uint64)[0])


def derive_populations(n: int, gamma0: float, mu_rule: MuRule) -> tuple[int, int]:
    """Parent and offspring sizes for the pressure/scaling scenarios.

    mu comes from the rule (floored at 2), lambda = round(mu / gamma0);
    mu < lambda is enforced after rounding.
    """
    mu = max(2, mu_rule.resolve(n))
    lam = round(mu / gamma0)
    if lam <= mu:
        lam = mu + 1
    return mu, lam


def derive_noisy_populations(n: int, delta: float) -> tuple[int, int]:
    """Sizes for the noisy scaling study: lambda = ceil(n / ln n), mu = floor(lambda / (4e(1+delta)))."""
    lam = math.ceil(n / math.log(n))
    mu = max(2, math.floor(lam / (4.0 * math.e * (1.0 + delta))))
    if mu >= lam:
        raise ConfigError("n_values", f"n={n} too small for the noisy population rule")
    return mu, lam


@dataclass(frozen=True)
class ResolvedParams:
    """Fully derived per-n run parameters."""

    n: int
    lam: int
    mu: int
    max_evals: int
    iterations_cap: Optional[int]
    levels: ThresholdParams
    tail_start: Optional[int]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "mu": self.mu,
            "gamma_star": self.levels.gamma_star,
            "alpha": self.levels.alpha,
            "beta": self.levels.beta,
            "kappa": self.levels.kappa,
            "max_evals": self.max_evals,
            "iterations_cap": self.iterations_cap,
            "tail_start": self.tail_start,
        }


def _default_evals_cap(scenario: str, n: int) -> int:
    if scenario == "noisy_scaling":
        return 100 * n * n
    return 50 * n * n


def resolve_params(config: ExperimentConfig) -> list[ResolvedParams]:
    """Derive population sizes, budgets and thresholds for every problem size."""
    delta = config.delta if config.delta is not None else _SCENARIO_DELTA[config.scenario]
    epsilon = config.epsilon if config.epsilon is not None else _SCENARIO_EPSILON.get(config.scenario)
    resolved = []
    for n in config.n_values:
        if config.scenario == "noisy_scaling":
            mu, lam = derive_noisy_populations(n, delta)
        else:
            mu, lam = derive_populations(n, config.gamma0, config.mu_rule)
        levels = thresholds(n, mu / lam, delta, epsilon)
        iterations_cap = config.iterations_cap
        if config.evals_cap is not None:
            max_evals = config.evals_cap
        elif iterations_cap is not None:
            max_evals = lam * iterations_cap
        elif config.scenario == "low_pressure":
            iterations_cap = 5000
            max_evals = lam * iterations_cap
        else:
            max_evals = _default_evals_cap(config.scenario, n)
        tail_start = None
        if config.scenario == "low_pressure":
            cutoff = int(math.floor(levels.beta + 2.0))
            if cutoff < n:
                tail_start = cutoff
        resolved.append(
            ResolvedParams(
                n=n, lam=lam, mu=mu, max_evals=max_evals,
                iterations_cap=iterations_cap, levels=levels, tail_start=tail_start,
            )
        )
    return resolved


@dataclass(frozen=True)
class RunRow:
    """One replication outcome, exactly the runtime.csv row."""

    n: int
    replication: int
    seed: int
    lam: int
    mu: int
    evals: int
    iterations: int
    success: bool

    def as_csv_row(self) -> tuple:
        return (self.n, self.replication, self.seed, self.lam, self.mu,
                self.evals, self.iterations, self.success)


@dataclass(frozen=True)
class TraceExperimentResult:
    scenario: str
    rows: list[RunRow]
    traces: list[Trace]
    summaries: list[TraceSummary]
    params_by_n: dict[int, ResolvedParams]
    manifest: dict


@dataclass(frozen=True)
class PowerFit:
    """Fitted y = a * n**b with log-log goodness of fit and relative residuals."""

    a: float
    b: float
    r_squared: float
    residuals: np.ndarray


@dataclass(frozen=True)
class ScalingResult:
    scenario: str
    rows: list[RunRow]
    points: list[tuple[int, float]]
    censored: int
    fit: Optional[PowerFit]
    manifest: dict


def fit_power_model(points: Sequence[tuple[float, float]]) -> PowerFit:
    """Least squares for y = a * n**b.

    Ordinary least squares on (log n, log y) seeds (a, b); Gauss-Newton then
    refines the untransformed squared error until the relative step drops
    below 1e-10 or 100 iterations.  Needs >= 3 points, all positive.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ValueError("need at least 3 (n, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-model fitting requires positive data")
    log_x, log_y = np.log(x), np.log(y)
    b, log_a = np.polyfit(log_x, log_y, 1)
    a = math.exp(log_a)

    def sse(av: float, bv: float) -> float:
        return float(((y - av * x**bv) ** 2).sum())

    current = sse(a, b)
    for _ in range(100):
        model_y = a * x**b
        residual = y - model_y
        jacobian = np.column_stack((x**b, a * x**b * log_x))
        step, *_ = np.linalg.lstsq(jacobian, residual, rcond=None)
        scale = 1.0
        candidate = sse(a + step[0], b + step[1])
        while candidate > current and scale > 1e-12:
            scale *= 0.5
            candidate = sse(a + scale * step[0], b + scale * step[1])
        a += scale * step[0]
        b += scale * step[1]
        current = candidate
        relative = scale * math.hypot(step[0], step[1]) / max(math.hypot(a, b), 1e-300)
        if relative < 1e-10:
            break
    fitted = a * x**b
    ss_res = float(((log_y - np.log(fitted)) ** 2).sum())
    ss_tot = float(((log_y - log_y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerFit(a=float(a), b=float(b), r_squared=r_squared, residuals=(y - fitted) / fitted)


def _base_manifest(config: ExperimentConfig, resolved: Sequence[ResolvedParams]) -> dict:
    delta = config.delta if config.delta is not None else _SCENARIO_DELTA[config.scenario]
    epsilon = config.epsilon if config.epsilon is not None else _SCENARIO_EPSILON.get(config.scenario)
    return {
        "tool": "umda-lab",
        "version": VERSION,
        "scenario": config.scenario,
        "master_seed": config.master_seed,
        "config": config.to_dict(),
        "delta": delta,
        "epsilon": epsilon,
        "noise_p": config.noise_p,
        "per_n": [params.to_dict() for params in resolved],
    }


def _run_replication(config: UmdaConfig) -> RunResult:
    """One replication in a worker process; ``run`` is looked up when called."""
    return run(config)


def _execute(
    config: ExperimentConfig,
    resolved: Sequence[ResolvedParams],
    jobs: int,
    record_trace: bool,
) -> tuple[list[RunRow], list[RunResult]]:
    """Run every (n, replication) pair; results are ordered by (n, replication)."""
    if jobs < 1:
        raise ConfigError("jobs", "must be at least 1")
    noise = NoiseConfig(config.noise_p)
    by_n = {params.n: params for params in resolved}
    pairs = sorted((params.n, rep) for params in resolved for rep in range(config.replications))
    run_configs = [
        UmdaConfig(
            n=n,
            lam=by_n[n].lam,
            mu=by_n[n].mu,
            noise=noise,
            max_evals=by_n[n].max_evals,
            seed=derive_run_seed(config.master_seed, n, rep),
            record_trace=record_trace,
            track_marginals_from=by_n[n].tail_start if record_trace else None,
            engine=config.engine,
        )
        for n, rep in pairs
    ]
    workers = min(jobs, len(run_configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replication, run_configs))
    else:
        results = [run(run_config) for run_config in run_configs]
    rows = [
        RunRow(
            n=n,
            replication=rep,
            seed=run_config.seed,
            lam=run_config.lam,
            mu=run_config.mu,
            evals=result.evals,
            iterations=result.iterations,
            success=result.success,
        )
        for (n, rep), run_config, result in zip(pairs, run_configs, results)
    ]
    return rows, results


def run_low_pressure(config: ExperimentConfig, jobs: int = 1) -> TraceExperimentResult:
    """Stall regime: per-iteration depth traces over a fixed epoch.

    Warns (without aborting) when the configured pressure is too high for
    the stall condition gamma_star >= (1 + delta) / e^(1 - epsilon).
    """
    if config.scenario != "low_pressure":
        raise ConfigError("scenario", "config is not a low_pressure scenario")
    resolved = resolve_params(config)
    manifest = _base_manifest(config, resolved)
    epsilon = manifest["epsilon"]
    delta = manifest["delta"]
    condition_floor = (1.0 + delta) / math.exp(1.0 - epsilon)
    manifest["stall_condition_floor"] = condition_floor
    ok = all(low_pressure_condition(params.levels) for params in resolved)
    manifest["stall_condition_ok"] = ok
    if not ok:
        warnings.warn(
            f"selective pressure below the stall condition floor {condition_floor:.4f}; "
            "the run may make steady progress",
            stacklevel=2,
        )
    rows, results = _execute(config, resolved, jobs, record_trace=True)
    params_by_n = {params.n: params for params in resolved}
    traces = [result.trace for result in results]
    summaries = [
        summarize_trace(result.trace.z_mu, params_by_n[row.n].levels, z_star=result.trace.z_star)
        for row, result in zip(rows, results)
    ]
    return TraceExperimentResult(
        scenario=config.scenario, rows=rows, traces=traces,
        summaries=summaries, params_by_n=params_by_n, manifest=manifest,
    )


def run_high_pressure(config: ExperimentConfig, jobs: int = 1) -> TraceExperimentResult:
    """Progress regime: depth traces until the optimum or the budget."""
    if config.scenario != "high_pressure":
        raise ConfigError("scenario", "config is not a high_pressure scenario")
    resolved = resolve_params(config)
    manifest = _base_manifest(config, resolved)
    delta = manifest["delta"]
    manifest["gamma_bound_reference"] = GAMMA_BOUND_REFERENCE
    manifest["gamma_bound_evaluated"] = {
        str(params.n): (1.0 - 1.0 / params.n) * (1.0 - delta) / math.e for params in resolved
    }
    for params in resolved:
        bound = (1.0 - 1.0 / params.n) * (1.0 - delta) / math.e
        if params.levels.gamma_star > bound:
            warnings.warn(
                f"gamma_star={params.levels.gamma_star:.4f} at n={params.n} exceeds the "
                f"fast-progress bound {bound:.4f}",
                stacklevel=2,
            )
    rows, results = _execute(config, resolved, jobs, record_trace=True)
    params_by_n = {params.n: params for params in resolved}
    traces = [result.trace for result in results]
    summaries = [
        summarize_trace(result.trace.z_mu, params_by_n[row.n].levels, z_star=result.trace.z_star)
        for row, result in zip(rows, results)
    ]
    return TraceExperimentResult(
        scenario=config.scenario, rows=rows, traces=traces,
        summaries=summaries, params_by_n=params_by_n, manifest=manifest,
    )


def _scaling_points(rows: Sequence[RunRow]) -> tuple[list[tuple[int, float]], int]:
    """Mean evals per n over successful rows; failures count as censored."""
    censored = sum(1 for row in rows if not row.success)
    points = []
    for n in sorted({row.n for row in rows}):
        evals = [row.evals for row in rows if row.n == n and row.success]
        if evals:
            points.append((n, float(np.mean(evals))))
    return points, censored


def _run_scaling(config: ExperimentConfig, jobs: int) -> ScalingResult:
    resolved = resolve_params(config)
    manifest = _base_manifest(config, resolved)
    rows, _ = _execute(config, resolved, jobs, record_trace=False)
    points, censored = _scaling_points(rows)
    fit = fit_power_model(points) if len(points) >= 3 else None
    manifest["censored"] = censored
    if fit is not None:
        manifest["fit"] = {"a": fit.a, "b": fit.b, "r_squared": fit.r_squared}
    return ScalingResult(
        scenario=config.scenario, rows=rows, points=points,
        censored=censored, fit=fit, manifest=manifest,
    )


def run_runtime_scaling(config: ExperimentConfig, jobs: int = 1) -> ScalingResult:
    """Noise-free scaling table plus the fitted power model."""
    if config.scenario != "runtime_scaling":
        raise ConfigError("scenario", "config is not a runtime_scaling scenario")
    return _run_scaling(config, jobs)


def run_noisy_scaling(config: ExperimentConfig, jobs: int = 1) -> ScalingResult:
    """Scaling table under one-bit prior noise with the noisy population rule."""
    if config.scenario != "noisy_scaling":
        raise ConfigError("scenario", "config is not a noisy_scaling scenario")
    return _run_scaling(config, jobs)


def run_experiment(config: ExperimentConfig, jobs: int = 1):
    runner = {
        "low_pressure": run_low_pressure,
        "high_pressure": run_high_pressure,
        "runtime_scaling": run_runtime_scaling,
        "noisy_scaling": run_noisy_scaling,
    }[config.scenario]
    return runner(config, jobs=jobs)


def _trace_rows(trace: Trace):
    for i in range(len(trace)):
        yield (trace.t[i], trace.z_mu[i], trace.z_star[i], trace.best_true[i],
               trace.evals[i], trace.misranked[i])


def write_trace_csv(path: Path, trace: Trace) -> None:
    write_csv(path, TRACE_HEADER, _trace_rows(trace))


def write_bundle(result, out_dir: Path) -> dict[str, Path]:
    """Write manifest plus scenario CSVs (and the SVG figure) under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, result.manifest)
    paths["manifest"] = manifest_path
    runtime_path = out_dir / "runtime.csv"
    write_csv(runtime_path, RUNTIME_HEADER, (row.as_csv_row() for row in result.rows))
    paths["runtime"] = runtime_path
    if isinstance(result, TraceExperimentResult):
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        for row, trace in zip(result.rows, result.traces):
            write_trace_csv(trace_dir / f"trace_n{row.n}_r{row.replication:03d}.csv", trace)
        lead_trace = result.traces[0]
        write_trace_csv(out_dir / "trace.csv", lead_trace)
        paths["trace"] = out_dir / "trace.csv"
        lead_n = result.rows[0].n
        levels = result.params_by_n[lead_n].levels
        refs = []
        if levels.alpha is not None and levels.alpha <= 1.1 * lead_n:
            refs.append(("alpha", levels.alpha))
        if levels.beta <= 1.1 * lead_n:
            refs.append(("beta", levels.beta))
        plot_path = out_dir / "plot.svg"
        line_chart(
            plot_path,
            [
                Series("z_mu", lead_trace.t.tolist(), lead_trace.z_mu.tolist()),
                Series("z_star", lead_trace.t.tolist(), lead_trace.z_star.tolist()),
            ],
            title=f"{result.scenario} (n={lead_n}, replication 0)",
            x_label="iteration",
            y_label="leading-ones depth",
            ref_lines=refs,
        )
        paths["plot"] = plot_path
    else:
        fit_path = out_dir / "fit.json"
        fit_payload = {
            "a": result.fit.a if result.fit else None,
            "b": result.fit.b if result.fit else None,
            "r_squared": result.fit.r_squared if result.fit else None,
            "points_used": len(result.points),
            "censored": result.censored,
        }
        write_json(fit_path, fit_payload)
        paths["fit"] = fit_path
        plot_path = out_dir / "plot.svg"
        if result.points:
            xs = [float(n) for n, _ in result.points]
            ys = [y for _, y in result.points]
            series = [Series("mean evals", xs, ys, kind="points")]
            if result.fit is not None:
                grid = np.linspace(min(xs), max(xs), 100)
                series.append(Series(
                    f"{result.fit.a:.3g} * n^{result.fit.b:.3g}",
                    grid.tolist(),
                    (result.fit.a * grid**result.fit.b).tolist(),
                ))
            line_chart(plot_path, series, title=result.scenario,
                       x_label="n", y_label="evaluations")
            paths["plot"] = plot_path
    return paths
