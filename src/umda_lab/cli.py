"""Command-line entry point: single runs, experiment bundles, oracle checks.

Exit status 0 means no error and, for oracle checks, that every check
passed; configuration and usage problems exit with 2 and name the violated
invariant.  The environment variable ``UMDA_LAB_SEED`` overrides the master
seed of an experiment config when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import oracle
from ._version import VERSION
from .engine import ENGINES, UmdaConfig, run, step
from .experiments import (
    ConfigError,
    ExperimentConfig,
    MuRule,
    parse_config,
    resolve_params,
    run_experiment,
    write_bundle,
    write_trace_csv,
)
from .model import init_model
from .objectives import NoiseConfig, expected_noisy_fitness, leading_ones, noisy_leading_ones_batch

# ``oracle noise-expectation`` scores ``samples`` draws of one n-bit string
# through a broadcast view, so no per-sample copy of the string is made.  The
# cap budgets 2n + 32 bytes per sample, more than the peak needs.  The 2n term
# is slack: the noisy rows are copied in bounded blocks, so no copy grows with
# ``samples``.  The four 8-byte entries cover the coin, the true and noisy
# score, and a statistics temporary.  The formula is kept so the set of
# accepted requests does not change.  Requests above the cap are rejected
# before anything is allocated.
NOISE_SAMPLE_MAX_BYTES = 2**27


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umda-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"umda-lab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single run and print a summary line")
    p_run.add_argument("--n", type=int, required=True, help="problem size")
    p_run.add_argument("--lambda", dest="lam", type=int, required=True, help="offspring population size")
    p_run.add_argument("--mu", type=int, required=True, help="parent population size")
    p_run.add_argument("--noise-p", type=float, default=0.0, help="bit-flip noise probability")
    p_run.add_argument("--max-evals", type=int, default=None, help="evaluation budget (default 100*n^2)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--engine", choices=ENGINES, default="levels",
                       help="level-count engine (default) or the bit-level reference")
    p_run.add_argument("--trace", action="store_true", help="write trace.csv to the output directory")
    p_run.add_argument("--out-dir", type=Path, default=Path("."))

    p_exp = sub.add_parser("experiment", help="run a scenario from a JSON config (or a manifest)")
    p_exp.add_argument("config", type=Path, help="path to the experiment config JSON")
    p_exp.add_argument("--out-dir", type=Path, default=None, help="override the config output directory")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for replications, each with its own copy of the model "
                            "(capped at the replication and CPU counts); results do not depend on it")

    p_oracle = sub.add_parser("oracle", help="run an exact-reference check")
    p_oracle.add_argument("check", choices=("chain", "maxlo", "tailmarginal", "noise-expectation", "transition"))
    p_oracle.add_argument("--n", type=int, default=None)
    p_oracle.add_argument("--lambda", dest="lam", type=int, default=4)
    p_oracle.add_argument("--mu", type=int, default=2)
    p_oracle.add_argument("--k", type=int, default=2)
    p_oracle.add_argument("--q", type=float, default=0.5)
    p_oracle.add_argument("--p", type=float, default=0.3)
    p_oracle.add_argument("--samples", type=int, default=None,
                          help="Monte Carlo samples (default 200000 for noise-expectation, 20000 per engine for transition)")
    p_oracle.add_argument("--reps", type=int, default=3)
    p_oracle.add_argument("--iterations", type=int, default=1500)
    p_oracle.add_argument("--gamma0", type=float, default=0.5)
    p_oracle.add_argument("--seed", type=int, default=0)
    return parser


def _make_out_dir(path: Path) -> None:
    """Create the output directory before any run starts, so an unusable path costs no work."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot create directory: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = UmdaConfig(
        n=args.n,
        lam=args.lam,
        mu=args.mu,
        noise=NoiseConfig(args.noise_p),
        max_evals=args.max_evals,
        seed=args.seed,
        record_trace=args.trace,
        engine=args.engine,
    )
    if args.trace:
        _make_out_dir(args.out_dir)
    result = run(config)
    if args.trace:
        write_trace_csv(args.out_dir / "trace.csv", result.trace)
    print(
        f"n={args.n} lambda={args.lam} mu={args.mu} noise_p={args.noise_p} seed={args.seed} "
        f"success={int(result.success)} evals={result.evals} iterations={result.iterations} "
        f"best_true={result.best_true}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        data = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    if isinstance(data, dict) and "config" in data and "tool" in data:
        data = data["config"]  # a manifest replays its embedded config
    config = parse_config(data)
    env_seed = os.environ.get("UMDA_LAB_SEED")
    if env_seed is not None:
        try:
            master_seed = int(env_seed)
        except ValueError:
            raise ConfigError("UMDA_LAB_SEED", f"expected an integer, got {env_seed!r}") from None
        config = dataclasses.replace(config, master_seed=master_seed)
    out_dir = args.out_dir if args.out_dir is not None else (
        Path(config.out_dir) if config.out_dir else None
    )
    if out_dir is None:
        print("error: out_dir: set it in the config or pass --out-dir", file=sys.stderr)
        return 2
    if args.jobs < 1:  # checked here too, so a rejected call leaves no directory behind
        raise ConfigError("jobs", "must be at least 1")
    _make_out_dir(out_dir)
    result = run_experiment(config, jobs=args.jobs)
    paths = write_bundle(result, out_dir)
    successes = sum(1 for row in result.rows if row.success)
    print(f"scenario={config.scenario} runs={len(result.rows)} successes={successes}")
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _oracle_chain(args: argparse.Namespace) -> dict:
    n = args.n if args.n is not None else 3
    if n < 2:
        raise ValueError(f"problem size must be at least 2, got {n}")
    lam = args.lam
    lo, hi = 1.0 / n, 1.0 - 1.0 / n
    grid_values = sorted({lo, 0.5, hi})
    models: list[tuple[float, ...]]
    if len(grid_values) ** n * 2 ** (lam * n) <= 2**22:
        import itertools

        models = [tuple(m) for m in itertools.product(grid_values, repeat=n)]
    else:
        models = [tuple([0.5] * n)]
    worst = 0.0
    for marginals in models:
        chain = oracle.exact_level_chain(marginals, lam)
        enumerated = oracle.enumerate_level_distribution(marginals, lam)
        worst = max(worst, oracle.total_variation(chain, enumerated))
    return {
        "check": "chain",
        "n": n,
        "lambda": lam,
        "models": len(models),
        "max_tv_distance": worst,
        "threshold": 1e-12,
        "passed": bool(worst < 1e-12),
    }


def _oracle_maxlo(args: argparse.Namespace) -> dict:
    n = args.n if args.n is not None else 3
    if n * args.k > oracle.ENUMERATION_MAX_BITS:
        raise ValueError(
            f"infeasible enumeration: n*k={n * args.k} bits (cap {oracle.ENUMERATION_MAX_BITS})"
        )
    value = oracle.exact_expected_max_leading_ones(n, args.k, args.q)
    brute = oracle.brute_force_expected_max_leading_ones(n, args.k, args.q)
    return {
        "check": "maxlo",
        "n": n,
        "k": args.k,
        "q": args.q,
        "value": value,
        "brute_force": brute,
        "abs_error": abs(value - brute),
        "passed": abs(value - brute) < 1e-12,
    }


def _oracle_tailmarginal(args: argparse.Namespace) -> dict:
    n = args.n if args.n is not None else 100
    config = ExperimentConfig(
        scenario="low_pressure",
        n_values=(n,),
        replications=args.reps,
        master_seed=args.seed,
        gamma0=args.gamma0,
        mu_rule=MuRule(kind="n"),
        iterations_cap=args.iterations,
    )
    (params,) = resolve_params(config)
    if params.tail_start is None:
        raise ValueError(f"n={n} leaves no tail: floor(beta + 2) = {params.levels.tail_cutoff} >= n")
    result = run_experiment(config)
    report_obj = oracle.tail_marginal_frequency_test(result.traces, result.params_by_n[n].levels)
    passed = 0.45 <= report_obj.mean <= 0.55
    return {
        "check": "tailmarginal",
        "n": n,
        "replications": args.reps,
        "iterations": args.iterations,
        "mean": report_obj.mean,
        "ci": [report_obj.ci_low, report_obj.ci_high],
        "band": [0.45, 0.55],
        "samples": report_obj.n_samples,
        "passed": passed,
    }


def _oracle_noise_expectation(args: argparse.Namespace) -> dict:
    n = args.n if args.n is not None else 20
    samples = args.samples if args.samples is not None else 200_000
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if samples * (2 * n + 32) > NOISE_SAMPLE_MAX_BYTES:
        raise ValueError(f"infeasible sample: {samples} samples of n={n} bits (cap {NOISE_SAMPLE_MAX_BYTES} bytes)")
    rng = np.random.default_rng(args.seed)
    bits = (rng.random(n) < init_model(n)).astype(np.uint8)
    noise = NoiseConfig(args.p)
    exact = expected_noisy_fitness(bits, noise)
    rows = np.broadcast_to(bits, (samples, n))
    true_fit = np.broadcast_to(np.int64(leading_ones(bits)), (samples,))
    scores = noisy_leading_ones_batch(rows, true_fit, noise, rng)
    mean = float(scores.mean())
    se = float(scores.std(ddof=1)) / math.sqrt(samples)
    passed = abs(mean - exact) <= 3.0 * se if se > 0 else mean == exact
    return {
        "check": "noise-expectation",
        "n": n,
        "p": args.p,
        "samples": samples,
        "exact": exact,
        "monte_carlo_mean": mean,
        "standard_error": se,
        "abs_error": abs(mean - exact),
        "passed": passed,
    }


def _oracle_transition(args: argparse.Namespace) -> dict:
    n = args.n if args.n is not None else 3
    samples = args.samples if args.samples is not None else 20_000
    if samples < 1:
        raise ValueError("samples must be at least 1")
    oracle.transition_outcomes(n, args.lam, args.p)  # reject infeasible sizes before allocating
    configs = {engine: UmdaConfig(n=n, lam=args.lam, mu=args.mu, noise=NoiseConfig(args.p), engine=engine)
               for engine in ENGINES}  # reject invalid runs before enumerating
    marginals = np.linspace(1.0 - 1.0 / n, 1.0 / n, n)
    exact = oracle.exact_transition(marginals, args.lam, args.mu, args.p)
    engines = {}
    for engine, config in configs.items():
        rng = np.random.default_rng(args.seed)
        comparison = oracle.check_transition(lambda: step(marginals, config, rng)[2], exact, samples)
        engines[engine] = {
            "tv_distance": comparison.tv_distance,
            "chi_square": comparison.chi_square,
            "chi_square_critical": comparison.chi_square_critical,
            "passed": comparison.passed,
        }
    return {
        "check": "transition",
        "n": n,
        "lambda": args.lam,
        "mu": args.mu,
        "p": args.p,
        "marginals": marginals.tolist(),
        "outcomes": len(exact.support),
        "samples": samples,
        "tv_threshold": oracle.transition_tv_threshold(exact, samples),
        "engines": engines,
        "max_tv_distance": max(report["tv_distance"] for report in engines.values()),
        "passed": all(report["passed"] for report in engines.values()),
    }


def _cmd_oracle(args: argparse.Namespace) -> int:
    handler = {
        "chain": _oracle_chain,
        "maxlo": _oracle_maxlo,
        "tailmarginal": _oracle_tailmarginal,
        "noise-expectation": _oracle_noise_expectation,
        "transition": _oracle_transition,
    }[args.check]
    report = handler(args)
    print(json.dumps(report))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_oracle(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
