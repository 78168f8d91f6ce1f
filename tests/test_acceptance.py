"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria 7 and 8 run full scaling studies and are marked slow; they are part
of the default suite (deselect with -m "not slow" for a quick pass).  They
and the criterion-3 fixture run their replications in two worker processes;
results do not depend on the number of workers.
"""

import itertools
import json
import math

import numpy as np
import pytest

from umda_lab.cli import main as cli_main
from umda_lab.experiments import (
    ExperimentConfig,
    MuRule,
    fit_power_model,
    run_high_pressure,
    run_low_pressure,
    run_noisy_scaling,
    run_runtime_scaling,
)
from umda_lab.oracle import (
    enumerate_level_distribution,
    exact_expected_max_leading_ones,
    exact_level_chain,
    tail_marginal_frequency_test,
    total_variation,
)

MASTER_SEED = 20240


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


@pytest.fixture(scope="module")
def low_pressure_result():
    config = ExperimentConfig(
        scenario="low_pressure",
        n_values=(100,),
        replications=20,
        master_seed=MASTER_SEED,
        gamma0=0.5,
        mu_rule=MuRule("n"),
        iterations_cap=5000,
        delta=0.2,
        epsilon=0.1,
    )
    return run_low_pressure(config, jobs=2)


@pytest.fixture(scope="module")
def high_pressure_result():
    config = ExperimentConfig(
        scenario="high_pressure",
        n_values=(50, 100),
        replications=20,
        master_seed=MASTER_SEED,
        gamma0=0.1,
        mu_rule=MuRule("c_log_n", c=5.0),
    )
    return run_high_pressure(config)


def test_criterion_01_chain_equals_enumeration_on_grid():
    n, lam = 3, 4
    grid = sorted({1.0 / n, 0.5, 1.0 - 1.0 / n})
    worst = 0.0
    for marginals in itertools.product(grid, repeat=n):
        chain = exact_level_chain(marginals, lam)
        enumerated = enumerate_level_distribution(marginals, lam)
        worst = max(worst, total_variation(chain, enumerated))
    _verdict(1, "chain-vs-enumeration", worst < 1e-12, f"max TV {worst:.2e} over 27 models")


def test_criterion_02_expected_max_grows_logarithmically():
    k_values = [2**i for i in range(1, 11)]
    expectations = [exact_expected_max_leading_ones(30, k, 0.5) for k in k_values]
    slope = float(np.polyfit(np.log2(k_values), expectations, 1)[0])
    _verdict(2, "log-growth-of-best", 0.8 <= slope <= 1.2, f"slope {slope:.4f}")


def test_criterion_03_low_pressure_stall(low_pressure_result):
    result = low_pressure_result
    beta = result.params_by_n[100].levels.beta
    no_success = all(not row.success for row in result.rows)
    below_beta = sum(1 for tr in result.traces if np.all(tr.z_mu[100:] <= beta))
    in_band = sum(1 for tr in result.traces if 58.97 <= float(tr.z_mu[2500:].mean()) <= 78.97)
    ok = no_success and below_beta == 20 and in_band >= 18
    _verdict(
        3,
        "low-pressure-stall",
        ok,
        f"successes={20 - sum(not r.success for r in result.rows)}, "
        f"below-beta {below_beta}/20, in-band {in_band}/20",
    )


def test_criterion_04_no_decrease_before_first_hit(low_pressure_result):
    result = low_pressure_result
    clean = 0
    for trace, summary in zip(result.traces, result.summaries):
        if summary.tau is None:
            continue
        decreases = int(np.sum(np.diff(trace.z_mu[: summary.tau + 1]) < 0))
        clean += decreases == 0
    _verdict(4, "monotone-before-threshold", clean >= 19, f"{clean}/20 clean")


def test_criterion_05_tail_marginals_stay_neutral(low_pressure_result):
    result = low_pressure_result
    report = tail_marginal_frequency_test(
        result.traces, result.params_by_n[100].levels, window=(2500, 5000)
    )
    ok = 0.45 <= report.mean <= 0.55
    _verdict(5, "tail-marginal-neutrality", ok, f"mean {report.mean:.4f}")


def test_criterion_06_high_pressure_reaches_optimum(high_pressure_result):
    result = high_pressure_result
    successes = sum(row.success for row in result.rows)
    worst_fraction = 1.0
    for trace in result.traces:
        steps = np.diff(trace.z_mu)
        if steps.size:
            worst_fraction = min(worst_fraction, float(np.mean(steps >= 0)))
    ok = successes == len(result.rows) == 40 and worst_fraction >= 0.95
    _verdict(
        6,
        "high-pressure-success",
        ok,
        f"successes {successes}/40, worst non-decrease fraction {worst_fraction:.3f}",
    )


@pytest.mark.slow
def test_criterion_07_runtime_scaling_power_fit():
    config = ExperimentConfig(
        scenario="runtime_scaling",
        n_values=(100, 200, 300, 400, 500),
        replications=30,
        master_seed=MASTER_SEED,
        gamma0=0.1,
        mu_rule=MuRule("c_log_n", c=5.0),
    )
    result = run_runtime_scaling(config, jobs=2)
    fit = result.fit
    ok = (
        result.censored == 0
        and fit is not None
        and fit.r_squared >= 0.98
        and 0.9 <= fit.b <= 2.2
    )
    detail = (
        f"censored {result.censored}, b {fit.b:.3f}, r2 {fit.r_squared:.4f}"
        if fit is not None
        else "no fit"
    )
    _verdict(7, "runtime-scaling-fit", ok, detail)


@pytest.mark.slow
def test_criterion_08_noisy_scaling_stays_near_quadratic():
    config = ExperimentConfig(
        scenario="noisy_scaling",
        n_values=(50, 100, 200, 400),
        replications=30,
        master_seed=MASTER_SEED,
        noise_p=0.1,
    )
    result = run_noisy_scaling(config, jobs=2)
    all_succeeded = all(row.success for row in result.rows)
    means = dict(result.points)
    ratios = [means[2 * n] / means[n] for n in (50, 100, 200) if n in means and 2 * n in means]
    ratios_ok = len(ratios) == 3 and all(2.0 <= r <= 6.0 for r in ratios)
    ok = all_succeeded and ratios_ok
    _verdict(
        8,
        "noisy-quadratic-scaling",
        ok,
        f"all-success={all_succeeded}, doubling ratios {[f'{r:.2f}' for r in ratios]}",
    )


def test_criterion_09_regression_self_test():
    ns = np.array([100, 200, 300, 400, 500], dtype=float)
    exact_fit = fit_power_model(list(zip(ns, 2.0 * ns**1.5)))
    exact_ok = abs(exact_fit.a - 2.0) < 1e-9 and abs(exact_fit.b - 1.5) < 1e-9
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        y = 2.0 * ns**1.5 * (1.0 + 0.01 * rng.standard_normal(ns.size))
        noisy_fit = fit_power_model(list(zip(ns, y)))
        hits += abs(noisy_fit.b - 1.5) <= 0.05
    ok = exact_ok and hits >= 95
    _verdict(9, "regression-self-test", ok, f"exact_ok={exact_ok}, noisy hits {hits}/100")


def test_criterion_10_manifest_rerun_is_byte_identical(tmp_path, capsys):
    configs = {
        "trace": {
            "scenario": "high_pressure",
            "n_values": [30],
            "replications": 2,
            "master_seed": MASTER_SEED,
            "gamma0": 0.1,
            "mu_rule": {"kind": "c_log_n", "c": 5},
        },
        "scaling": {
            "scenario": "runtime_scaling",
            "n_values": [20, 30, 40],
            "replications": 2,
            "master_seed": MASTER_SEED,
            "gamma0": 0.1,
            "mu_rule": {"kind": "c_log_n", "c": 5},
        },
    }
    identical = True
    details = []
    for name, payload in configs.items():
        first = tmp_path / name / "first"
        second = tmp_path / name / "second"
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["experiment", str(config_path), "--out-dir", str(first)]) == 0
        assert cli_main(["experiment", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
        for csv_path in sorted(first.rglob("*.csv")):
            twin = second / csv_path.relative_to(first)
            same = twin.exists() and csv_path.read_bytes() == twin.read_bytes()
            identical = identical and same
            if not same:
                details.append(str(csv_path.name))
    capsys.readouterr()  # drop CLI chatter so the verdict line stays visible
    _verdict(10, "deterministic-reruns", identical, ",".join(details) or "all CSVs matched")
