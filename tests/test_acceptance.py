"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria 7 and 8 run full scaling studies and are marked slow; they are part
of the default suite (deselect with -m "not slow" for a quick pass).  They
and the criterion-3 fixture run their replications in two worker processes;
results do not depend on the number of workers.
"""

import itertools
import json
import math
from typing import Optional, Sequence

import numpy as np
import pytest
from scipy.stats import chi2

from umda_lab.cli import main as cli_main
from umda_lab.engine import UmdaConfig, run
from umda_lab.experiments import (
    ExperimentConfig,
    MuRule,
    fit_power_model,
    run_experiment,
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


def first_hit(z_mu: Sequence[int], alpha: Optional[float]) -> Optional[int]:
    """First 0-indexed trace position where the depth reaches ``alpha``.

    None if the depth never reaches it, or if alpha is undefined.
    """
    if alpha is None:
        return None
    hits = np.nonzero(np.asarray(z_mu) >= alpha)[0]
    return int(hits[0]) if hits.size else None


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
    return run_experiment(config, jobs=2)


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
    return run_experiment(config)


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
    alpha = result.params_by_n[100].levels.alpha
    for trace in result.traces:
        tau = first_hit(trace.z_mu, alpha)
        if tau is None:
            continue
        decreases = int(np.sum(np.diff(trace.z_mu[: tau + 1]) < 0))
        clean += decreases == 0
    _verdict(4, "monotone-before-threshold", clean >= 19, f"{clean}/20 clean")


def test_criterion_05_tail_marginals_stay_neutral(low_pressure_result):
    result = low_pressure_result
    report = tail_marginal_frequency_test(
        result.traces, result.params_by_n[100].levels, window=(2500, 5000)
    )
    ok = 0.45 <= report.mean <= 0.55
    _verdict(5, "tail-marginal-neutrality", ok, f"mean {report.mean:.4f}")


def _wright_fisher_law(mu: int, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Law of a never-read marginal after t >= 1 updates: its distinct values and their probabilities.

    The parents' ones count of a never-read position is Binomial(mu, p) with
    p its current marginal, and the next marginal is that count over mu,
    clamped to the borders: a (mu + 1)-state clamped Wright-Fisher chain
    started from the first update's Binomial(mu, 1/2).
    """
    from scipy.stats import binom

    states = np.arange(mu + 1)
    values = np.clip(states / mu, 1.0 / n, 1.0 - 1.0 / n)
    transition = binom.pmf(states[None, :], mu, values[:, None])  # [k, k'] = P(k -> k')
    law = binom.pmf(states, mu, 0.5)
    for _ in range(t - 1):
        law = law @ transition
    distinct, state_value = np.unique(values, return_inverse=True)  # the borders merge states
    return distinct, np.bincount(state_value, weights=law)


@pytest.mark.parametrize("engine, t, runs", [
    ("levels", 50, 200),
    pytest.param("levels", 200, 200, marks=pytest.mark.slow),
    ("bits", 50, 60),
])
def test_never_read_marginals_follow_the_wright_fisher_law(engine, t, runs):
    # Without noise bit j is read only by an individual with at least j
    # leading ones, so every position above the largest best_true of
    # iterations 0..t-1 was never read and its marginal at iteration t
    # follows the neutral chain.  Criterion 5's band cannot see a biased
    # update that keeps the mean near 1/2; this chi-square test can.
    n, lam, mu, level = 100, 200, 100, 1e-3
    observed = []
    for replication in range(runs):
        config = UmdaConfig(n=n, lam=lam, mu=mu, max_evals=lam * (t + 1), seed=MASTER_SEED + replication,
                            track_marginals_from=0, engine=engine)
        trace = run(config).trace
        assert trace.t[t] == t
        observed.append(trace.marginals_tail[t, int(trace.best_true[:t].max()) + 1:])
    values, law = _wright_fisher_law(mu, n, t)
    flat = np.concatenate(observed)
    assert np.isin(flat, values).all()  # every marginal is a state of the chain, bit for bit
    counts = np.bincount(np.searchsorted(values, flat), minlength=values.size)
    expected = law * flat.size
    rare = expected < 5  # pooled into one bin
    f_obs, f_exp = counts[~rare], expected[~rare]
    if rare.any():
        f_obs, f_exp = np.append(f_obs, counts[rare].sum()), np.append(f_exp, expected[rare].sum())
    statistic = float(((f_obs - f_exp) ** 2 / f_exp).sum())
    p_value = float(chi2.sf(statistic, f_obs.size - 1))
    print(f"never-read marginals {engine} T={t}: {flat.size} values, chi2 {statistic:.1f} "
          f"on {f_obs.size - 1} df, p {p_value:.3f}")
    assert p_value >= level


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
    result = run_experiment(config, jobs=2)
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
    result = run_experiment(config, jobs=2)
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
