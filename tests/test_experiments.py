import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from umda_lab import experiments
from umda_lab.experiments import (
    ConfigError,
    ExperimentConfig,
    MuRule,
    derive_noisy_populations,
    derive_populations,
    derive_run_seed,
    fit_power_model,
    parse_config,
    resolve_params,
    run_experiment,
    run_high_pressure,
    run_low_pressure,
    run_runtime_scaling,
    write_bundle,
)


def _config(**overrides):
    base = dict(
        scenario="low_pressure",
        n_values=(30,),
        replications=1,
        master_seed=7,
        gamma0=0.5,
        mu_rule=MuRule("n"),
        iterations_cap=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- configuration ---------------------------------------------------------

def test_config_roundtrip_through_json_dict():
    config = _config()
    assert parse_config(config.to_dict()) == config


def test_engine_field_defaults_to_levels_and_is_validated():
    config = _config()
    assert config.engine == "levels"
    assert config.to_dict()["engine"] == "levels"
    assert parse_config({**config.to_dict(), "engine": "bits"}).engine == "bits"
    with pytest.raises(ConfigError) as exc:
        parse_config({**config.to_dict(), "engine": "qubits"})
    assert exc.value.path == "engine"


def test_manifest_records_engine_and_replays_it():
    depths = {}
    for engine in ("levels", "bits"):
        result = run_high_pressure(_config(scenario="high_pressure", gamma0=0.1, engine=engine))
        assert result.manifest["config"]["engine"] == engine
        replay = run_high_pressure(parse_config(result.manifest["config"]))
        assert replay.rows == result.rows
        np.testing.assert_array_equal(replay.traces[0].z_mu, result.traces[0].z_mu)
        depths[engine] = result.traces[0].z_mu.tolist()
    assert depths["levels"] != depths["bits"]


def test_unknown_field_reports_path():
    with pytest.raises(ConfigError) as exc:
        parse_config({"scenario": "low_pressure", "n_values": [10], "replications": 1,
                      "master_seed": 0, "scenaro": "oops"})
    assert exc.value.path == "scenaro"


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config({"scenario": "warp", "n_values": [10], "replications": 1, "master_seed": 0})
    assert exc.value.path == "scenario"


def test_zero_replications_rejected():
    with pytest.raises(ConfigError):
        _config(replications=0)


def test_both_caps_rejected():
    with pytest.raises(ConfigError):
        _config(iterations_cap=5, evals_cap=100)


def test_mu_rule_validation():
    with pytest.raises(ConfigError):
        MuRule("c_log_n", c=0)
    with pytest.raises(ConfigError):
        MuRule("explicit")
    with pytest.raises(ConfigError):
        MuRule("quadratic")
    with pytest.raises(ConfigError):
        parse_config({"scenario": "low_pressure", "n_values": [10], "replications": 1,
                      "master_seed": 0, "mu_rule": {"kind": "c_log_n", "coefficient": 5}})


def test_type_errors_report_field():
    with pytest.raises(ConfigError) as exc:
        parse_config({"scenario": "low_pressure", "n_values": "ten", "replications": 1, "master_seed": 0})
    assert exc.value.path == "n_values"


# --- parameter derivation --------------------------------------------------

def test_sqrt_rule_at_n100():
    assert derive_populations(100, 0.5, MuRule("sqrt_n")) == (10, 20)


def test_log_rule_at_n100_high_pressure():
    mu, lam = derive_populations(100, 0.1, MuRule("c_log_n", c=5.0))
    assert mu == math.ceil(5 * math.log(100)) == 24
    assert lam == 10 * mu


def test_full_population_rule():
    assert derive_populations(100, 0.5, MuRule("n")) == (100, 200)


def test_explicit_rule_and_floors():
    assert derive_populations(50, 0.5, MuRule("explicit", mu=7)) == (7, 14)
    # mu floored at 2, lambda forced above mu
    assert derive_populations(2, 0.99, MuRule("explicit", mu=1)) == (2, 3)


def test_noisy_population_rule():
    assert derive_noisy_populations(100, 0.1) == (2, 22)  # ceil(100 / ln 100) = 22
    assert derive_noisy_populations(50, 0.1) == (2, 13)
    assert derive_noisy_populations(400, 0.1) == (5, 67)


def test_derived_seeds_are_stable_and_distinct():
    seeds = {derive_run_seed(7, n, r) for n in (10, 20) for r in range(50)}
    assert len(seeds) == 100
    assert derive_run_seed(7, 10, 3) == derive_run_seed(7, 10, 3)


def test_resolved_manifest_threshold_values():
    config = _config(n_values=(100,), iterations_cap=5000)
    params = resolve_params(config)[0]
    assert params.lam == 200 and params.mu == 100
    assert params.levels.alpha == pytest.approx(46.76496746941952, abs=1e-9)
    assert params.levels.beta == pytest.approx(87.10840613837745, abs=1e-9)
    assert params.max_evals == 200 * 5000
    assert params.tail_start == 89


# --- power-model fitting ---------------------------------------------------

def test_fit_recovers_exact_power_law():
    ns = np.array([100, 200, 300, 400, 500], dtype=float)
    fit = fit_power_model(list(zip(ns, 2.0 * ns**1.5)))
    assert fit.a == pytest.approx(2.0, abs=1e-9)
    assert fit.b == pytest.approx(1.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(fit.residuals) < 1e-9)


def test_fit_constant_data():
    fit = fit_power_model([(10, 7.0), (20, 7.0), (40, 7.0)])
    assert fit.a == pytest.approx(7.0, abs=1e-9)
    assert fit.b == pytest.approx(0.0, abs=1e-9)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_power_model([(1, 1.0), (2, 2.0)])
    with pytest.raises(ValueError):
        fit_power_model([(1, 1.0), (2, -2.0), (3, 3.0)])


def test_fit_recovers_exponent_under_mild_noise():
    rng = np.random.default_rng(51)
    ns = np.array([100, 200, 300, 400, 500], dtype=float)
    y = 3.0 * ns**1.4 * (1.0 + 0.01 * rng.standard_normal(5))
    fit = fit_power_model(list(zip(ns, y)))
    assert abs(fit.b - 1.4) < 0.05
    assert fit.r_squared > 0.99


def test_fit_scale_consistency():
    rng = np.random.default_rng(52)
    ns = np.array([50, 120, 260, 470], dtype=float)
    y = 1.7 * ns**1.9 * (1.0 + 0.02 * rng.standard_normal(4))
    base = fit_power_model(list(zip(ns, y)))
    scaled = fit_power_model(list(zip(ns, 37.0 * y)))
    assert scaled.a == pytest.approx(37.0 * base.a, rel=1e-9)
    assert scaled.b == pytest.approx(base.b, rel=1e-9)


# --- experiment runners ----------------------------------------------------

def test_low_pressure_warns_when_pressure_too_high():
    config = _config(gamma0=0.3, n_values=(30,), iterations_cap=3)
    with pytest.warns(UserWarning, match="stall condition"):
        result = run_low_pressure(config)
    assert result.manifest["stall_condition_ok"] is False
    assert len(result.rows) == 1


def test_low_pressure_traces_and_rows():
    config = _config(n_values=(30,), replications=2, iterations_cap=20)
    result = run_low_pressure(config)
    assert len(result.rows) == len(result.traces) == len(result.summaries) == 2
    for row, trace in zip(result.rows, result.traces):
        assert row.evals == row.lam * row.iterations
        assert np.all(trace.z_mu <= trace.z_star)
        assert np.all(trace.z_star <= 30)
    assert result.manifest["per_n"][0]["alpha"] is not None


def test_high_pressure_manifest_records_both_bounds():
    config = ExperimentConfig(
        scenario="high_pressure", n_values=(40,), replications=2, master_seed=3,
        gamma0=0.1, mu_rule=MuRule("c_log_n", c=5.0),
    )
    result = run_high_pressure(config)
    assert result.manifest["gamma_bound_reference"] == 0.1821
    evaluated = result.manifest["gamma_bound_evaluated"]["40"]
    assert evaluated == pytest.approx((1 - 1 / 40) * 0.9 / math.e, rel=1e-12)
    assert all(row.success for row in result.rows)


def test_runtime_scaling_row_count_and_monotone_means():
    config = ExperimentConfig(
        scenario="runtime_scaling", n_values=(30, 60, 90), replications=3,
        master_seed=11, gamma0=0.1, mu_rule=MuRule("c_log_n", c=5.0),
    )
    result = run_runtime_scaling(config)
    assert len(result.rows) == 9
    assert result.censored == 0
    means = [y for _, y in result.points]
    assert means == sorted(means)  # growth with n, observed not forced
    assert result.fit is not None


def test_runtime_scaling_censoring_reported():
    # a one-population budget cannot reach the optimum at these sizes
    config = ExperimentConfig(
        scenario="runtime_scaling", n_values=(30, 40, 50), replications=2,
        master_seed=12, gamma0=0.1, mu_rule=MuRule("c_log_n", c=5.0), evals_cap=200,
    )
    result = run_runtime_scaling(config)
    assert result.censored == 6
    assert result.points == []
    assert result.fit is None
    assert all(not row.success for row in result.rows)


def _bundle_bytes(result, out_dir):
    write_bundle(result, out_dir)
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


_LOW_PRESSURE = _config(n_values=(30,), replications=3, iterations_cap=60)
_NOISY = ExperimentConfig(scenario="noisy_scaling", n_values=(20, 30, 40), replications=2,
                          master_seed=14, noise_p=0.2)


def test_jobs_do_not_change_results(tmp_path):
    config = ExperimentConfig(
        scenario="high_pressure", n_values=(30,), replications=4, master_seed=13,
        gamma0=0.1, mu_rule=MuRule("c_log_n", c=5.0),
    )
    serial = run_high_pressure(config, jobs=1)
    parallel = run_high_pressure(config, jobs=4)
    assert serial.rows == parallel.rows
    for a, b in zip(serial.traces, parallel.traces):
        np.testing.assert_array_equal(a.z_mu, b.z_mu)
    bundles, results = {}, {}
    for name, config in (("low", _LOW_PRESSURE), ("noisy", _NOISY)):
        serial, parallel = run_experiment(config, jobs=1), run_experiment(config, jobs=2)
        bundles[name] = _bundle_bytes(serial, tmp_path / name / "serial")
        assert _bundle_bytes(parallel, tmp_path / name / "parallel") == bundles[name]
        results[name] = (serial, parallel)
    assert "traces/trace_n30_r002.csv" in bundles["low"] and "fit.json" in bundles["noisy"]
    for a, b in zip(*(result.traces for result in results["low"])):  # marginal tails are in no bundle file
        assert a.marginals_tail is not None
        np.testing.assert_array_equal(a.marginals_tail, b.marginals_tail)


def test_workers_call_run_by_its_module_name(monkeypatch):
    """A closure installed as ``experiments.run`` (as tracers do) is never pickled."""
    expected = run_experiment(_NOISY, jobs=1).rows
    original = experiments.run
    monkeypatch.setattr(experiments, "run", lambda config: original(config))
    assert run_experiment(_NOISY, jobs=2).rows == expected


def test_workers_started_by_spawn_give_the_same_rows(monkeypatch):
    """Workers that import the package afresh, as on platforms that do not fork."""
    expected = run_experiment(_NOISY, jobs=1).rows
    spawn = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", spawn)
    assert run_experiment(_NOISY, jobs=2).rows == expected


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run reaches the workers only when they are forked")
def test_worker_exception_reaches_the_caller(monkeypatch):
    parent = os.getpid()
    original = experiments.run

    def failing_run(config):
        if os.getpid() != parent and config.n == 30:
            raise RuntimeError(f"replication failed in worker {os.getpid()}")
        return original(config)

    monkeypatch.setattr(experiments, "run", failing_run)
    with pytest.raises(RuntimeError, match="replication failed in worker"):
        run_experiment(_NOISY, jobs=2)


class _InlinePool:
    """Records the requested pool size and runs the work in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, replications, expected", [
    (100_000, 2, 3, 2),  # capped at the CPU count
    (100_000, 64, 3, 3),  # capped at the replication count
    (2, 64, 3, 2),
    (4, None, 3, None),  # unknown CPU count: one worker, in this process
    (4, 64, 1, None),  # a single replication runs in this process
])
def test_pool_size_is_bounded(monkeypatch, jobs, cpus, replications, expected):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    config = _config(replications=replications)
    rows = run_low_pressure(config, jobs=jobs).rows
    assert _InlinePool.sizes == ([] if expected is None else [expected])
    assert rows == run_low_pressure(config, jobs=1).rows


def test_jobs_below_one_rejected():
    with pytest.raises(ConfigError) as exc:
        run_low_pressure(_config(), jobs=0)
    assert exc.value.path == "jobs"
