"""The package names and attributes the benchmark reads must stay as it expects them.

``perfbench/tracer.py`` replaces these module attributes with timing
wrappers, and its hooks and the workloads read attributes of what they
return, so renaming or removing one breaks the benchmark without breaking
any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from umda_lab import NoiseConfig, engine, experiments, kernels, oracle
from umda_lab.experiments import ExperimentConfig, MuRule, run_experiment
from umda_lab.model import init_model, sample_population
from umda_lab.objectives import evaluate_population

WRAPPED = {
    experiments: ("run_experiment", "write_bundle", "resolve_params", "fit_power_model", "run",
                  "write_csv", "write_json", "line_chart"),
    engine: ("sample_population", "evaluate_population", "iteration_stats", "sort_by_fitness",
             "select_parents", "update_model"),
    kernels: ("sample_bits", "leading_ones_rows", "column_ones_counts"),
    oracle: ("exact_level_chain", "enumerate_level_distribution", "brute_force_expected_max_leading_ones",
             "tail_marginal_frequency_test"),
}


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracer_module = _load_tracer()
    originals = {(module, attr): getattr(module, attr) for module, attrs in WRAPPED.items() for attr in attrs}
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert kernels.BACKEND == "numpy"  # the benchmark's worker reads it


def test_benchmark_reads_its_attributes_from_real_results():
    # the ``evaluate_population`` hook on a noisy population
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    n, lam = 12, 40
    rng = np.random.default_rng(8)
    pop = evaluate_population(sample_population(init_model(n), lam, rng), NoiseConfig(0.5), rng)
    tracer_module._count_fitness(tracer, (), {}, pop)
    changed = int(np.count_nonzero(pop.fitness_noisy != pop.fitness_true))
    assert changed > 0
    assert tracer.counters["bits_read"] == float(np.minimum(pop.fitness_true + 1, n).sum())
    assert tracer.counters["bits_sampled"] == lam * n
    assert tracer.counters["objectives.noise_changed"] == changed
    # what the stall workload's ``observe`` reads from a low-pressure experiment
    config = ExperimentConfig(scenario="low_pressure", n_values=(40,), replications=2, master_seed=5,
                              gamma0=0.5, mu_rule=MuRule(kind="n"), iterations_cap=50)
    result = run_experiment(config)
    assert [row.n for row in result.rows] == [40, 40]
    for trace in result.traces:
        assert len(trace) == trace.z_mu.shape[0] == trace.marginals_tail.shape[0] == 50
        assert trace.tail_start == result.params_by_n[40].levels.tail_cutoff < 40
        assert trace.marginals_tail.shape[1] == 40 - trace.tail_start
