"""The package names the benchmark's tracer wraps must resolve, and be restored on uninstall.

``perfbench/tracer.py`` replaces these module attributes with timing
wrappers, so renaming or removing one breaks the benchmark without breaking
any other test.
"""

import importlib.util
from pathlib import Path

from umda_lab import engine, experiments, kernels, oracle

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
