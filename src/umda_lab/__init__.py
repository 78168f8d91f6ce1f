"""Simulation lab for the univariate marginal distribution algorithm on LeadingOnes."""

from ._version import VERSION as __version__
from .engine import RunResult, Trace, UmdaConfig, run, select_parents, sort_by_fitness, update_model
from .instrumentation import (
    ThresholdParams,
    iteration_stats,
    level_counts,
    noisy_misrank_count,
    thresholds,
    z_values,
)
from .model import (
    Population,
    init_model,
    sample_population,
)
from .objectives import (
    NoiseConfig,
    evaluate_population,
    expected_noisy_fitness,
    leading_ones,
)

__all__ = [
    "__version__",
    "NoiseConfig",
    "Population",
    "RunResult",
    "ThresholdParams",
    "Trace",
    "UmdaConfig",
    "evaluate_population",
    "expected_noisy_fitness",
    "init_model",
    "iteration_stats",
    "leading_ones",
    "level_counts",
    "noisy_misrank_count",
    "run",
    "sample_population",
    "select_parents",
    "sort_by_fitness",
    "thresholds",
    "update_model",
    "z_values",
]
