"""Workload shapes, pinned here so that editing ``configs/`` does not change the benchmark.

This module imports nothing from the package, so the set-up probe can time
a cold import of ``umda_lab.cli`` after reading its config from here.
"""

from __future__ import annotations

NAMES = ("march", "stall", "noisy_threads", "oracle_cli")

# runtime_scaling shapes: n = 100..500, mu = ceil(5 ln n), lambda = 10 mu
MARCH = {
    "scenario": "runtime_scaling",
    "n_values": [100, 200, 300, 400, 500],
    "replications": 1,
    "gamma0": 0.1,
    "mu_rule": {"kind": "c_log_n", "c": 5},
}
# low_pressure: n = 100, lambda = 200, mu = 100, a fixed 5000 iterations
STALL = {
    "scenario": "low_pressure",
    "n_values": [100],
    "replications": 1,
    "gamma0": 0.5,
    "mu_rule": {"kind": "n"},
    "iterations_cap": 5000,
    "delta": 0.2,
    "epsilon": 0.1,
}
# noisy_scaling: p = 0.1, lambda = ceil(n / ln n) = 13..67
NOISY = {
    "scenario": "noisy_scaling",
    "n_values": [50, 100, 200, 400],
    "replications": 2,
    "noise_p": 0.1,
}
# the config `umda-lab oracle tailmarginal` builds from its CLI defaults
TAILMARGINAL_DEFAULTS = {
    "scenario": "low_pressure",
    "n_values": [100],
    "replications": 3,
    "master_seed": 0,
    "gamma0": 0.5,
    "mu_rule": {"kind": "n"},
    "iterations_cap": 1500,
}
# every oracle check at its CLI defaults, plus the 16-bit enumeration cap of `chain`
ORACLE_CALLS = (
    ("chain",),
    ("maxlo",),
    ("tailmarginal",),
    ("noise-expectation",),
    ("chain", "--n", "4", "--lambda", "4"),
)


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index`` of a benchmark run with seed ``seed``."""
    return seed * 1000 + index


def setup_config(workload: str, seed: int) -> dict:
    """The experiment config a user of this workload parses on start-up."""
    if workload == "oracle_cli":
        return dict(TAILMARGINAL_DEFAULTS)
    shape = {"march": MARCH, "stall": STALL, "noisy_threads": NOISY}[workload]
    return {**shape, "master_seed": pass_seed(seed, 0)}
