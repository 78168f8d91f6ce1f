"""Per-iteration analysis quantities and the closed-form level thresholds.

Level counts and the derived depths are always computed from *true* fitness,
also in noisy runs, so they keep their meaning when selection is misled by
noise.  ``C[i-1]`` (0-based) counts individuals with at least ``i`` leading
ones; ``D[i-1]`` counts those with exactly ``i-1`` leading ones followed by a
zero, with ``D[0]`` counting the zero-prefix individuals.  Each
per-population function takes the 1-d score array of one population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ThresholdParams:
    """Analytic depth thresholds for selective pressure gamma_star = mu/lambda.

    ``alpha``/``beta`` bound the depth the mu-th best individual settles
    between, ``kappa`` is the equilibrium depth where the expected number of
    survivors equals mu.  ``alpha`` is None when gamma_star/(1-delta) >= 1,
    i.e. when the bound exceeds any finite depth.
    """

    n: int
    gamma_star: float
    delta: float
    epsilon: Optional[float]
    alpha: Optional[float]
    beta: float
    kappa: float

    @property
    def tail_cutoff(self) -> int:
        """The first 0-based tail position, ``floor(beta + 2)``."""
        return math.floor(self.beta + 2.0)


def level_counts(fitness: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Count individuals per leading-ones level from their true fitness.

    Returns full-length vectors ``(C, D)`` where ``C[i-1]`` is the number of
    individuals with at least ``i`` leading ones and ``D[i-1]`` the number
    with exactly ``i-1``.
    """
    at_least = np.cumsum(np.bincount(fitness, minlength=n + 1)[::-1])[::-1]  # at_least[v] = #{fitness >= v}
    c = at_least[1:]
    d = at_least[:-1] - c
    return c.astype(np.int64, copy=False), d.astype(np.int64, copy=False)


def z_values(c: np.ndarray, mu: int) -> tuple[int, int]:
    """Deepest level still holding at least mu members, and deepest non-empty level.

    ``C`` is non-increasing, so both depths are counts.
    """
    return np.count_nonzero(c >= mu), np.count_nonzero(c)


def noisy_misrank_count(fitness_true: np.ndarray, fitness_noisy: np.ndarray, j: int) -> int:
    """Individuals whose noisy score reaches level j while their true score does not."""
    if fitness_noisy is fitness_true:  # no noise drawn
        return 0
    return np.count_nonzero((fitness_true < j) & (fitness_noisy >= j))


def iteration_stats(fitness_true: np.ndarray, fitness_noisy: np.ndarray, n: int, mu: int) -> tuple[int, int, int]:
    """``(z_mu, z_star, misranked)`` of one population, after checking the counting identity.

    ``misranked`` counts individuals whose noisy score reaches level
    ``z_mu + 1`` although their true score does not (written to the ``B``
    trace column; always 0 without noise).
    """
    c, d = level_counts(fitness_true, n)
    z_mu, z_star = z_values(c, mu)
    # counting identity: C[i-1] = C[i] + D[i], anchored at C[0] = population size
    previous = np.concatenate(([fitness_true.shape[0]], c[:-1]))
    if (previous != c + d).any():
        raise AssertionError("level counting identity violated")
    return z_mu, z_star, noisy_misrank_count(fitness_true, fitness_noisy, z_mu + 1)


def thresholds(n: int, gamma_star: float, delta: float, epsilon: Optional[float] = None) -> ThresholdParams:
    """Closed-form depth thresholds; any consistent log base gives the same values."""
    if not 0.0 < gamma_star < 1.0:
        raise ValueError(f"selective pressure must be in (0, 1), got {gamma_star}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    log_keep = math.log(1.0 - 1.0 / n)
    lower_ratio = gamma_star / (1.0 - delta)
    alpha = math.log(lower_ratio) / log_keep if lower_ratio < 1.0 else None
    beta = math.log(gamma_star / (1.0 + delta)) / log_keep
    kappa = math.log(gamma_star) / log_keep
    return ThresholdParams(
        n=n, gamma_star=gamma_star, delta=delta, epsilon=epsilon,
        alpha=alpha, beta=beta, kappa=kappa,
    )

