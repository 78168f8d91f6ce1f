"""Per-iteration analysis quantities, the closed-form level thresholds, and
``first_hit``, the first iteration tau at which a depth trace reaches alpha.

Level counts and the derived depths are always computed from *true* fitness,
also in noisy runs, so they keep their meaning when selection is misled by
noise.  ``C[i-1]`` (0-based) counts individuals with at least ``i`` leading
ones; ``D[i-1]`` counts those with exactly ``i-1`` leading ones followed by a
zero, with ``D[0]`` counting the zero-prefix individuals.

The per-population functions work along the last axis: a 1-d score array is
one population and gives one value (or one count vector), while a
(rows, size) block of populations, such as the ``bits`` and noisy rows
``engine.run`` records, gives one per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
    with exactly ``i-1``.  Counts run along the last axis: a (rows, size)
    block gives (rows, n) counts, one row per population.
    """
    shape = fitness.shape[:-1] + (n + 1,)
    # row r counts into bins r(n+1) .. r(n+1) + n of one bincount
    offsets = (n + 1) * np.arange(math.prod(shape[:-1])).reshape(shape[:-1] + (1,))
    per_value = np.bincount((fitness + offsets).ravel(), minlength=math.prod(shape)).reshape(shape)
    at_least = np.cumsum(per_value[..., ::-1], axis=-1)[..., ::-1]  # at_least[v] = #{fitness >= v}
    c = at_least[..., 1:]
    d = at_least[..., :-1] - c
    return c.astype(np.int64, copy=False), d.astype(np.int64, copy=False)


def z_values(c: np.ndarray, mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Deepest level still holding at least mu members, and deepest non-empty level.

    ``c`` holds C vectors along its last axis, so each is non-increasing and
    both depths are counts.
    """
    return np.count_nonzero(c >= mu, axis=-1), np.count_nonzero(c, axis=-1)


def noisy_misrank_count(fitness_true: np.ndarray, fitness_noisy: np.ndarray, j: int | np.ndarray) -> np.ndarray:
    """Individuals whose noisy score reaches level j while their true score does not.

    Counts along the last axis; ``j`` holds one level per population.
    """
    if fitness_noisy is fitness_true:  # no noise drawn
        return np.zeros(fitness_true.shape[:-1], dtype=np.int64)[()]  # a scalar for one population
    j = np.expand_dims(j, -1)
    return np.count_nonzero((fitness_true < j) & (fitness_noisy >= j), axis=-1)


def iteration_stats(
    fitness_true: np.ndarray, fitness_noisy: np.ndarray, n: int, mu: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z_mu, z_star, misranked)`` per population, after checking the counting identity.

    Populations lie along the last axis: a 1-d pair of score arrays is one
    population, a (rows, size) pair gives one value per row.  ``misranked``
    counts individuals whose noisy score reaches level ``z_mu + 1`` although
    their true score does not (written to the ``B`` trace column; always 0
    without noise).
    """
    c, d = level_counts(fitness_true, n)
    z_mu, z_star = z_values(c, mu)
    # counting identity: C[i-1] = C[i] + D[i], anchored at C[0] = population size
    previous = np.concatenate((np.full(c.shape[:-1] + (1,), fitness_true.shape[-1]), c[..., :-1]), axis=-1)
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


def first_hit(z_mu: Sequence[int], alpha: Optional[float]) -> Optional[int]:
    """First 0-indexed trace position where the depth reaches ``alpha``.

    None if the depth never reaches it, or if alpha is undefined.
    """
    if alpha is None:
        return None
    hits = np.nonzero(np.asarray(z_mu) >= alpha)[0]
    return int(hits[0]) if hits.size else None
