"""Bitstrings, the marginal probability model, and population sampling.

A bitstring is a 1-d ``numpy`` array of 0/1 values (dtype ``uint8``).  The
probabilistic model is a plain float64 array of n marginals, one independent
one-probability per position, clamped to the borders ``[1/n, 1 - 1/n]`` so
no marginal can fix at 0 or 1; ``check_marginals`` checks that invariant.
``sample_population`` draws a (size, n) bit matrix, a bounded block of
uniforms at a time, and ``objectives.evaluate_population`` scores it into a
``Population``, so a ``Population`` always carries both fitness arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

Bitstring = np.ndarray

_SAMPLE_BLOCK_DOUBLES = 2**16  # uniforms drawn at once by ``sample_population`` (512 KiB)


@dataclass(frozen=True)
class Population:
    """Sampled individuals and their scores, one evaluation each.

    ``members`` has shape (size, n); both fitness arrays hold one integer per
    member.  ``fitness_noisy`` is the score used for selection and equals
    ``fitness_true`` when no noise is configured.
    """

    members: np.ndarray
    fitness_true: np.ndarray
    fitness_noisy: np.ndarray

    def __post_init__(self) -> None:
        if self.members.ndim != 2:
            raise ValueError("members must be a (size, n) matrix")
        if self.fitness_true.shape != (self.size,) or self.fitness_noisy.shape != (self.size,):
            raise ValueError("fitness arrays must have one entry per member")

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def n(self) -> int:
        return self.members.shape[1]


def init_model(n: int) -> np.ndarray:
    """Uniform starting model: every marginal exactly 1/2.

    Rejects n < 2, where the borders 1/n and 1 - 1/n would collide or invert.
    """
    if n < 2:
        raise ValueError(f"problem size must be at least 2, got {n}")
    return np.full(n, 0.5)


def check_marginals(marginals: np.ndarray, n: int) -> None:
    """Raise unless ``marginals`` holds exactly n values inside the borders [1/n, 1 - 1/n]."""
    if marginals.shape != (n,):
        raise ValueError(f"expected {n} marginals, got shape {marginals.shape}")
    lo, hi = 1.0 / n, 1.0 - 1.0 / n
    if not (marginals.min() >= lo and marginals.max() <= hi):
        raise ValueError(f"marginals outside borders [{lo}, {hi}]")


def clamp_vector(values: np.ndarray, n: int) -> np.ndarray:
    """Vectorized border clamp for a full marginal vector."""
    values = np.asarray(values, dtype=np.float64)
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError("values outside [0, 1]")
    return np.minimum(np.maximum(values, 1.0 / n), 1.0 - 1.0 / n)


def sample_population(marginals: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` independent individuals from the product distribution, as a (size, n) bit matrix.

    Consumes exactly size * n uniforms from ``rng`` in row-major order, as
    one (size, n) block would, but draws them in row blocks of at most
    ``_SAMPLE_BLOCK_DOUBLES`` values (one row if a row is longer), so the
    float64 block never outgrows that bound.
    """
    if size < 1:
        raise ValueError(f"population size must be at least 1, got {size}")
    n = marginals.shape[0]
    rows = max(1, _SAMPLE_BLOCK_DOUBLES // n)
    bits = np.empty((size, n), dtype=np.uint8)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        bits[start:stop] = kernels.sample_bits(rng.random((stop - start, n)), marginals)
    return bits
