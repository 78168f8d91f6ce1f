"""LeadingOnes and its one-bit prior-noise wrapper.

Fitness values are exact integers throughout; the noisy wrapper never mutates
the evaluated individual.  Noise draws consume the random stream in a fixed
documented order (noise coin first, then flip index) so runs replay exactly.
``evaluate_population`` scores a sampled bit matrix into a ``Population``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import _SAMPLE_BLOCK_DOUBLES, Bitstring, Population


@dataclass(frozen=True)
class NoiseConfig:
    """One uniformly chosen bit is flipped with probability ``p`` before scoring."""

    p: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"flip probability must be in [0, 1), got {self.p}")

    @property
    def active(self) -> bool:
        return self.p > 0.0


def leading_ones(x: Bitstring) -> int:
    """Length of the maximal all-ones prefix; in [0, n]."""
    bits = np.asarray(x, dtype=np.uint8)
    return int(kernels.leading_ones_rows(bits.reshape(1, -1))[0])


def noisy_leading_ones_batch(
    bits: np.ndarray,
    fitness_true: np.ndarray,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized noisy scores for a (rows, n) matrix with known true scores.

    Stream order per call: one coin per row, then one flip index per noisy
    row (row order).  With ``p`` = 0 nothing is drawn and the true scores are
    returned unchanged.  Only the noisy rows' indices outlive the coin draw,
    and the noisy rows are copied, flipped and scored in blocks of at most
    ``_SAMPLE_BLOCK_DOUBLES // n`` rows (one row if a row is longer), so a
    broadcast ``bits`` never grows a full-size copy.
    """
    if not noise.active:
        return fitness_true
    rows, n = bits.shape
    noisy_rows = np.nonzero(rng.random(rows) < noise.p)[0]
    fitness = fitness_true.copy()
    if noisy_rows.size:
        flips = rng.integers(0, n, size=noisy_rows.size)
        block = max(1, _SAMPLE_BLOCK_DOUBLES // n)
        for start in range(0, noisy_rows.size, block):
            chunk = noisy_rows[start:start + block]
            flipped = bits[chunk]  # fancy indexing copies
            flipped[np.arange(chunk.size), flips[start:start + block]] ^= 1
            fitness[chunk] = kernels.leading_ones_rows(flipped)
    return fitness


def expected_noisy_fitness(x: Bitstring, noise: NoiseConfig) -> float:
    """Exact expectation of the noisy score by enumerating all single-bit flips."""
    bits = np.asarray(x, dtype=np.uint8)
    n = bits.shape[0]
    base = leading_ones(bits)
    if not noise.active:
        return float(base)
    flipped = np.tile(bits, (n, 1))
    flipped[np.arange(n), np.arange(n)] ^= 1
    flip_scores = kernels.leading_ones_rows(flipped)
    return (1.0 - noise.p) * base + (noise.p / n) * float(flip_scores.sum())


def evaluate_population(bits: np.ndarray, noise: NoiseConfig, rng: np.random.Generator) -> Population:
    """Score a (size, n) bit matrix: one evaluation per row."""
    fitness_true = kernels.leading_ones_rows(bits)
    fitness_noisy = noisy_leading_ones_batch(bits, fitness_true, noise, rng)
    return Population(members=bits, fitness_true=fitness_true, fitness_noisy=fitness_noisy)
