"""The bit engine's numpy kernels: bit sampling, leading-ones scoring, ones counting.

All randomness is drawn *outside* the kernels (a uniform block is passed
in), so each kernel is a pure function of its arrays.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def sample_bits(uniforms: np.ndarray, marginals: np.ndarray) -> np.ndarray:
    """Threshold a (rows, n) uniform block against per-column one-probabilities."""
    return (uniforms < marginals).astype(np.uint8)


def leading_ones_rows(bits: np.ndarray) -> np.ndarray:
    """Length of the all-ones prefix of every row of a (rows, n) 0/1 matrix."""
    n = bits.shape[1]
    first_zero = np.argmin(bits, axis=1)
    # argmin returns 0 for an all-ones row; patch those to n
    return np.where(bits.all(axis=1), n, first_zero).astype(np.int64)


def column_ones_counts(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-position count of ones over the given row indices."""
    return bits[rows].sum(axis=0, dtype=np.int64)
