import sys

import numpy as np

from umda_lab import kernels


def _reference_leading_ones(row):
    count = 0
    for bit in row:
        if bit != 1:
            break
        count += 1
    return count


def test_leading_ones_rows_matches_reference():
    rng = np.random.default_rng(3)
    bits = (rng.random((200, 17)) < 0.7).astype(np.uint8)
    bits[0, :] = 1
    bits[1, :] = 0
    got = kernels.leading_ones_rows(bits)
    want = [_reference_leading_ones(row) for row in bits]
    assert got.tolist() == want


def test_sample_bits_thresholds_each_column():
    rng = np.random.default_rng(4)
    uniforms = rng.random((50, 6))
    marginals = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    bits = kernels.sample_bits(uniforms, marginals)
    assert bits.dtype == np.uint8
    np.testing.assert_array_equal(bits, (uniforms < marginals).astype(np.uint8))


def test_column_ones_counts_subset_of_rows():
    rng = np.random.default_rng(5)
    bits = (rng.random((30, 9)) < 0.5).astype(np.uint8)
    rows = np.array([0, 3, 7, 8, 29])
    got = kernels.column_ones_counts(bits, rows)
    np.testing.assert_array_equal(got, bits[rows].sum(axis=0))


def test_env_flag_selects_numpy_backend():
    assert kernels.BACKEND == "numpy"
    assert "numba" not in sys.modules


def test_warm_up_runs_on_active_backend():
    bits = kernels.sample_bits(np.array([[0.2, 0.8]]), np.array([0.5, 0.5]))
    assert bits.tolist() == [[1, 0]]
    assert kernels.leading_ones_rows(bits).tolist() == [1]
    assert kernels.column_ones_counts(bits, np.array([0])).tolist() == [1, 0]
