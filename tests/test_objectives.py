import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umda_lab import (
    NoiseConfig,
    evaluate_population,
    expected_noisy_fitness,
    kernels,
    leading_ones,
)
from umda_lab.model import _SAMPLE_BLOCK_DOUBLES, Population, init_model, sample_population
from umda_lab.objectives import noisy_leading_ones_batch

bits = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40)


def noisy_leading_ones(x, noise, rng):
    """Scalar reference for ``noisy_leading_ones_batch``: one coin, then (if noisy) one flip index."""
    if rng.random() >= noise.p:
        return leading_ones(x)
    flipped = x.copy()
    flipped[rng.integers(x.shape[0])] ^= 1
    return leading_ones(flipped)


@pytest.mark.parametrize(
    "x,expected",
    [
        ([1, 1, 1, 0, 1, 0], 3),
        ([1, 1, 1, 1, 1, 1, 1], 7),
        ([0, 1, 1, 1], 0),
        ([0], 0),
        ([1], 1),
    ],
)
def test_leading_ones_examples(x, expected):
    assert leading_ones(np.array(x, dtype=np.uint8)) == expected


@given(bits)
def test_full_fitness_iff_all_ones(x):
    arr = np.array(x, dtype=np.uint8)
    assert (leading_ones(arr) == len(x)) == bool(arr.all())


@given(bits, st.randoms(use_true_random=False))
def test_fitness_is_prefix_determined(x, pyrandom):
    arr = np.array(x, dtype=np.uint8)
    k = leading_ones(arr)
    if k >= len(x):
        return
    # any suffix rewrite beyond the first zero keeps the fitness
    other = arr.copy()
    for i in range(k + 1, len(x)):
        other[i] = pyrandom.randint(0, 1)
    assert leading_ones(other) == k


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(1.0)
    with pytest.raises(ValueError):
        NoiseConfig(-0.1)
    assert not NoiseConfig(0.0).active


def test_noisy_fitness_never_mutates_input():
    rng = np.random.default_rng(22)
    x = np.ones((1, 6), dtype=np.uint8)
    for _ in range(200):
        noisy_leading_ones_batch(x, np.array([6]), NoiseConfig(0.9), rng)
    assert x.tolist() == [[1] * 6]


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_batch_is_the_scalar_score_row_by_row(p):
    # a one-row batch draws what the scalar reference draws, so the scalar
    # laws checked below are the batch's laws
    shapes = np.random.default_rng(20)
    for seed in range(200):
        x = (shapes.random(int(shapes.integers(1, 12))) < 0.7).astype(np.uint8)
        batch_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = noisy_leading_ones_batch(x[None], np.array([leading_ones(x)]), NoiseConfig(p), batch_rng)
        assert batch.tolist() == [noisy_leading_ones(x, NoiseConfig(p), scalar_rng)]
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_expected_noisy_fitness_all_ones_small():
    # flips at positions 1..3 leave 0, 1, 2 leading ones: 3(1-p) + (p/3)(0+1+2)
    x = np.ones(3, dtype=np.uint8)
    assert expected_noisy_fitness(x, NoiseConfig(0.3)) == pytest.approx(2.4, abs=1e-12)


def test_expected_noisy_fitness_degenerate_noise():
    x = np.array([1, 1, 0, 1], dtype=np.uint8)
    assert expected_noisy_fitness(x, NoiseConfig(0.0)) == float(leading_ones(x))


def test_expected_noisy_fitness_all_ones_large():
    # flip at position i leaves i-1 leading ones; arithmetic series over n=100
    x = np.ones(100, dtype=np.uint8)
    want = 0.9 * 100 + (0.1 / 100) * sum(range(100))
    assert want == 94.95
    assert expected_noisy_fitness(x, NoiseConfig(0.1)) == pytest.approx(want, abs=1e-9)


def test_scalar_noisy_mean_matches_enumeration():
    x = np.ones(3, dtype=np.uint8)
    noise = NoiseConfig(0.3)
    rng = np.random.default_rng(23)
    draws = 20_000
    values = [noisy_leading_ones(x, noise, rng) for _ in range(draws)]
    # enumeration oracle: outcome 3 w.p. 0.7, outcomes 0,1,2 w.p. 0.1 each
    variance = 0.7 * 9 + 0.1 * (0 + 1 + 4) - 2.4**2
    sigma = math.sqrt(variance / draws)
    assert abs(float(np.mean(values)) - 2.4) <= 3 * sigma


def test_zero_prefix_noisy_support_and_rate():
    # only flipping the first bit can produce a leading one: P(F=1) = p/3
    x = np.zeros(3, dtype=np.uint8)
    noise = NoiseConfig(0.3)
    rng = np.random.default_rng(24)
    draws = 30_000
    values = np.array([noisy_leading_ones(x, noise, rng) for _ in range(draws)])
    assert set(np.unique(values)) <= {0, 1}
    freq = float((values == 1).mean())
    target = 0.3 / 3
    sigma = math.sqrt(target * (1 - target) / draws)
    assert abs(freq - target) <= 3 * sigma


def test_batch_monte_carlo_matches_expected_noisy_fitness():
    rng = np.random.default_rng(25)
    x = (rng.random(12) < 0.6).astype(np.uint8)
    noise = NoiseConfig(0.37)
    exact = expected_noisy_fitness(x, noise)
    draws = 1_000_000
    tiled = np.tile(x, (draws, 1))
    true_fit = np.full(draws, leading_ones(x), dtype=np.int64)
    scores = noisy_leading_ones_batch(tiled, true_fit, noise, rng)
    sigma = float(scores.std(ddof=1)) / math.sqrt(draws)
    assert abs(float(scores.mean()) - exact) <= 3 * sigma


def _unblocked_noisy_batch(bits, fitness_true, noise, rng):
    """The noisy scores with every noisy row copied at once, as before row blocks."""
    rows, n = bits.shape
    coins = rng.random(rows)
    noisy_rows = np.nonzero(coins < noise.p)[0]
    fitness = fitness_true.copy()
    if noisy_rows.size:
        flips = rng.integers(0, n, size=noisy_rows.size)
        flipped = bits[noisy_rows]
        flipped[np.arange(noisy_rows.size), flips] ^= 1
        fitness[noisy_rows] = kernels.leading_ones_rows(flipped)
    return fitness


def _broadcast_rows():
    # 16 leading ones: most flips move the score.  About 60,000 noisy rows span
    # 18 full blocks of 3,276 rows and a partial last one.
    x = np.ones(20, dtype=np.uint8)
    x[16] = 0
    return np.broadcast_to(x, (200_000, 20)), 0.3


def _long_rows():
    # rows longer than the block bound are scored one row per block
    n = _SAMPLE_BLOCK_DOUBLES + 37
    rng = np.random.default_rng(4)
    bits = (rng.random((12, n)) < 0.5).astype(np.uint8)
    prefix = rng.integers(n // 2, n, size=12)
    bits[np.arange(n) < prefix[:, None]] = 1  # long prefixes: most flips move the score
    return bits, 0.6


@pytest.mark.parametrize("make_rows", [_broadcast_rows, _long_rows])
def test_blocked_batch_equals_the_unblocked_batch_bit_for_bit(make_rows):
    rows, p = make_rows()
    assert max(1, _SAMPLE_BLOCK_DOUBLES // rows.shape[1]) < rows.shape[0] * p / 2  # several blocks
    true_fit = kernels.leading_ones_rows(rows)
    blocked_rng, reference_rng = np.random.default_rng(31), np.random.default_rng(31)
    blocked = noisy_leading_ones_batch(rows, true_fit, NoiseConfig(p), blocked_rng)
    expected = _unblocked_noisy_batch(rows, true_fit, NoiseConfig(p), reference_rng)
    assert blocked.dtype == expected.dtype
    assert np.array_equal(blocked, expected)
    assert np.count_nonzero(blocked != true_fit) > rows.shape[0] * p / 4  # the flips reached the scores
    assert blocked_rng.bit_generator.state == reference_rng.bit_generator.state


def test_batch_zero_noise_returns_true_fitness_without_draws():
    rng = np.random.default_rng(26)
    state_before = rng.bit_generator.state
    fit = np.array([3, 1], dtype=np.int64)
    out = noisy_leading_ones_batch(np.array([[1, 1, 1], [1, 0, 1]], dtype=np.uint8), fit, NoiseConfig(0.0), rng)
    assert out is fit
    assert rng.bit_generator.state == state_before


def test_evaluate_population_counts_and_identity():
    model = init_model(10)
    rng = np.random.default_rng(27)
    bits = sample_population(model, 25, rng)
    pop = evaluate_population(bits, NoiseConfig(0.0), rng)
    assert pop.members is bits
    assert pop.fitness_true.shape == pop.fitness_noisy.shape == (25,)  # one evaluation per member
    np.testing.assert_array_equal(pop.fitness_true, kernels.leading_ones_rows(bits))
    np.testing.assert_array_equal(pop.fitness_noisy, pop.fitness_true)


def test_population_fitness_length_validated():
    with pytest.raises(ValueError):
        Population(
            members=np.zeros((3, 4), dtype=np.uint8),
            fitness_true=np.zeros(2, dtype=np.int64),
            fitness_noisy=np.zeros(3, dtype=np.int64),
        )
