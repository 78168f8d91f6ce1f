import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from umda_lab import NoiseConfig, UmdaConfig, init_model, sample_population
from umda_lab.engine import ENGINES, step
from umda_lab.model import clamp_vector
from umda_lab.oracle import empirical_vs_exact

from test_oracle import exact_product_distribution


def clamp_to_margins(value, n):
    """Scalar reference for ``clamp_vector``: clamp a probability into [1/n, 1 - 1/n]."""
    return max(1.0 / n, min(1.0 - 1.0 / n, value))


def sample_individual(marginals, rng):
    """Reference for ``sample_population``: one bitstring from ``marginals.shape[0]`` uniforms."""
    return (rng.random(marginals.shape[0]) < marginals).astype(np.uint8)


def test_init_model_is_uniform():
    model = init_model(4)
    np.testing.assert_array_equal(model, [0.5, 0.5, 0.5, 0.5])


def test_init_model_boundary_n2():
    model = init_model(2)
    # borders collapse to the single point 0.5, which still contains 0.5
    np.testing.assert_array_equal(model, [0.5, 0.5])


def test_init_model_rejects_n1():
    with pytest.raises(ValueError):
        init_model(1)


@pytest.mark.parametrize(
    "value,expected",
    [(0.0, 0.01), (1.0, 0.99), (0.37, 0.37)],
)
def test_clamp_examples(value, expected):
    assert clamp_vector(np.array([value]), 100)[0] == pytest.approx(expected, abs=0.0)


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_clamp_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        clamp_vector(np.array([0.5, bad]), 100)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=2000))
def test_clamp_always_lands_in_borders(value, n):
    clamped = clamp_vector(np.array([value]), n)[0]
    assert 1.0 / n <= clamped <= 1.0 - 1.0 / n
    # interior values pass through untouched
    if 1.0 / n <= value <= 1.0 - 1.0 / n:
        assert clamped == value


def test_probability_vector_rejects_values_outside_borders():
    # ``step`` checks a caller's model before drawing anything
    for engine in ENGINES:
        config = UmdaConfig(n=3, lam=4, mu=2, noise=NoiseConfig(0.3), engine=engine)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for bad in ([0.5, 0.005, 0.5], [0.5, 0.995, 0.5], [0.5, np.nan, 0.5], [0.5, 0.5], [0.5] * 4):
            with pytest.raises(ValueError):
                step(np.array(bad), config, rng)
        assert rng.bit_generator.state == before
        step(np.array([1 / 3, 0.5, 2 / 3]), config, rng)  # both borders are allowed


def test_clamp_vector_matches_scalar_clamp():
    values = np.linspace(0.0, 1.0, 21)
    got = clamp_vector(values, 10)
    want = [clamp_to_margins(v, 10) for v in values]
    np.testing.assert_allclose(got, want)


def test_upper_border_still_leaves_zeros_possible():
    n = 5
    model = np.full(n, 1.0 - 1.0 / n)
    rng = np.random.default_rng(12)
    draws = 20000
    zeros_at_first = draws - int(sample_population(model, draws, rng)[:, 0].sum())
    freq = zeros_at_first / draws
    sigma = math.sqrt(0.2 * 0.8 / draws)
    assert abs(freq - 0.2) <= 3 * sigma


def test_sample_population_shape_and_unset_fitness():
    model = init_model(8)
    rng = np.random.default_rng(0)
    bits = sample_population(model, 1, rng)
    assert bits.shape == (1, 8) and bits.dtype == np.uint8  # a bare bit matrix carries no fitness
    with pytest.raises(ValueError):
        sample_population(model, 0, rng)


@pytest.mark.parametrize("size, n", [(300, 1000), (7, 65_537), (1, 3)])
def test_sample_population_blocks_read_one_uniform_block(size, n):
    # row blocks consume the stream exactly as one (size, n) block does
    marginals = np.random.default_rng(5).random(n)
    bits = sample_population(marginals, size, np.random.default_rng(11))
    whole = np.random.default_rng(11).random((size, n)) < marginals
    np.testing.assert_array_equal(bits, whole.astype(np.uint8))


def test_sample_population_holds_one_block_of_uniforms():
    import tracemalloc

    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        bits = sample_population(np.full(2000, 0.5), 2000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bits.shape == (2000, 2000)
    assert peak < 8 * 2**20  # one 2000 x 2000 float64 block alone takes 30.5 MiB


def test_sample_population_mean_ones():
    model = init_model(100)
    rng = np.random.default_rng(13)
    totals = [sample_population(model, 20, rng).sum(axis=1).mean() for _ in range(200)]
    mean = float(np.mean(totals))
    sigma = math.sqrt(100 * 0.25 / (20 * 200))
    assert abs(mean - 50.0) <= 3 * sigma


def test_product_distribution_chi_square():
    # all eight length-3 bitstrings must appear with probability 1/8
    model = init_model(3)
    rng = np.random.default_rng(14)
    bits = sample_population(model, 100_000, rng)
    counts = {}
    for row in bits:
        key = tuple(int(b) for b in row)
        counts[key] = counts.get(key, 0) + 1
    exact = exact_product_distribution(model)
    report = empirical_vs_exact(counts, exact, tv_threshold=0.01)
    assert report.passed, report


def test_first_level_count_matches_binomial():
    # distribution of ones at position one over many populations vs Bin(lam, p1)
    lam, n = 20, 5
    model = init_model(n)
    rng = np.random.default_rng(15)
    populations = 100_000
    counts = {}
    for _ in range(populations):
        bits = sample_population(model, lam, rng)
        key = (int(bits[:, 0].sum()),)
        counts[key] = counts.get(key, 0) + 1
    pmf = {(k,): math.comb(lam, k) * 0.5**lam for k in range(lam + 1)}
    from umda_lab.oracle import ExactDistribution

    support = tuple(sorted(pmf))
    exact = ExactDistribution(support=support, probabilities=np.array([pmf[s] for s in support]))
    report = empirical_vs_exact(counts, exact, tv_threshold=0.01)
    assert report.passed, report


def test_marginal_half_frequency_bound():
    model = init_model(2)
    rng = np.random.default_rng(16)
    draws = 120_000
    bits = sample_population(model, draws, rng)
    freq = float(bits[:, 0].mean())
    sigma = math.sqrt(0.25 / draws)
    assert abs(freq - 0.5) <= 3 * sigma


def test_sampling_is_reproducible():
    model = init_model(40)
    bits_a = sample_population(model, 30, np.random.default_rng(99))
    bits_b = sample_population(model, 30, np.random.default_rng(99))
    np.testing.assert_array_equal(bits_a, bits_b)


def test_individual_and_population_consume_identical_streams():
    model = init_model(12)
    bits = sample_population(model, 6, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    singles = np.stack([sample_individual(model, rng) for _ in range(6)])
    np.testing.assert_array_equal(bits, singles)
