import functools
import itertools
import math

import numpy as np
import pytest

from umda_lab import NoiseConfig, UmdaConfig, kernels, run
from umda_lab.engine import ENGINES, step
from umda_lab.instrumentation import thresholds
from umda_lab.oracle import (
    ExactDistribution,
    _all_bit_matrices,
    brute_force_expected_max_leading_ones,
    check_transition,
    empirical_vs_exact,
    enumerate_level_distribution,
    exact_expected_max_leading_ones,
    exact_level_chain,
    exact_transition,
    tail_marginal_frequency_test,
    total_variation,
)


def exact_product_distribution(marginals):
    """Reference law of a single individual over all 2**n bitstrings."""
    marginals = np.asarray(marginals, dtype=np.float64)
    bits = _all_bit_matrices(marginals.shape[0])
    probs = np.where(bits == 1, marginals, 1.0 - marginals).prod(axis=1)
    support = tuple(tuple(int(b) for b in row) for row in bits)
    return ExactDistribution(support=support, probabilities=probs)


def test_chain_single_position_is_binomial():
    dist = exact_level_chain([0.5], 2)
    assert dist.support == ((0,), (1,), (2,))
    np.testing.assert_allclose(dist.probabilities, [0.25, 0.5, 0.25], atol=1e-15)


def test_chain_two_positions_product_value():
    dist = exact_level_chain([0.5, 0.5], 2)
    assert dist.as_dict()[(2, 1)] == pytest.approx(0.125, abs=1e-15)


def test_chain_rejects_infeasible_sizes():
    with pytest.raises(ValueError):
        exact_level_chain([0.5] * 20, 4)
    with pytest.raises(ValueError):
        exact_level_chain([0.5] * 3, 9)


def test_chain_matches_enumeration_on_margin_grid():
    # every model on the border grid, at every small population size
    for n in (2, 3):
        grid = sorted({1.0 / n, 0.5, 1.0 - 1.0 / n})
        for size in (1, 2, 3, 4):
            for marginals in itertools.product(grid, repeat=n):
                chain = exact_level_chain(marginals, size)
                assert abs(chain.probabilities.sum() - 1.0) < 1e-12
                enumerated = enumerate_level_distribution(marginals, size)
                assert total_variation(chain, enumerated) < 1e-12


@functools.cache  # three tests compare against the same 16-bit walks
def _enumerate_by_dict_walk(marginals, size):
    # reference: the per-population dict walk the radix-code tally replaced
    marginals = np.asarray(marginals, dtype=np.float64)
    n = marginals.shape[0]
    bits = _all_bit_matrices(size * n)
    flat_p = np.tile(marginals, size)
    weights = np.where(bits == 1, flat_p, 1.0 - flat_p).prod(axis=1)
    lo = kernels.leading_ones_rows(bits.reshape(-1, n)).reshape(-1, size)
    law = {}
    for row_lo, w in zip(lo, weights):
        counts = tuple(int(np.count_nonzero(row_lo >= level)) for level in range(1, n + 1))
        law[counts] = law.get(counts, 0.0) + float(w)
    support = sorted(law)
    return tuple(support), np.array([law[s] for s in support])


def _exact_equality_cases():
    for n in (2, 3):
        grid = sorted({1.0 / n, 0.5, 1.0 - 1.0 / n})
        for size in (1, 2, 3, 4):
            for marginals in itertools.product(grid, repeat=n):
                yield marginals, size
    yield (0.5, 0.5, 0.5, 0.5), 4  # the 16-bit cap
    yield (2 / 3, 0.4, 0.3, 0.6), 4
    for size in (1, 2, 3):  # zero-weight populations must stay in the support
        yield (1.0, 0.0, 0.5), size
        yield (0.0, 1.0), size
        yield (0.5, 1.0, 0.0, 0.25), size


def test_enumeration_equals_dict_walk_bit_for_bit():
    cases = 0
    for marginals, size in _exact_equality_cases():
        dist = enumerate_level_distribution(marginals, size)
        support, probabilities = _enumerate_by_dict_walk(marginals, size)
        assert dist.support == support, (marginals, size)
        assert np.array_equal(dist.probabilities, probabilities), (marginals, size)
        cases += 1
    assert cases == 123


def _bit_row_blocks(total_bits, block):
    """Bit rows of every code of ``total_bits`` bits, ``block`` codes at a time, the last block ragged."""
    shifts = np.arange(total_bits - 1, -1, -1)
    for start in range(0, 2**total_bits, block):
        codes = np.arange(start, min(start + block, 2**total_bits), dtype=np.int64)
        yield ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _tally_in_blocks(marginals, size, block):
    # reference: row-wise weights and count-vector codes built one block of populations at a time
    marginals = np.asarray(marginals, dtype=np.float64)
    n = marginals.shape[0]
    flat_p = np.tile(marginals, size)
    weights, codes = [], []
    for bits in _bit_row_blocks(size * n, block):
        weights.append(np.where(bits == 1, flat_p, 1.0 - flat_p).prod(axis=1))
        lo = kernels.leading_ones_rows(bits.reshape(-1, n)).reshape(-1, size)
        block_codes = 0
        for level in range(1, n + 1):
            block_codes = block_codes * (size + 1) + np.count_nonzero(lo >= level, axis=1)
        codes.append(block_codes)
    codes = np.concatenate(codes)
    support = np.nonzero(np.bincount(codes))[0]
    return np.bincount(codes, weights=np.concatenate(weights))[support]


@pytest.mark.parametrize("block", [1000, 4096])
def test_enumeration_blocks_cross_at_the_cap(block):
    # the 16-bit cases of the dict-walk test, against a tally over row blocks, the last one ragged at 1000
    for marginals in [(0.5, 0.5, 0.5, 0.5), (2 / 3, 0.4, 0.3, 0.6), (0.5, 1.0, 0.0, 0.25)]:
        dist = enumerate_level_distribution(marginals, 4)
        support, probabilities = _enumerate_by_dict_walk(marginals, 4)
        assert dist.support == support
        assert np.array_equal(dist.probabilities, probabilities)
        assert np.array_equal(dist.probabilities, _tally_in_blocks(marginals, 4, block))


def test_enumeration_peak_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        enumerate_level_distribution([0.5] * 4, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the whole 2**16 x 16 float64 weight matrix alone takes 8 MiB


def test_enumeration_rejects_oversized_spaces():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="infeasible"):
            enumerate_level_distribution([0.5] * 5, 4)  # 2**20 outcomes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the 2**20 codes alone would take 8 MB


def test_product_distribution_uniform_n3():
    dist = exact_product_distribution([0.5, 0.5, 0.5])
    assert len(dist.support) == 8
    np.testing.assert_allclose(dist.probabilities, np.full(8, 0.125), atol=1e-15)


def test_expected_max_examples():
    assert exact_expected_max_leading_ones(3, 2, 0.5) == pytest.approx(91 / 64, abs=1e-12)
    assert exact_expected_max_leading_ones(1, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
    for k in (1, 2, 7):
        assert exact_expected_max_leading_ones(9, k, 1.0) == pytest.approx(9.0, abs=1e-15)


def test_expected_max_matches_brute_force():
    for n, k, q in [(3, 2, 0.5), (4, 3, 0.3), (2, 5, 0.7), (5, 2, 0.9)]:
        closed = exact_expected_max_leading_ones(n, k, q)
        brute = brute_force_expected_max_leading_ones(n, k, q)
        assert closed == pytest.approx(brute, abs=1e-12)


def _brute_force_whole_matrix(n, k, q):
    """The expected maximum from one whole 2**(n*k)-row weight matrix, as a reference."""
    bits = _all_bit_matrices(n * k)
    weights = np.where(bits == 1, q, 1.0 - q).prod(axis=1)
    lo = kernels.leading_ones_rows(bits.reshape(-1, n)).reshape(-1, k)
    return float((lo.max(axis=1) * weights).sum())


def _brute_force_in_blocks(n, k, q, block):
    """The same terms built one block of outcome rows at a time into one array, summed once."""
    terms = []
    for bits in _bit_row_blocks(n * k, block):
        weights = np.where(bits == 1, q, 1.0 - q).prod(axis=1)
        terms.append(kernels.leading_ones_rows(bits.reshape(-1, n)).reshape(-1, k).max(axis=1) * weights)
    return float(np.concatenate(terms).sum())


@pytest.mark.parametrize("block", [1000, 4096])
def test_brute_force_blocks_equal_the_whole_matrix_bit_for_bit(block):
    cases = [(n, k, q) for n, k in [(1, 1), (2, 3), (3, 2), (5, 2), (2, 7), (4, 4), (16, 1), (1, 16)]
             for q in (0.3, 0.5, 0.9)]
    for n, k, q in cases:
        value = brute_force_expected_max_leading_ones(n, k, q)
        assert value == _brute_force_whole_matrix(n, k, q), (n, k, q)
        assert value == _brute_force_in_blocks(n, k, q, block), (n, k, q)


def test_brute_force_peak_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        brute_force_expected_max_leading_ones(4, 4, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # the whole 2**16 x 16 float64 weight matrix alone takes 8 MiB


def test_expected_max_monotone_in_k_and_q():
    values_k = [exact_expected_max_leading_ones(12, k, 0.5) for k in range(1, 40)]
    assert all(b >= a for a, b in zip(values_k, values_k[1:]))
    values_q = [exact_expected_max_leading_ones(12, 4, q) for q in np.linspace(0.05, 0.95, 19)]
    assert all(b >= a for a, b in zip(values_q, values_q[1:]))


def test_expected_max_doubling_increment_bounded():
    # each doubling of the population adds roughly one level
    k_values = [2**i for i in range(11)]
    values = [exact_expected_max_leading_ones(30, k, 0.5) for k in k_values]
    diffs = np.diff(values)
    assert np.all(diffs >= 0.3)
    assert np.all(diffs <= 1.1)


def test_validation_of_expected_max_inputs():
    with pytest.raises(ValueError):
        exact_expected_max_leading_ones(0, 1, 0.5)
    with pytest.raises(ValueError):
        exact_expected_max_leading_ones(3, 0, 0.5)
    with pytest.raises(ValueError):
        exact_expected_max_leading_ones(3, 1, 1.5)


def test_exact_distribution_validation():
    with pytest.raises(ValueError):
        ExactDistribution(support=((0,),), probabilities=np.array([0.5]))
    with pytest.raises(ValueError):
        ExactDistribution(support=((0,), (1,)), probabilities=np.array([1.2, -0.2]))


def test_empirical_vs_exact_against_itself():
    dist = exact_product_distribution([0.5, 0.5])
    samples = {outcome: p for outcome, p in zip(dist.support, dist.probabilities)}
    report = empirical_vs_exact(samples, dist, tv_threshold=1e-9)
    assert report.passed and report.tv_distance == 0.0 and report.chi_square == 0.0


def test_empirical_vs_exact_fair_coin():
    exact = ExactDistribution(support=((0,), (1,)), probabilities=np.array([0.5, 0.5]))
    rng = np.random.default_rng(41)
    heads = int(rng.binomial(1_000_000, 0.5))
    report = empirical_vs_exact(
        {(1,): heads, (0,): 1_000_000 - heads}, exact, tv_threshold=0.005
    )
    assert report.passed, report


def test_empirical_vs_exact_biased_source_fails():
    exact = ExactDistribution(support=((0,), (1,)), probabilities=np.array([0.5, 0.5]))
    rng = np.random.default_rng(42)
    heads = int(rng.binomial(1_000_000, 0.6))
    report = empirical_vs_exact(
        {(1,): heads, (0,): 1_000_000 - heads}, exact, tv_threshold=0.005
    )
    assert not report.passed
    assert report.tv_distance == pytest.approx(0.1, abs=0.01)


def test_empirical_vs_exact_rejects_unknown_outcomes():
    exact = ExactDistribution(support=((0,), (1,)), probabilities=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        empirical_vs_exact({(2,): 10}, exact, tv_threshold=0.1)


def test_exact_transition_hand_computed():
    # n=2, lambda=2, mu=1, uniform model: the parent is the better of two
    # individuals, the first one on a tie.  Its LO is 2 w.p. 1 - (3/4)**2,
    # 1 w.p. (3/4)**2 - (1/2)**2, and 0 w.p. 1/4 with a fair second bit.
    dist = exact_transition([0.5, 0.5], lam=2, mu=1).as_dict()
    assert set(dist) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert dist[(1, 1)] == pytest.approx(7 / 16, abs=1e-15)
    assert dist[(1, 0)] == pytest.approx(5 / 16, abs=1e-15)
    assert dist[(0, 0)] == pytest.approx(1 / 8, abs=1e-15)
    assert dist[(0, 1)] == pytest.approx(1 / 8, abs=1e-15)


def test_exact_transition_noise_changes_the_law():
    marginals = [2 / 3, 0.5, 1 / 3]
    clean = exact_transition(marginals, lam=3, mu=1)
    noisy = exact_transition(marginals, lam=3, mu=1, noise_p=0.5)
    assert abs(noisy.probabilities.sum() - 1.0) < 1e-12
    assert total_variation(clean, noisy) > 0.01
    assert exact_transition(marginals, lam=3, mu=1, noise_p=0.0).as_dict() == clean.as_dict()


def test_exact_transition_rejects_infeasible_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="infeasible"):
            exact_transition([0.5] * 20, lam=10, mu=2)  # 200 bits
        with pytest.raises(ValueError, match="infeasible"):
            exact_transition([0.5] * 3, lam=5, mu=2, noise_p=0.1)  # 15 bits, but 32**5 outcomes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(ValueError):
        exact_transition([0.5] * 3, lam=4, mu=4)


def _transition_step(marginals, noise_p, engine, seed, shift=0.0):
    n = len(marginals)
    sampled = np.clip(np.asarray(marginals) + shift, 1.0 / n, 1.0 - 1.0 / n)
    config = UmdaConfig(n=n, lam=4, mu=2, noise=NoiseConfig(noise_p), engine=engine)
    rng = np.random.default_rng(seed)
    return lambda: step(sampled, config, rng)[2]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("noise_p", [0.0, 0.3])
def test_both_engines_match_exact_transition(engine, noise_p):
    marginals = [2 / 3, 0.5, 1 / 3]
    exact = exact_transition(marginals, lam=4, mu=2, noise_p=noise_p)
    report = check_transition(_transition_step(marginals, noise_p, engine, seed=5), exact, 8000)
    assert report.passed, report


def test_transition_check_fails_on_biased_sampler():
    # the sampler draws from a model shifted by 0.05 per position
    marginals = [2 / 3, 0.5, 1 / 3]
    exact = exact_transition(marginals, lam=4, mu=2, noise_p=0.3)
    biased = _transition_step(marginals, 0.3, "levels", seed=42, shift=0.05)
    report = check_transition(biased, exact, 20_000)
    assert not report.passed
    assert report.chi_square > report.chi_square_critical


def _single_iteration_trace(n=30, track_from=10):
    config = UmdaConfig(n=n, lam=4, mu=2, max_evals=4, seed=1, track_marginals_from=track_from)
    return run(config).trace


def test_tail_marginal_untouched_model_is_exactly_half():
    params = thresholds(30, 0.5, 0.2)
    cutoff = int(math.floor(params.beta + 2))
    trace = _single_iteration_trace(track_from=cutoff)
    report = tail_marginal_frequency_test([trace], params, window=(0, 1))
    assert report.mean == 0.5
    assert report.n_samples == 30 - cutoff


def test_tail_marginal_requires_snapshots():
    params = thresholds(30, 0.5, 0.2)
    config = UmdaConfig(n=30, lam=4, mu=2, max_evals=4, seed=1)
    trace = run(config).trace
    with pytest.raises(ValueError):
        tail_marginal_frequency_test([trace], params)


def test_tail_bits_show_no_pairwise_correlation():
    # finite-sample check that tail offspring bits behave pairwise
    # independently over a stalled run (correlations near zero)
    from umda_lab import NoiseConfig, select_parents, sort_by_fitness, update_model
    from umda_lab.model import clamp_vector, init_model, sample_population
    from umda_lab.objectives import evaluate_population

    n, lam, mu = 30, 16, 8
    params = thresholds(n, mu / lam, 0.2)
    cutoff = int(math.floor(params.beta + 2))
    rng = np.random.default_rng(73)
    model = init_model(n)
    tail_bits = []
    for _ in range(400):
        pop = evaluate_population(sample_population(model, lam, rng), NoiseConfig(0.0), rng)
        tail_bits.append(pop.members[:, cutoff:].astype(np.float64))
        parents = select_parents(sort_by_fitness(pop.fitness_noisy), mu)
        model = clamp_vector(update_model(pop.members, parents) / mu, n)
    samples = np.concatenate(tail_bits, axis=0)
    corr = np.corrcoef(samples, rowvar=False)
    off_diagonal = corr[~np.eye(corr.shape[0], dtype=bool)]
    assert np.max(np.abs(off_diagonal)) < 0.1
