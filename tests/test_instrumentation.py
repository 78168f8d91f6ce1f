import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_acceptance import first_hit
from test_engine import recorded_level_counts
from umda_lab import (
    NoiseConfig,
    UmdaConfig,
    engine,
    instrumentation,
    iteration_stats,
    level_counts,
    noisy_misrank_count,
    run,
    thresholds,
    z_values,
)
from umda_lab.engine import ENGINES
from umda_lab.model import Population, clamp_vector, init_model


def _evaluated(rows, fitness_noisy=None):
    members = np.array(rows, dtype=np.uint8)
    fit = np.array([len(list(_prefix(row))) for row in rows], dtype=np.int64)
    noisy = np.array(fitness_noisy, dtype=np.int64) if fitness_noisy is not None else fit
    return Population(members=members, fitness_true=fit, fitness_noisy=noisy)


def _prefix(row):
    for bit in row:
        if bit != 1:
            return
        yield bit


def test_level_counts_worked_example():
    pop = _evaluated([[1, 1, 1], [1, 1, 0], [0, 1, 1], [0, 0, 0]])
    c, d = level_counts(pop.fitness_true, pop.n)
    assert c.tolist() == [2, 2, 1]
    assert d.tolist() == [2, 0, 1]


def test_level_counts_all_zeros_and_all_ones():
    zeros = _evaluated([[0, 0, 0]] * 5)
    c, d = level_counts(zeros.fitness_true, zeros.n)
    assert c.tolist() == [0, 0, 0]
    assert d.tolist() == [5, 0, 0]
    ones = _evaluated([[1, 1, 1]] * 5)
    c, d = level_counts(ones.fitness_true, ones.n)
    assert c.tolist() == [5, 5, 5]
    assert d.tolist() == [0, 0, 0]


def test_z_values_examples():
    assert z_values(np.array([2, 2, 1]), mu=2) == (2, 3)
    assert z_values(np.zeros(4, dtype=int), mu=3) == (0, 0)
    assert z_values(np.full(6, 9), mu=4) == (6, 6)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=60), st.integers(1, 8))
def test_counting_identity_and_depth_order(fitness, mu):
    n = 8
    fit = np.array(fitness, dtype=np.int64)
    c, d = level_counts(fit, n)
    previous = np.concatenate(([len(fitness)], c[:-1]))
    np.testing.assert_array_equal(previous, c + d)
    z_mu, z_star = z_values(c, mu)
    assert 0 <= z_mu <= z_star <= n
    assert z_star == int(fit.max())


def test_thresholds_reference_values():
    params = thresholds(100, 0.5, 0.2, epsilon=0.1)
    # defining identities, checked against the closed forms directly
    assert (1 - 1 / 100) ** params.alpha == pytest.approx(0.5 / 0.8, rel=1e-12)
    assert (1 - 1 / 100) ** params.beta == pytest.approx(0.5 / 1.2, rel=1e-12)
    assert (1 - 1 / 100) ** params.kappa == pytest.approx(0.5, rel=1e-12)
    assert round(params.alpha) == 47
    assert round(params.beta) == 87
    assert params.alpha == pytest.approx(46.76496746941952, abs=1e-9)
    assert params.beta == pytest.approx(87.10840613837745, abs=1e-9)
    assert params.kappa == pytest.approx(68.96756393652849, abs=1e-9)


def test_thresholds_merge_as_delta_vanishes():
    params = thresholds(100, 0.5, 1e-12)
    assert params.alpha == pytest.approx(params.kappa, abs=1e-6)
    assert params.beta == pytest.approx(params.kappa, abs=1e-6)


def test_thresholds_alpha_undefined_when_ratio_reaches_one():
    params = thresholds(100, 0.5, 0.6)  # 0.5 / 0.4 > 1
    assert params.alpha is None
    assert params.beta > params.kappa  # beta still defined


def test_thresholds_validation():
    with pytest.raises(ValueError):
        thresholds(100, 0.0, 0.2)
    with pytest.raises(ValueError):
        thresholds(100, 0.5, 0.0)
    with pytest.raises(ValueError):
        thresholds(100, 0.5, 0.2, epsilon=1.5)


@given(
    st.integers(min_value=3, max_value=5000),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_threshold_ordering(n, gamma_star, delta):
    params = thresholds(n, gamma_star, delta)
    if params.alpha is not None:
        assert params.alpha <= params.kappa + 1e-9
    assert params.kappa <= params.beta + 1e-9


def test_misrank_count_zero_without_noise():
    pop = _evaluated([[1, 1, 0], [0, 1, 1]])
    for level in range(5):
        assert noisy_misrank_count(pop.fitness_true, pop.fitness_noisy, level) == 0


def test_misrank_count_forced_example():
    # true fitness 0, noisy draw flipped the first bit giving noisy score 3
    pop = _evaluated([[0, 1, 1]], fitness_noisy=[3])
    assert noisy_misrank_count(pop.fitness_true, pop.fitness_noisy, 1) == 1


def test_misrank_expectation_bounded_by_flip_rate():
    # per individual, inflating past level z_mu+1 needs the noise flip to hit
    # its first zero, so E[B] <= lam * p / n whatever the population law
    lam, n, p = 100, 10, 0.3
    config_rng = np.random.default_rng(31)
    from umda_lab.model import init_model, sample_population
    from umda_lab.objectives import evaluate_population

    model = init_model(n)
    totals = []
    for _ in range(2000):
        pop = evaluate_population(sample_population(model, lam, config_rng), NoiseConfig(p), config_rng)
        _, _, misranked = iteration_stats(pop.fitness_true, pop.fitness_noisy, n, mu=10)
        totals.append(misranked)
    bound = lam * p / n
    mean = float(np.mean(totals))
    sigma = float(np.std(totals, ddof=1)) / math.sqrt(len(totals))
    assert mean <= bound + 3 * sigma


def test_iteration_stats_truncates_levels_at_deepest():
    pop = _evaluated([[1, 1, 0], [1, 0, 0], [0, 0, 1]])
    z_mu, z_star, misranked = iteration_stats(pop.fitness_true, pop.fitness_noisy, pop.n, mu=2)
    assert z_star == 2
    c, d = level_counts(pop.fitness_true, pop.n)
    assert c.tolist() == [2, 1, 0]  # every level past z_star is empty
    assert d.tolist() == [1, 1, 1]
    assert z_mu == 1
    assert misranked == 0


def test_summarize_trace_tau_zero_indexed():
    assert first_hit([10, 20, 50], 47.0) == 2


def test_summarize_trace_tau_absent():
    assert first_hit([10, 20, 30], 47.0) is None
    assert first_hit([10, 20, 50], None) is None


def test_summarize_trace_tau_is_minimal():
    assert first_hit([10, 48, 20, 50], 47.0) == 1


def _replayed_trace(config):
    """Trace columns by hand: ``step`` in a loop, with ``z_mu`` and ``B`` of every recorded row per individual.

    ``iteration_stats`` still runs on every recorded row, for its counting identity and ``z_star``.
    """
    rng = np.random.default_rng(config.seed)
    model = init_model(config.n)
    columns = []
    t = 0
    while True:
        fitness_true, fitness_noisy, ones = engine.step(model, config, rng)
        best = int(fitness_true.max())
        final = best == config.n or config.lam * (t + 1) >= config.max_evals
        if final or t < engine.DENSE_UNTIL or t % engine.THIN_EVERY == 0:
            _, z_star, _ = iteration_stats(fitness_true, fitness_noisy, config.n, config.mu)
            z_mu = int(np.sort(fitness_true)[-config.mu])  # the mu-th largest true score
            misranked = np.count_nonzero((fitness_true <= z_mu) & (fitness_noisy > z_mu))
            columns.append((t, z_mu, z_star, best, config.lam * (t + 1), misranked))
        if final:
            return np.array(columns).T
        model = clamp_vector(ones / config.mu, config.n)
        t += 1


@pytest.mark.parametrize("noise_p", [0.0, 0.4])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_trace_rows_equal_the_step_replay(engine_name, noise_p, monkeypatch):
    config = UmdaConfig(n=30, lam=4, mu=2, max_evals=200, noise=NoiseConfig(noise_p), seed=5, engine=engine_name)
    monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
    monkeypatch.setattr(engine, "THIN_EVERY", 6)
    calls = []
    original = engine.iteration_stats

    def counting(fitness_true, fitness_noisy, n, mu):
        calls.append(fitness_true.shape)
        return original(fitness_true, fitness_noisy, n, mu)

    monkeypatch.setattr(engine, "iteration_stats", counting)
    trace = run(config).trace
    if engine_name == "levels" and noise_p == 0.0:
        assert calls == []  # noise-free rows are read off the steps' counts
    else:
        assert calls == [(config.lam,)] * 18  # one population per recorded row, 18 rows
    monkeypatch.setattr(engine, "iteration_stats", original)
    replay = _replayed_trace(config)
    for column, want in zip((trace.t, trace.z_mu, trace.z_star, trace.best_true, trace.evals, trace.misranked), replay):
        assert column.dtype == np.int64
        np.testing.assert_array_equal(column, want)


@pytest.mark.parametrize("bad_row", [0, 5, 13])
def test_a_counting_identity_violation_in_any_row_raises(bad_row, monkeypatch):
    config = UmdaConfig(n=30, lam=4, mu=2, max_evals=200, seed=5, engine="bits")  # a path that counts levels
    monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
    monkeypatch.setattr(engine, "THIN_EVERY", 6)
    seen = [0]
    original = instrumentation.level_counts

    def corrupting(fitness, n):
        c, d = original(fitness, n)
        if seen[0] == bad_row:
            d[3] += 1
        seen[0] += 1
        return c, d

    monkeypatch.setattr(instrumentation, "level_counts", corrupting)
    with pytest.raises(AssertionError, match="counting identity"):
        run(config)


def test_counting_identity_holds_throughout_a_run():
    config = UmdaConfig(n=10, lam=16, mu=4, seed=33, max_evals=3200)
    result = run(config)
    with recorded_level_counts() as counts:  # noise-free runs count nothing: count a ``step`` replay
        _replayed_trace(config)
    assert len(counts) == result.iterations
    for c, d in counts:
        size = 16
        previous = np.concatenate(([size], c[:-1]))
        np.testing.assert_array_equal(previous, c + d)


_NOISE_FREE_TRACES = {
    "optima_at_least_mu": dict(n=3, lam=30, mu=2),  # the final row has z_mu = n
    "mu_one": dict(n=40, lam=8, mu=1),
    "mu_lambda_less_one": dict(n=20, lam=10, mu=9, max_evals=10 * 300),
    "two": dict(n=2, lam=6, mu=3),
    "thinned": dict(n=30, lam=4, mu=2, max_evals=200),
    "underflow_budget": dict(n=1200, lam=40, mu=20, max_evals=40 * 30),  # P(LO > k) underflows, no success
    "tails": dict(n=12, lam=20, mu=5, track_marginals_from=0),
}


@pytest.mark.parametrize("case", _NOISE_FREE_TRACES, ids=list(_NOISE_FREE_TRACES))
def test_noise_free_trace_rows_equal_step_and_iteration_stats(case, monkeypatch):
    # the rows ``run`` reads off the steps' counts are the level statistics of the populations
    # ``step`` builds, each counted with its identity checked
    if case == "thinned":
        monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
        monkeypatch.setattr(engine, "THIN_EVERY", 6)
    final_z_mu = []
    for seed in range(3):
        config = UmdaConfig(**_NOISE_FREE_TRACES[case], seed=seed)
        trace = run(config).trace
        final_z_mu.append(trace.z_mu[-1])
        with recorded_level_counts() as counts:
            replay = _replayed_trace(config)
        assert len(counts) == len(trace)
        for column, want in zip((trace.t, trace.z_mu, trace.z_star, trace.best_true, trace.evals, trace.misranked),
                                replay):
            assert column.dtype == np.int64
            np.testing.assert_array_equal(column, want)
        if case == "thinned":
            assert trace.t.tolist() == list(range(10)) + [12, 18, 24, 30, 36, 42, 48, 49]
        if case == "underflow_budget":
            assert trace.z_star[-1] < config.n and np.multiply.accumulate(np.full(config.n, 0.5))[-1] == 0.0
    if case == "optima_at_least_mu":
        assert config.n in final_z_mu  # some run ends with at least mu optima


@pytest.mark.parametrize("bad", [-1, 1])
@pytest.mark.parametrize("bad_t", [0, 18])  # trace rows 0 and 13
def test_a_noise_free_row_with_z_mu_outside_zero_to_z_star_raises(bad_t, bad, monkeypatch):
    # z_mu below 0 or above the row's best true score
    monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
    monkeypatch.setattr(engine, "THIN_EVERY", 6)
    steps = []
    original = engine._step

    def corrupting(marginals, config, rng):
        best_true, z_mu, population, ones = original(marginals, config, rng)
        steps.append(best_true)
        if len(steps) - 1 == bad_t:
            z_mu = -1 if bad < 0 else best_true + 1
        return best_true, z_mu, population, ones

    monkeypatch.setattr(engine, "_step", corrupting)
    with pytest.raises(AssertionError, match="trace rows need"):
        run(UmdaConfig(n=30, lam=4, mu=2, max_evals=200, seed=5))


@pytest.mark.parametrize("column", ["z_star", "z_mu"])
@pytest.mark.parametrize("engine_name, noise_p", [("bits", 0.0), ("levels", 0.4)])
def test_a_scored_row_with_z_star_off_the_best_true_score_raises(engine_name, noise_p, column, monkeypatch):
    # the 6th scored row's z* is not the best true score, or its z_mu lies above its z*
    monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
    monkeypatch.setattr(engine, "THIN_EVERY", 6)
    seen = [0]
    original = engine.iteration_stats

    def corrupting(fitness_true, fitness_noisy, n, mu):
        z_mu, z_star, misranked = original(fitness_true, fitness_noisy, n, mu)
        if seen[0] == 5:
            if column == "z_star":
                z_star += 1
            else:
                z_mu = z_star + 1
        seen[0] += 1
        return z_mu, z_star, misranked

    monkeypatch.setattr(engine, "iteration_stats", corrupting)
    with pytest.raises(AssertionError, match="trace rows need"):
        run(UmdaConfig(n=30, lam=4, mu=2, max_evals=200, noise=NoiseConfig(noise_p), seed=5, engine=engine_name))
