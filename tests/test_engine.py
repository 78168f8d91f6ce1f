import copy
import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umda_lab import NoiseConfig, UmdaConfig, engine, instrumentation, run, select_parents, sort_by_fitness, update_model
from umda_lab.engine import ENGINES, update_levels
from umda_lab.model import Population, check_marginals, clamp_vector, init_model


def _pop(fitnesses, n=3):
    """Rows scored by ``fitnesses``; ``fitness_true`` tags each row with its sampling index."""
    members = np.arange(len(fitnesses) * n, dtype=np.uint8).reshape(len(fitnesses), n) % 2
    for i in range(len(fitnesses)):
        members[i, 0] = i % 2  # make rows distinguishable enough for identity checks
    tags = np.arange(len(fitnesses), dtype=np.int64)
    return Population(members=members, fitness_true=tags, fitness_noisy=np.array(fitnesses, dtype=np.int64))


def test_config_validation():
    with pytest.raises(ValueError):
        UmdaConfig(n=1, lam=10, mu=5)
    with pytest.raises(ValueError):
        UmdaConfig(n=10, lam=10, mu=10)
    with pytest.raises(ValueError):
        UmdaConfig(n=10, lam=10, mu=0)
    with pytest.raises(ValueError):
        UmdaConfig(n=10, lam=10, mu=5, max_evals=9)
    assert UmdaConfig(n=10, lam=10, mu=5).max_evals == 100 * 10 * 10


def test_sort_stable_descending_with_ties():
    assert sort_by_fitness(_pop([2, 5, 5, 0]).fitness_noisy).tolist() == [1, 2, 0, 3]
    # numpy sorts a four-element array stably with any kind; at population
    # sizes with many ties only a stable sort keeps the sampling order
    scores = np.random.default_rng(8).integers(0, 5, size=200)
    assert sort_by_fitness(scores).tolist() == sorted(range(scores.size), key=lambda i: -scores[i])


def test_sort_idempotent_on_sorted_input():
    assert sort_by_fitness(_pop([7, 4, 2, 1]).fitness_noisy).tolist() == [0, 1, 2, 3]


def test_sort_all_equal_keeps_sampling_order():
    assert sort_by_fitness(_pop([3, 3, 3, 3]).fitness_noisy).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("scores", [
    np.random.default_rng(4).integers(0, 101, size=200),
    np.full(67, 12),
    np.array([5]),
    np.array([40_000, 3, 32_768, 40_000, 70_000, 0, 32_767, 3]),  # scores wider than 16 bits, tied in pairs
    np.array([-40_000, 2, -32_768, 2, 0]),
    np.array([9, 9, 7, 7, 7, 3, 0, 0]),  # already non-increasing with ties: the order is the identity
], ids=["random", "tied", "one", "wide_tied_pairs", "below_int16", "presorted_ties"])
def test_sort_by_fitness_is_the_stable_int64_argsort(scores):
    order = sort_by_fitness(scores)
    reference = np.argsort(-scores, kind="stable")
    assert order.dtype == reference.dtype == np.intp
    np.testing.assert_array_equal(order, reference)


def test_select_parents_takes_prefix():
    pop = _pop([0, 2, 1, 3])
    order = sort_by_fitness(pop.fitness_noisy)
    parents = select_parents(order, 2)
    assert pop.fitness_noisy[parents].tolist() == [3, 2]
    assert select_parents(order, 4).tolist() == [3, 1, 2, 0]
    with pytest.raises(ValueError):
        select_parents(order, 5)


def test_select_parents_tie_rule():
    pop = _pop([3, 3, 3, 0])
    parents = select_parents(sort_by_fitness(pop.fitness_noisy), 2)
    assert parents.tolist() == [0, 1]
    assert pop.fitness_noisy[parents].tolist() == [3, 3]


def test_update_model_clamps_and_divides():
    n, mu = 100, 10
    members = np.zeros((mu + 2, n), dtype=np.uint8)
    members[:mu, 0] = 1  # all parents one -> clamps to upper border
    members[:4, 2] = 1  # four ones -> 0.4
    members[mu:] = 1  # two rows that are not parents
    ones = update_model(members, np.arange(mu))
    assert ones[0] == 10 and ones[1] == 0 and ones[2] == 4
    model = clamp_vector(ones / mu, n)  # the update ``run`` makes
    assert model[0] == pytest.approx(0.99)
    assert model[1] == pytest.approx(0.01)
    assert model[2] == pytest.approx(0.4)


def test_update_model_reads_unsorted_parent_rows():
    rng = np.random.default_rng(5)
    members = (rng.random((9, 7)) < 0.5).astype(np.uint8)
    parents = np.array([7, 2, 5, 0])
    np.testing.assert_array_equal(update_model(members, parents), members[parents].sum(0))


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=12), st.integers(0, 10_000))
def test_update_model_always_lands_in_borders(n, mu, seed):
    rng = np.random.default_rng(seed)
    members = (rng.random((mu, n)) < rng.random(n)).astype(np.uint8)
    ones = update_model(members, np.arange(mu))
    model = clamp_vector(ones / mu, n)
    check_marginals(model, n)
    assert np.all(model >= 1.0 / n)
    assert np.all(model <= 1.0 - 1.0 / n)


# The run-level tests below loop over both engines: every behaviour they
# check is part of the contract of each engine.


def test_tiny_problem_is_solved_in_nearly_all_seeded_runs():
    # sampling the all-ones pair from the uniform model succeeds with
    # probability 1 - (3/4)**10 ~ 0.944 in the very first population
    for engine in ENGINES:
        wins = sum(
            run(UmdaConfig(n=2, lam=10, mu=5, max_evals=400, seed=seed, engine=engine)).success
            for seed in range(100)
        )
        assert wins >= 99, engine


def test_budget_of_one_population():
    for engine in ENGINES:
        result = run(UmdaConfig(n=40, lam=2, mu=1, max_evals=2, seed=3, engine=engine))
        assert not result.success
        assert result.iterations == 1
        assert result.evals == 2


def test_evals_equal_lambda_times_iterations():
    for engine in ENGINES:
        for seed in range(5):
            result = run(UmdaConfig(n=15, lam=12, mu=3, seed=seed, engine=engine))
            assert result.evals == 12 * result.iterations


def test_run_is_deterministic_including_trace():
    for engine in ENGINES:
        config = UmdaConfig(n=25, lam=30, mu=6, seed=123, noise=NoiseConfig(0.2), engine=engine)
        a, b = run(config), run(config)
        assert a.success == b.success and a.evals == b.evals and a.iterations == b.iterations
        np.testing.assert_array_equal(a.trace.z_mu, b.trace.z_mu)
        np.testing.assert_array_equal(a.trace.misranked, b.trace.misranked)


def test_unknown_engine_rejected():
    assert UmdaConfig(n=25, lam=30, mu=6).engine == "levels"
    with pytest.raises(ValueError, match="unknown engine"):
        UmdaConfig(n=25, lam=30, mu=6, engine="qubits")


def test_backend_flag_does_not_change_results():
    import subprocess
    import sys

    config = UmdaConfig(n=18, lam=16, mu=4, seed=5, engine="bits")
    result = run(config)
    code = (
        "from umda_lab import UmdaConfig, run\n"
        "r = run(UmdaConfig(n=18, lam=16, mu=4, seed=5, engine='bits'))\n"
        "print(r.success, r.evals, r.iterations, r.trace.z_mu.tolist())"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ.get("PYTHONPATH", "")}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:  # the child writes no bytecode cache either
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    want = f"{result.success} {result.evals} {result.iterations} {result.trace.z_mu.tolist()}"
    assert out.stdout.strip() == want


def test_success_recorded_in_final_trace_row():
    for engine in ENGINES:
        result = run(UmdaConfig(n=8, lam=30, mu=6, seed=9, engine=engine))
        assert result.success
        assert result.trace.best_true[-1] == 8


def test_zero_noise_sorts_by_true_fitness():
    for engine in ENGINES:
        result = run(UmdaConfig(n=12, lam=20, mu=5, seed=10, engine=engine))
        assert len(result.trace) == result.iterations
        assert not result.trace.misranked.any()


def test_trace_thinning_keeps_final_iteration(monkeypatch):
    monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
    monkeypatch.setattr(engine, "THIN_EVERY", 7)
    for engine_name in ENGINES:
        config = UmdaConfig(n=30, lam=4, mu=2, max_evals=200, seed=17, engine=engine_name)
        result = run(config)
        assert result.iterations == 50
        recorded = result.trace.t.tolist()
        assert recorded[:10] == list(range(10))
        assert all(t % 7 == 0 for t in recorded[10:-1])
        assert recorded[-1] == 49  # final iteration always recorded


def test_marginal_snapshots_stay_in_borders():
    for engine in ENGINES:
        config = UmdaConfig(n=12, lam=10, mu=5, max_evals=5000, seed=19, track_marginals_from=0, engine=engine)
        result = run(config)
        tails = result.trace.marginals_tail
        assert tails.shape[1] == 12
        assert np.all(tails >= 1.0 / 12) and np.all(tails <= 1.0 - 1.0 / 12)
        assert np.all(tails[0] == 0.5)


def test_trace_depth_ordering_invariant():
    for engine in ENGINES:
        result = run(UmdaConfig(n=20, lam=14, mu=7, seed=21, max_evals=7000, engine=engine))
        assert np.all(result.trace.z_mu <= result.trace.z_star)
        assert np.all(result.trace.z_star <= 20)
        assert np.all(result.trace.z_star == result.trace.best_true)


def test_trace_evals_column_counts_lambda_per_iteration():
    for engine in ENGINES:
        result = run(UmdaConfig(n=20, lam=14, mu=7, seed=22, max_evals=7000, engine=engine))
        np.testing.assert_array_equal(result.trace.evals, 14 * (result.trace.t + 1))


# The truncated shape spends its 200 evaluations in 50 iterations; with
# traces thinned by ``_thin`` its final iteration 49 is not a thinned one, so
# the recorder adds it as the final row.
_SOLVED = dict(n=12, lam=20, mu=5)
_TRUNCATED = dict(n=30, lam=4, mu=2, max_evals=200)


def _thin(monkeypatch):
    """Record iterations 0-9 densely, then every 6th."""
    monkeypatch.setattr(engine, "DENSE_UNTIL", 10)
    monkeypatch.setattr(engine, "THIN_EVERY", 6)


@pytest.mark.parametrize("shape, solved", [(_SOLVED, True), (_TRUNCATED, False)], ids=["solved", "truncated"])
@pytest.mark.parametrize("noise_p", [0.0, 0.4])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_untraced_run_matches_traced_run(engine_name, noise_p, shape, solved, monkeypatch):
    _thin(monkeypatch)
    # at noise 0.4 some of these seeds sample a noisy score of n before the
    # optimum, so a success test on noisy fitness would end those runs early
    for seed in range(5):
        config = UmdaConfig(**shape, noise=NoiseConfig(noise_p), seed=seed, engine=engine_name)
        traced = run(config)
        untraced = run(replace(config, record_trace=False))
        assert untraced.trace is None
        assert traced.success is solved
        assert (untraced.success, untraced.evals, untraced.iterations, untraced.best_true) == (
            traced.success, traced.evals, traced.iterations, traced.best_true)
        assert traced.best_true == traced.trace.best_true[-1]


@pytest.mark.parametrize("shape, solved", [(_SOLVED, True), (_TRUNCATED, False)], ids=["solved", "truncated"])
@pytest.mark.parametrize("noise_p", [0.0, 0.4])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_run_is_the_loop_over_step(engine_name, noise_p, shape, solved):
    # replaying ``step`` by hand from the run's seed gives every model and the result of ``run``
    config = UmdaConfig(**shape, noise=NoiseConfig(noise_p), seed=3, track_marginals_from=0, engine=engine_name)
    rng = np.random.default_rng(config.seed)
    model = init_model(config.n)
    models = []
    while True:
        models.append(model.copy())
        fitness_true, _, ones = engine.step(model, config, rng)
        assert np.array_equal(model, models[-1])  # ``step`` leaves its model alone
        if fitness_true.max() == config.n or config.lam * len(models) >= config.max_evals:
            break
        model = clamp_vector(ones / config.mu, config.n)
    result = run(config)
    assert (result.success, result.iterations, result.best_true) == (solved, len(models), fitness_true.max())
    assert np.array_equal(result.trace.marginals_tail, np.array(models))


@pytest.mark.parametrize("engine_name", ENGINES)
def test_iteration_stats_runs_once_per_trace_row(engine_name, monkeypatch):
    calls = []
    original = engine.iteration_stats

    def counting(fitness_true, fitness_noisy, n, mu):
        calls.append(fitness_true)
        return original(fitness_true, fitness_noisy, n, mu)

    monkeypatch.setattr(engine, "iteration_stats", counting)
    _thin(monkeypatch)
    config = UmdaConfig(**_TRUNCATED, noise=NoiseConfig(0.4), seed=31, engine=engine_name)
    run(replace(config, record_trace=False))
    assert calls == []
    traced = run(config)
    # every recorded iteration's population passes once, as one 1-d score array, in trace order
    assert [scores.shape for scores in calls] == [(config.lam,)] * len(traced.trace)
    assert [scores.max() for scores in calls] == traced.trace.best_true.tolist()
    assert traced.trace.t.tolist()[-1] == 49


def test_noise_free_levels_runs_build_no_scores(monkeypatch):
    built = []
    original = engine._ranked_levels

    def counting(survival, keys):
        built.append(original(survival, keys)[0])
        return built[-1], built[-1]

    monkeypatch.setattr(engine, "_ranked_levels", counting)
    _thin(monkeypatch)
    config = UmdaConfig(**_TRUNCATED, seed=31)
    untraced = run(replace(config, record_trace=False))
    assert built == []
    traced = run(config)
    # every trace value, the final row's included, comes from the steps' counts
    assert traced.trace.t.tolist()[-1] == untraced.iterations - 1 == 49
    assert built == []


@pytest.mark.parametrize("engine_name, noise_p, expected", [("bits", 0.4, 50), ("levels", 0.4, 50), ("levels", 0.0, 0)],
                         ids=["bits", "noisy_levels", "noise_free_levels"])
def test_sampled_populations_select_through_sort_by_fitness(engine_name, noise_p, expected, monkeypatch):
    calls = {"sort": 0, "select": 0}
    sort, select = engine.sort_by_fitness, engine.select_parents

    def counting_sort(fitness_noisy):
        calls["sort"] += 1
        return sort(fitness_noisy)

    def counting_select(order, mu):
        calls["select"] += 1
        return select(order, mu)

    monkeypatch.setattr(engine, "sort_by_fitness", counting_sort)
    monkeypatch.setattr(engine, "select_parents", counting_select)
    config = UmdaConfig(**_TRUNCATED, noise=NoiseConfig(noise_p), seed=31, engine=engine_name)
    result = run(replace(config, record_trace=False))
    assert result.iterations == 50
    # populations in sampling order select on every iteration, the final one too; noise-free
    # ``levels`` parents are the smallest of its sorted keys
    assert calls == {"sort": expected, "select": expected}


def _run_with_counts(config, counts, monkeypatch):
    """Run ``config`` with its iteration body replaced: iteration i returns ``counts[i]`` as the ones counts.

    Returns the models ``run`` iterated from: models[i + 1] is made from counts[i].
    """
    models = []

    def fake_step(marginals, config, rng):
        models.append(marginals.copy())
        scores = np.zeros(config.lam, dtype=np.int64)
        return 0, None, lambda: (scores, scores), counts[len(models) - 1]

    monkeypatch.setattr(engine, "_step", fake_step)
    run(replace(config, max_evals=config.lam * len(counts), record_trace=False))
    return models


@pytest.mark.parametrize("n, mu", [(10, 4), (100, 100), (4, 10), (2, 3), (7, 1), (500, 32)])
def test_next_model_is_the_divide_and_clamp_of_every_count(n, mu, monkeypatch):
    # every count k in [0, mu] reaches every position over the iterations;
    # mu >= n makes both borders bind, mu = 1 leaves only the two borders
    iterations = mu + 2
    counts = [(np.arange(n) + i) % (mu + 1) for i in range(iterations)]
    models = _run_with_counts(UmdaConfig(n=n, lam=mu + 1, mu=mu), counts, monkeypatch)
    assert len(models) == iterations
    for ones, model in zip(counts, models[1:]):
        for k, value in zip(ones, model):
            assert value.tobytes() == clamp_vector(np.array([k]) / mu, n).tobytes()


@pytest.mark.parametrize("bad", [-1, 5])
def test_ones_count_outside_zero_to_mu_raises(bad, monkeypatch):
    config = UmdaConfig(n=6, lam=8, mu=4)
    ones = np.array([0, 1, 2, 3, 4, 2])
    ones[3] = bad
    with pytest.raises(ValueError, match="outside"):
        _run_with_counts(config, [ones, ones], monkeypatch)


@contextmanager
def recorded_level_counts():
    """Collect the full-length (C, D) vectors of every population ``iteration_stats`` counts."""
    counts = []
    original = instrumentation.level_counts

    def recording(fitness, n):
        c, d = original(fitness, n)
        counts.append((c, d))
        return c, d

    instrumentation.level_counts = recording
    try:
        yield counts
    finally:
        instrumentation.level_counts = original


def _replayed_level_counts(config):
    """The (C, D) pairs ``iteration_stats`` counts on every population of a ``step`` replay of ``config``."""
    rng = np.random.default_rng(config.seed)
    model = init_model(config.n)
    with recorded_level_counts() as counts:
        for _ in range(config.max_evals // config.lam):  # a budget of whole populations
            fitness_true, fitness_noisy, ones = engine.step(model, config, rng)
            instrumentation.iteration_stats(fitness_true, fitness_noisy, config.n, config.mu)
            if fitness_true.max() == config.n:
                break
            model = clamp_vector(ones / config.mu, config.n)
    return counts


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=16),
    st.sampled_from([0.0, 0.4]),
    st.integers(0, 10_000),
)
def test_level_engine_keeps_borders_and_counting_identity(n, mu, extra, noise_p, seed):
    lam = mu + extra
    config = UmdaConfig(
        n=n, lam=lam, mu=mu, noise=NoiseConfig(noise_p), seed=seed, max_evals=60 * lam,
        track_marginals_from=0, engine="levels",
    )
    with recorded_level_counts() as counts:
        result = run(config)
    tails = result.trace.marginals_tail
    assert np.all(tails >= 1.0 / n) and np.all(tails <= 1.0 - 1.0 / n)
    if noise_p == 0.0:  # noise-free rows count nothing: count the populations of a ``step`` replay
        assert counts == []
        counts = _replayed_level_counts(config)
    assert len(counts) == result.iterations
    for (c, d), z_star in zip(counts, result.trace.z_star):
        assert c.shape == d.shape == (n,)
        assert np.count_nonzero(c) == z_star and not c[z_star:].any()
        np.testing.assert_array_equal(np.concatenate(([lam], c))[:-1], c + d)


def _levels(noisy):
    return np.array(noisy, dtype=np.int64)


def test_select_levels_is_stable_top_mu():
    assert select_parents(sort_by_fitness(_levels([2, 5, 5, 0])), 2).tolist() == [1, 2]
    assert select_parents(sort_by_fitness(_levels([3, 3, 3, 0])), 2).tolist() == [0, 1]
    assert select_parents(sort_by_fitness(_levels([7, 4, 2, 1])), 3).tolist() == [0, 1, 2]


def _inverse_cdf_levels(marginals, uniforms):
    """Loop reference: each uniform's leading-ones value, in sampling order, from the prefix products."""
    survival, product = [], 1.0
    for p in marginals:
        product *= p
        survival.append(product)  # survival[k] = P(LO > k)
    return np.array([sum(s > u for s in survival) for u in uniforms], dtype=np.int64)


_SAMPLER_CASES = {
    "one": (np.full(10, 0.5), 1),
    "all_equal": (np.full(50, 0.9), 200),
    "underflow": (np.full(1200, 1.0 / 1200), 300),  # P(LO > k) underflows to 0 from k ~ 100
    "two": (np.full(2, 0.5), 40),  # LO = n occurs
    "mixed": (np.random.default_rng(2).uniform(0.5, 0.99, size=80), 320),
}


@pytest.mark.parametrize("case", _SAMPLER_CASES, ids=list(_SAMPLER_CASES))
def test_noise_free_step_materializes_the_ranked_inverse_cdf(case):
    # the population a noise-free level step materializes from its sorted keys
    marginals, lam = _SAMPLER_CASES[case]
    n, lam = marginals.shape[0], max(lam, 2)  # a config needs mu < lambda
    rng = np.random.default_rng(41)
    clone = copy.deepcopy(rng)
    _, _, population, ones = engine._step(marginals, UmdaConfig(n=n, lam=lam, mu=1), rng)
    fitness_true, fitness_noisy = population()
    reference = _inverse_cdf_levels(marginals, clone.random(lam))
    # one population, nothing revealed: the reference's multiset, ranked non-increasing
    assert fitness_noisy is fitness_true
    np.testing.assert_array_equal(fitness_true, np.sort(reference)[::-1])
    # exactly lam doubles, then one binomial over positions 1..n-1 for the one parent's unseen bits
    unseen = (np.arange(1, n) > reference.max()).astype(np.int64)
    np.testing.assert_array_equal(ones[1:] - (np.arange(1, n) < reference.max()), clone.binomial(unseen, marginals[1:]))
    assert rng.bit_generator.state == clone.bit_generator.state
    if case == "two":
        assert (fitness_true == 2).any() and (fitness_true == 0).any()
    if case == "underflow":
        assert np.multiply.accumulate(marginals)[-1] == 0.0


@pytest.mark.parametrize("mu_at", ["one", "middle", "all_but_one"])
@pytest.mark.parametrize("case", _SAMPLER_CASES, ids=list(_SAMPLER_CASES))
def test_noise_free_step_counts_the_mu_smallest_keys(case, mu_at):
    # the step's counts are ``update_levels`` on its own materialized population, with the same draws
    marginals, lam = _SAMPLER_CASES[case]
    lam = max(lam, 2)
    mu = {"one": 1, "middle": lam // 2, "all_but_one": lam - 1}[mu_at]
    rng = np.random.default_rng(47)
    clone = copy.deepcopy(rng)
    n = marginals.shape[0]
    best_true, z_mu, population, ones = engine._step(marginals, UmdaConfig(n=n, lam=lam, mu=mu), rng)
    fitness_true, _ = population()
    clone.random(lam)
    np.testing.assert_array_equal(ones, update_levels(fitness_true, fitness_true, slice(0, mu), marginals, clone))
    assert (z_mu, best_true) == tuple(instrumentation.iteration_stats(fitness_true, fitness_true, n, mu)[:2])
    assert rng.bit_generator.state == clone.bit_generator.state


class _KeysRng:
    """A generator whose uniforms are the given keys; its binomials are a real generator's."""

    def __init__(self, keys, rng):
        self.keys, self.rng = keys, rng

    def random(self, size):
        assert size == self.keys.size
        return self.keys.copy()

    def binomial(self, trials, p):
        return self.rng.binomial(trials, p)


@pytest.mark.parametrize("mu", [1, 3, 6])
def test_noise_free_step_keys_equal_to_prefix_products(mu):
    # keys equal to survival[j] = P(LO > j) have exactly j leading ones; a zero key is the optimum
    marginals = np.full(4, 0.5)  # survival 1/2, 1/4, 1/8, 1/16, exact in binary
    keys = np.array([0.25, 0.5, 0.0625, 0.9, 0.125, 0.0, 0.25])
    reference = np.sort(_inverse_cdf_levels(marginals, keys))[::-1]
    assert reference.tolist() == [4, 3, 2, 1, 1, 0, 0]
    best_true, z_mu, population, ones = engine._step(
        marginals, UmdaConfig(n=4, lam=keys.size, mu=mu), _KeysRng(keys, np.random.default_rng(mu)))
    np.testing.assert_array_equal(population()[0], reference)
    np.testing.assert_array_equal(ones, update_levels(reference, reference, slice(0, mu), marginals,
                                                      np.random.default_rng(mu)))
    assert (best_true, z_mu) == (4, reference[mu - 1])


def test_noise_free_step_checks_the_parents_counts():
    # prefix products that rise (a marginal above 1, which no bordered model has) break the sort
    # order of the counts; the step raises before any score is built
    marginals = np.array([0.5, 1.5, 1.5, 1.5])
    with pytest.raises(ValueError, match="non-increasing"):
        engine._step(marginals, UmdaConfig(n=4, lam=50, mu=25), np.random.default_rng(3))


@pytest.mark.parametrize("noise_p", [0.0, 0.4])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_population_draws_nothing(engine_name, noise_p):
    config = UmdaConfig(n=30, lam=20, mu=4, noise=NoiseConfig(noise_p), engine=engine_name)
    rng = np.random.default_rng(12)
    best_true, z_mu, population, _ = engine._step(np.full(30, 0.9), config, rng)
    state = rng.bit_generator.state
    fitness_true, fitness_noisy = population()
    assert rng.bit_generator.state == state
    assert best_true == fitness_true.max() and fitness_true.shape == fitness_noisy.shape == (20,)
    # only a noise-free ``levels`` step reads z_mu off its counts
    if engine_name == "levels" and noise_p == 0.0:
        assert z_mu == instrumentation.iteration_stats(fitness_true, fitness_noisy, 30, 4)[0]
    else:
        assert z_mu is None


@pytest.mark.parametrize("zeros", [0, 1, 5, 9])
def test_binomial_over_zero_trials_draws_nothing(zeros):
    # a zero-count prefix leaves the stream where the trimmed draw leaves it
    trials = np.concatenate((np.zeros(zeros, dtype=np.int64), np.arange(1, 10 - zeros)))
    p = np.linspace(0.1, 0.9, trials.size)
    rng = np.random.default_rng(zeros)
    clone = copy.deepcopy(rng)
    full, trimmed = rng.binomial(trials, p), clone.binomial(trials[zeros:], p[zeros:])
    assert not full[:zeros].any()
    np.testing.assert_array_equal(full[zeros:], trimmed)
    assert rng.bit_generator.state == clone.bit_generator.state


def _noisy_levels_reference(marginals, lam, p, rng):
    """Loop reference for noisy ``sample_levels``, in sampling order: (true, noisy, reveal end) lists.

    Draws lam keys, lam coins, one flip index per noisy individual and one
    uniform per individual whose flip hit its first zero.
    """
    n = marginals.shape[0]
    survival = np.multiply.accumulate(marginals)
    lo = _inverse_cdf_levels(marginals, rng.random(lam)).tolist()
    rows = [i for i, coin in enumerate(rng.random(lam)) if coin < p]
    noisy, end = list(lo), list(lo)
    flips = rng.integers(0, n, size=len(rows)).tolist() if rows else []
    hits = [i for i, flip in zip(rows, flips) if flip == lo[i]]
    for i, flip in zip(rows, flips):
        noisy[i] = min(flip, lo[i])
    for i, u in zip(hits, rng.random(len(hits)) if hits else []):
        end[i] = noisy[i] = max(int(sum(s > u * survival[lo[i]] for s in survival)), lo[i] + 1)
    return lo, noisy, end


@pytest.mark.parametrize("lam, noise_p, seed", [(320, 0.5, 43), (13, 0.1, 44), (67, 0.9, 45)])
def test_noisy_sample_levels_is_the_loop_reference_in_sampling_order(lam, noise_p, seed):
    marginals = _SAMPLER_CASES["mixed"][0]
    rng = np.random.default_rng(seed)
    clone = copy.deepcopy(rng)
    fitness_true, fitness_noisy, reveal_end = engine.sample_levels(marginals, lam, NoiseConfig(noise_p), rng)
    lo, noisy, end = _noisy_levels_reference(marginals, lam, noise_p, clone)
    np.testing.assert_array_equal(fitness_noisy, noisy)
    np.testing.assert_array_equal(fitness_true, lo)
    np.testing.assert_array_equal(reveal_end, end)
    # exactly the reference's draws
    assert rng.bit_generator.state == clone.bit_generator.state
    if lam == 320:
        # noisy scores that hide different true scores, and revealed runs, both occur
        assert (fitness_true != fitness_noisy).any() and (reveal_end != fitness_true).any()


class _RecordingRng:
    """Stands in for the generator: records the binomial trials and draws no ones."""

    def binomial(self, trials, p):
        self.trials = np.asarray(trials).copy()
        return np.zeros_like(trials)


def _seen_bits(lo, end, n):
    """Loop reference for ``update_levels``: per position, parents' seen ones and unseen bits."""
    ones, unseen = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for lo_i, end_i in zip(lo, end):
        for j in range(n):
            if j < lo_i or lo_i < j < end_i:
                ones[j] += 1
            elif j != lo_i and j != end_i:
                unseen[j] += 1
    return ones, unseen


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("noise_p", [0.0, 0.9])
def test_update_levels_counts_what_sample_levels_revealed(noise_p, seed):
    n, lam, mu = 12, 30, 10
    marginals = np.random.default_rng(seed).uniform(0.75, 1.0 - 1.0 / n, size=n)
    rng = np.random.default_rng(100 + seed)
    fitness_true, fitness_noisy, reveal_end = engine.sample_levels(marginals, lam, NoiseConfig(noise_p), rng)
    parents = select_parents(sort_by_fitness(fitness_noisy), mu)
    revealed = reveal_end is not fitness_true
    assert revealed == (noise_p > 0.0)  # these seeds do reveal ones runs under noise
    ones_seen, unseen = _seen_bits(fitness_true[parents], reveal_end[parents], n)
    recording = _RecordingRng()
    ones = update_levels(fitness_true, reveal_end, parents, marginals, recording)
    first = fitness_true[parents].min() + 1
    np.testing.assert_array_equal(ones, ones_seen)
    np.testing.assert_array_equal(recording.trials, unseen[first:])
    # the bookkeeping skipped when nothing was revealed counts the same as an equal copy
    draws = [update_levels(fitness_true, end, parents, marginals, np.random.default_rng(seed))
             for end in (reveal_end, reveal_end.copy())]
    np.testing.assert_array_equal(draws[0], draws[1])


def test_update_levels_counts_seen_and_unseen_bits():
    # parent 0: 3 leading ones, then a zero at 3, rest unseen
    # parent 1: 0 leading ones; noise flipped position 0 and revealed ones
    #           at 1 and 2 and a zero at 3, rest unseen
    rng = _RecordingRng()
    ones = update_levels(_levels([3, 0]), _levels([3, 3]), np.array([0, 1]), init_model(6), rng)
    assert ones.tolist() == [1, 2, 2, 0, 0, 0]
    # unseen bits from position 1 on (past the lowest parent's first zero)
    assert rng.trials.tolist() == [0, 0, 0, 2, 2]
    assert clamp_vector(ones / 2, 6)[1] == pytest.approx(1.0 - 1.0 / 6)
