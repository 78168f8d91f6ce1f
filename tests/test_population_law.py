"""Every sampled population along real runs against its exact law.

Let s_k = p_0 ... p_{k-1} = P(LO >= k) under the model iteration t was
sampled from.  A population of lambda independent individuals then has
P(best_true <= x) = (1 - s_{x+1})^lambda and P(z_mu <= x) =
P(Binomial(lambda, s_{x+1}) < mu).  Both are true-fitness statistics, so
noise does not change them, and both engines must follow them.

The randomised probability integral transform u_t = F(x - 1) + V (F(x) -
F(x - 1)), V uniform, is U(0, 1) given everything before iteration t.
Whether a run samples iteration t is decided before its draw, so the u_t of
every iteration of every run, the final one included, are independent
uniforms.  Each statistic's pooled u_t get one Kolmogorov-Smirnov test at
level ``ALPHA``, fixed before any data was seen.
"""

import numpy as np
import pytest
from scipy import stats

from umda_lab import NoiseConfig, UmdaConfig, run
from umda_lab.engine import ENGINES, step
from umda_lab.model import clamp_vector, init_model

ALPHA = 1e-3

# (n, lambda, mu, iteration cap, runs per engine): stall is low_pressure at
# n=100, march the runtime_scaling rule mu = ceil(5 ln n), lambda = 10 mu
_SHAPES = {
    "stall": (100, 200, 100, 1000, {"levels": 10, "bits": 6}),
    "march": (300, 290, 29, None, {"levels": 20, "bits": 6}),
}


def _brackets(models, z_mu, best_true):
    """(s_x, s_{x+1}) of each row's statistic x under the row's model, for k = 0 .. n + 1 (s_{n+1} = 0)."""
    rows, n = models.shape
    at_least = np.zeros((rows, n + 2))
    at_least[:, 0] = 1.0
    at_least[:, 1:n + 1] = np.multiply.accumulate(models, axis=1)
    index = np.arange(rows)
    return {name: np.stack((at_least[index, x], at_least[index, x + 1]))
            for name, x in (("z_mu", z_mu), ("best_true", best_true))}


def _ks_pvalues(brackets, lam, mu, rng):
    """KS p-value of each statistic's randomised PIT values, pooled over every row."""
    cdfs = {"z_mu": lambda s: stats.binom.cdf(mu - 1, lam, s), "best_true": lambda s: (1.0 - s) ** lam}
    pvalues = {}
    for name, cdf in cdfs.items():
        below, upto = cdf(np.concatenate(brackets[name], axis=1))  # F(x - 1), F(x)
        pit = below + rng.random(below.shape[0]) * (upto - below)
        pvalues[name] = stats.kstest(pit, "uniform").pvalue
    return pvalues


@pytest.mark.parametrize("noise_p", [0.0, 0.1])
@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("shape", _SHAPES)
def test_every_sampled_population_follows_its_exact_law(shape, engine_name, noise_p):
    n, lam, mu, cap, runs = _SHAPES[shape]
    brackets = {"z_mu": [], "best_true": []}
    for seed in range(runs[engine_name]):
        config = UmdaConfig(n=n, lam=lam, mu=mu, noise=NoiseConfig(noise_p), seed=seed, engine=engine_name,
                            max_evals=cap * lam if cap else None, track_marginals_from=0)
        trace = run(config).trace
        assert trace.t.tolist() == list(range(len(trace)))  # every row, the final one included
        for name, values in _brackets(trace.marginals_tail, trace.z_mu, trace.best_true).items():
            brackets[name].append(values)
    assert sum(values.shape[1] for values in brackets["z_mu"]) >= 2000
    pvalues = _ks_pvalues(brackets, lam, mu, np.random.default_rng(2024))
    assert min(pvalues.values()) > ALPHA, pvalues


@pytest.mark.slow
@pytest.mark.parametrize("noise_p", [0.0, 0.1])
def test_populations_at_n_1000_follow_their_exact_law(noise_p):
    # full snapshots would cost iterations * n * 8 bytes per run, so ``step``
    # is replayed by hand (as ``run`` loops over it) and each row is
    # transformed under the model in hand
    n, lam, mu = 1000, 350, 35
    brackets = {"z_mu": [], "best_true": []}
    for seed in range(3):
        config = UmdaConfig(n=n, lam=lam, mu=mu, noise=NoiseConfig(noise_p), seed=seed)
        rng = np.random.default_rng(config.seed)
        model = init_model(n)
        evals = 0
        while True:
            fitness_true, _, ones = step(model, config, rng)
            evals += lam
            at_least = np.add.accumulate(np.bincount(fitness_true, minlength=n + 1)[::-1])[::-1]  # #(LO >= k)
            z_mu = np.count_nonzero(at_least[1:] >= mu)
            best_true = int(fitness_true.max())
            for name, values in _brackets(model[None, :], np.array([z_mu]), np.array([best_true])).items():
                brackets[name].append(values)
            if best_true == n or evals >= config.max_evals:
                break
            model = clamp_vector(ones / mu, n)
        assert best_true == n
    assert len(brackets["z_mu"]) >= 5000
    pvalues = _ks_pvalues(brackets, lam, mu, np.random.default_rng(2025))
    assert min(pvalues.values()) > ALPHA, pvalues
