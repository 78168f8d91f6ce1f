"""The parents' ones count at every position after one noise-free step, against its exact mean.

Let s_j = p_0 ... p_{j-1} and C_j = #(LO >= j), so C_j ~ Binomial(lambda,
s_j) and, given C_j = c, C_{j+1} ~ Binomial(c, p_j).  The parents are the mu
best, so min(C_{j+1}, mu) of them have a one at j from their leading ones
and mu - min(C_j, mu) have fewer than j leading ones and an unseen
Bernoulli(p_j) bit at j:

    ones_j = min(C_{j+1}, mu) + Binomial(mu - min(C_j, mu), p_j).

Mean and variance follow exactly by summing over c, in O(n lambda^2).  The
mean of ``STEPS`` independent steps from one fixed model gets a z-test at
every position, Bonferroni over the n positions at family level ``ALPHA``,
fixed before any data was seen.  Unlike ``oracle transition`` this reaches
realistic n, where a bug that shows only on long strings can live.
"""

import numpy as np
import pytest
from scipy import stats

from umda_lab import UmdaConfig, run
from umda_lab.engine import ENGINES, step
from umda_lab.oracle import exact_transition

ALPHA = 1e-3
STEPS = 20_000


def exact_ones_moments(marginals, lam, mu):
    """Exact mean and variance of the parents' ones count at each position after one noise-free step."""
    k = np.arange(lam + 1)
    capped = np.minimum(k, mu)
    at_least = np.concatenate(([1.0], np.multiply.accumulate(marginals)))  # s_0 .. s_n
    mean, variance = np.empty(marginals.size), np.empty(marginals.size)
    for j, p in enumerate(marginals):
        weight = stats.binom.pmf(k, lam, at_least[j])  # P(C_j = c)
        given = stats.binom.pmf(k[None, :], k[:, None], p)  # row c: P(C_{j+1} = k | C_j = c)
        seen = given @ capped
        unseen = mu - capped  # parents with fewer than j leading ones, per c
        # the two terms are independent given c; every variance is a sum of non-negative terms
        within = (given * (capped - seen[:, None]) ** 2).sum(axis=1) + unseen * p * (1 - p)
        mean[j] = weight @ (seen + unseen * p)
        variance[j] = weight @ (within + (seen + unseen * p - mean[j]) ** 2)
    return mean, variance


def _stall_snapshot():
    """The model a low_pressure run at n=100 (``levels``, seed 7) samples iteration 500 from."""
    config = UmdaConfig(n=100, lam=200, mu=100, seed=7, max_evals=200 * 501, track_marginals_from=0)
    return run(config).trace.marginals_tail[500]


@pytest.mark.parametrize("marginals, lam, mu", [([0.7, 0.4, 0.9], 5, 2), ([2 / 3, 0.5, 1 / 3, 0.8], 4, 1),
                                                ([0.5, 0.9], 6, 4)])
def test_exact_moments_match_the_enumerated_transition(marginals, lam, mu):
    # the closed form against every population, enumerated, at sizes ``exact_transition`` reaches
    law = exact_transition(marginals, lam=lam, mu=mu)
    support = np.array(law.support, dtype=np.float64)
    mean, variance = exact_ones_moments(np.array(marginals), lam, mu)
    np.testing.assert_allclose(mean, law.probabilities @ support, rtol=0, atol=1e-12)
    np.testing.assert_allclose(variance, law.probabilities @ (support - mean) ** 2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("model", ["all_0.9", pytest.param("stall", marks=pytest.mark.slow)])
def test_parents_ones_per_position_follow_the_exact_mean(model, engine_name):
    if model == "all_0.9":
        marginals, lam, mu = np.full(30, 0.9), 20, 4
    else:
        marginals, lam, mu = _stall_snapshot(), 200, 100
    n = marginals.size
    mean, variance = exact_ones_moments(marginals, lam, mu)
    config = UmdaConfig(n=n, lam=lam, mu=mu, engine=engine_name)
    rng = np.random.default_rng(2025)
    total = np.zeros(n)
    for _ in range(STEPS):
        total += step(marginals, config, rng)[2]
    # the exact moments are float64 sums of at most (lambda + 1)^2 terms of size <= mu, so a count
    # the model all but fixes (variance ~1e-100) is compared up to that rounding, not by its spread
    rounding = (lam + 1) ** 2 * mu * np.finfo(np.float64).eps
    excess = np.maximum(np.abs(total / STEPS - mean) - rounding, 0.0)
    with np.errstate(divide="ignore"):
        z = np.divide(excess, np.sqrt(variance / STEPS), out=np.zeros(n), where=excess > 0)
    critical = stats.norm.isf(ALPHA / (2 * n))
    assert z.max() < critical, (z.argmax(), z.max(), critical)
