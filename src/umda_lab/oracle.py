"""Exact reference computations the stochastic engine is validated against.

Two independent routes to the law of the per-level counts are provided: the
conditional-binomial chain and literal enumeration of every possible
population.  They must agree to within floating-point accumulation error,
which is what the chain check asserts.  ``exact_transition`` enumerates one
full sample, score, select and update step, noise included, which both
engines are checked against.  Every enumeration here visits and weights
each outcome of its space, under a size cap checked before anything of that
size is allocated; they are correctness anchors, not engines.  The level
enumeration tallies its populations by radix code in numpy rather than one
by one in Python, and still shares no code with the chain.  It and the
brute-force expected maximum build no population bit rows: weights come
from one outer product per bit, and codes and maxima from one outer sum or
maximum per individual over the 2^n single individuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import kernels
from .engine import Trace
from .instrumentation import ThresholdParams

CHAIN_MAX_POPULATION = 8
CHAIN_MAX_N = 6
ENUMERATION_MAX_BITS = 16
TRANSITION_MAX_OUTCOMES = 2**20
_TRANSITION_CHUNK = 2**16
CHI_SQUARE_SIGNIFICANCE = 0.001


@dataclass(frozen=True)
class ExactDistribution:
    """Finite distribution over outcome tuples; probabilities sum to 1."""

    support: tuple
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if len(self.support) != probs.shape[0]:
            raise ValueError("support and probabilities must align")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "support", tuple(self.support))

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.probabilities))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of an empirical-vs-exact frequency comparison."""

    tv_distance: float
    chi_square: float
    chi_square_critical: float
    passed: bool


@dataclass(frozen=True)
class TailMarginalReport:
    mean: float
    ci_low: float
    ci_high: float
    n_samples: int


def _binom_pmf(k: int, trials: int, p: float) -> float:
    return math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)


def exact_level_chain(marginals: Sequence[float], size: int) -> ExactDistribution:
    """Joint law of the per-level counts via chained conditional binomials.

    The count at level 1 is Binomial(size, p_1); conditional on the count at
    level i-1 the count at level i is Binomial(count_{i-1}, p_i).  Sizes are
    capped (size <= 8, n <= 6); larger inputs are rejected as infeasible.
    """
    marginals = np.asarray(marginals, dtype=np.float64)
    n = marginals.shape[0]
    if size < 1:
        raise ValueError("population size must be at least 1")
    if size > CHAIN_MAX_POPULATION or n > CHAIN_MAX_N:
        raise ValueError(
            f"infeasible size for exact chain: size={size} (max {CHAIN_MAX_POPULATION}), "
            f"n={n} (max {CHAIN_MAX_N})"
        )
    states: dict[tuple, float] = {(): 1.0}
    for i in range(n):
        p = float(marginals[i])
        successors: dict[tuple, float] = {}
        for prefix, prob in states.items():
            trials = prefix[-1] if prefix else size
            for count in range(trials + 1):
                key = prefix + (count,)
                successors[key] = successors.get(key, 0.0) + prob * _binom_pmf(count, trials, p)
        states = successors
    support = sorted(states)
    return ExactDistribution(support=tuple(support), probabilities=np.array([states[s] for s in support]))


def _enumeration_outcomes(total_bits: int) -> int:
    """Number of bit strings of ``total_bits`` bits; raises above the enumeration cap."""
    if total_bits > ENUMERATION_MAX_BITS:
        raise ValueError(
            f"infeasible enumeration: 2^{total_bits} outcomes (cap 2^{ENUMERATION_MAX_BITS})"
        )
    return 2**total_bits


def _all_bit_matrices(total_bits: int) -> np.ndarray:
    """Bit rows of every code of ``total_bits`` bits, most significant bit first."""
    codes = np.arange(_enumeration_outcomes(total_bits), dtype=np.int64)
    shifts = np.arange(total_bits - 1, -1, -1)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _product_weights(p: np.ndarray) -> np.ndarray:
    """Product weight of every bit string of ``len(p)`` bits, most significant bit first.

    One outer product per bit, so each weight is the left-to-right chain of
    factors that a row-wise ``prod`` of the bit row's factors performs.
    """
    weights = np.ones(1)
    for factors in np.stack([1.0 - p, p], axis=1):
        weights = (weights[:, None] * factors).ravel()
    return weights


def enumerate_level_distribution(marginals: Sequence[float], size: int) -> ExactDistribution:
    """Joint law of the per-level counts by enumerating every population.

    Visits all 2**(size*n) populations, weighting each by its product
    probability, and tallies them by the radix code of their count vector
    (level 1 the most significant digit, so code order is tuple order).  An
    individual with LO leading ones adds one to the digits of levels 1..LO,
    so codes are outer sums over individuals, the first most significant.
    The weights are added in population order by one tally, so the law is
    the one a plain per-population walk gives, bit for bit; outcomes of
    weight zero stay in the support.  Independent of the chain above.
    """
    marginals = np.asarray(marginals, dtype=np.float64)
    n = marginals.shape[0]
    _enumeration_outcomes(size * n)
    radix = size + 1
    lo = kernels.leading_ones_rows(_all_bit_matrices(n))
    digits = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)  # level 1 first
    own = np.concatenate(([0], np.cumsum(digits)))[lo]  # one in each digit of levels 1..LO
    codes = np.zeros(1, dtype=np.int64)
    for _ in range(size):
        codes = (codes[:, None] + own).ravel()
    law = np.bincount(codes, weights=_product_weights(np.tile(marginals, size)))
    support = np.nonzero(np.bincount(codes))[0]
    return ExactDistribution(
        support=tuple(zip(*(values.tolist() for values in np.unravel_index(support, (radix,) * n)))),
        probabilities=law[support],
    )


def transition_outcomes(n: int, lam: int, noise_p: float) -> int:
    """Joint outcomes ``exact_transition`` enumerates; raises when infeasible."""
    if not 0.0 <= noise_p < 1.0:
        raise ValueError(f"flip probability must be in [0, 1), got {noise_p}")
    if n < 1 or lam < 1 or n * lam > ENUMERATION_MAX_BITS:
        raise ValueError(f"infeasible transition enumeration: n*lambda={n * lam} bits (cap {ENUMERATION_MAX_BITS})")
    outcomes = (2**n * (n + 1 if noise_p > 0.0 else 1)) ** lam
    if outcomes > TRANSITION_MAX_OUTCOMES:
        raise ValueError(f"infeasible transition enumeration: {outcomes} outcomes (cap {TRANSITION_MAX_OUTCOMES})")
    return outcomes


def exact_transition(marginals: Sequence[float], lam: int, mu: int, noise_p: float = 0.0) -> ExactDistribution:
    """Law of the parents' ones-count vector after one step from ``marginals``.

    Enumerates every population of ``lam`` individuals together with every
    noise outcome of each individual: no flip with probability 1 - p, else a
    flip of position k with probability p / n.  Each outcome is scored,
    ranked stably by noisy score (ties keep sampling order), and the bits of
    its first ``mu`` individuals are summed per position.  Sizes are capped
    (n * lam <= 16 bits and at most 2**20 joint outcomes) and checked before
    anything is allocated.
    """
    marginals = np.asarray(marginals, dtype=np.float64)
    n = marginals.shape[0]
    if not 1 <= mu < lam:
        raise ValueError(f"need 1 <= mu < lambda, got mu={mu}, lambda={lam}")
    outcomes = transition_outcomes(n, lam, noise_p)
    options = n + 1 if noise_p > 0.0 else 1  # no flip, then a flip of each position
    per_individual = 2**n * options
    bits = _all_bit_matrices(n)
    seen = np.repeat(bits[:, None, :], options, axis=1)  # (2**n, options, n)
    for k in range(options - 1):
        seen[:, k + 1, k] ^= 1
    scores = kernels.leading_ones_rows(seen.reshape(-1, n))
    noise_weights = np.array([1.0 - noise_p] + [noise_p / n] * (options - 1))
    weights = (_product_weights(marginals)[:, None] * noise_weights).ravel()
    outcome_bits = np.repeat(bits.astype(np.int64), options, axis=0)
    radix = mu + 1
    places = radix ** np.arange(n - 1, -1, -1)
    law = np.zeros(radix**n)
    for start in range(0, outcomes, _TRANSITION_CHUNK):
        codes = np.arange(start, min(start + _TRANSITION_CHUNK, outcomes))
        members = np.stack(np.unravel_index(codes, (per_individual,) * lam), axis=1)
        order = np.argsort(-scores[members], axis=1, kind="stable")[:, :mu]
        parents = np.take_along_axis(members, order, axis=1)
        ones = outcome_bits[parents].sum(axis=1)
        law += np.bincount(ones @ places, weights=weights[members].prod(axis=1), minlength=radix**n)
    support = np.nonzero(law)[0]
    return ExactDistribution(
        support=tuple(zip(*(values.tolist() for values in np.unravel_index(support, (radix,) * n)))),
        probabilities=law[support],
    )


def exact_expected_max_leading_ones(n: int, k: int, q: float) -> float:
    """Expected maximum leading-ones value among k independent individuals.

    Each bit is 1 with probability q.  Uses the survival-sum form
    sum_{j=1..n} (1 - P(single value <= j-1)**k); the sum stops at n since
    no value can exceed n, so there is no truncation error.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"bit probability must be in [0, 1], got {q}")
    total = 0.0
    for j in range(1, n + 1):
        at_most = 1.0 - q**j  # P(single individual has fewer than j leading ones)
        total += 1.0 - at_most**k
    return total


def brute_force_expected_max_leading_ones(n: int, k: int, q: float) -> float:
    """Same expectation by enumerating all 2**(n*k) joint outcomes.

    Each outcome's maximum is one outer maximum per individual over the 2**n
    single values, its weight a product over its bits; the terms are summed
    once in outcome order.
    """
    _enumeration_outcomes(n * k)
    lo = kernels.leading_ones_rows(_all_bit_matrices(n))
    best = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        best = np.maximum(best[:, None], lo).ravel()
    return float((best * _product_weights(np.full(n * k, q))).sum())


def total_variation(p: ExactDistribution, q: ExactDistribution) -> float:
    """TV distance between two distributions on (possibly different) supports."""
    pd, qd = p.as_dict(), q.as_dict()
    keys = set(pd) | set(qd)
    return float(0.5 * sum(abs(pd.get(key, 0.0) - qd.get(key, 0.0)) for key in keys))


def empirical_vs_exact(
    samples: Mapping[tuple, float],
    exact: ExactDistribution,
    tv_threshold: float,
) -> ComparisonReport:
    """Compare observed outcome counts against an exact distribution.

    Passes iff the total-variation distance stays below ``tv_threshold`` and
    the chi-square statistic stays below the critical value at significance
    ``CHI_SQUARE_SIGNIFICANCE``.  Outcomes outside the exact support are an
    error.
    """
    unknown = set(samples) - set(exact.support)
    if unknown:
        raise ValueError(f"samples contain outcomes outside the exact support: {sorted(unknown)[:3]}")
    counts = np.array([float(samples.get(outcome, 0.0)) for outcome in exact.support])
    total = counts.sum()
    if total <= 0:
        raise ValueError("samples must contain at least one observation")
    empirical = counts / total
    tv = 0.5 * float(np.abs(empirical - exact.probabilities).sum())
    positive = exact.probabilities > 0.0
    if np.any(counts[~positive] > 0):
        chi_square = math.inf
    else:
        expected = total * exact.probabilities[positive]
        chi_square = float(((counts[positive] - expected) ** 2 / expected).sum())
    dof = int(positive.sum()) - 1
    from scipy import stats as scipy_stats  # imported here: it costs most of a cold start

    critical = float(scipy_stats.chi2.ppf(1.0 - CHI_SQUARE_SIGNIFICANCE, dof)) if dof > 0 else 0.0
    passed = tv <= tv_threshold and chi_square <= critical
    return ComparisonReport(
        tv_distance=tv,
        chi_square=chi_square,
        chi_square_critical=critical,
        passed=passed,
    )


def transition_tv_threshold(exact: ExactDistribution, samples: int) -> float:
    """TV bound for ``check_transition``: sqrt(K / samples) over K outcomes.

    The expected TV distance of an exact sampler is at most sqrt(K / (2 pi
    samples)), so the bound sits about 2.5 times above it.
    """
    return math.sqrt(len(exact.support) / samples)


def check_transition(step: Callable[[], np.ndarray], exact: ExactDistribution, samples: int) -> ComparisonReport:
    """Compare the ones-count vectors of ``samples`` calls of ``step`` with ``exact``.

    Passes iff the TV distance stays within ``transition_tv_threshold`` and
    the chi-square test passes at significance ``CHI_SQUARE_SIGNIFICANCE``.
    """
    counts: dict[tuple, int] = {}
    for _ in range(samples):
        outcome = tuple(step().tolist())
        counts[outcome] = counts.get(outcome, 0) + 1
    return empirical_vs_exact(counts, exact, transition_tv_threshold(exact, samples))


def tail_marginal_frequency_test(
    traces: Sequence[Trace],
    params: ThresholdParams,
    window: Optional[tuple[int, int]] = None,
) -> TailMarginalReport:
    """Mean tail marginal across runs and iterations, with a normal-approx CI.

    Tail positions start beyond ``beta + 2`` (0-based ``floor(beta + 2)``).
    The iteration ``window`` indexes recorded trace rows and defaults to the
    second half of each trace (burn-in discarded).
    """
    cutoff = params.tail_cutoff
    values = []
    for trace in traces:
        if trace.marginals_tail is None or trace.tail_start is None:
            raise ValueError("traces must carry marginal snapshots")
        if trace.tail_start > cutoff:
            raise ValueError("trace marginal tracking starts after the first tail position")
        rows = len(trace)
        lo, hi = window if window is not None else (rows // 2, rows)
        if not (0 <= lo < hi <= rows):
            raise ValueError(f"window {window} outside trace of length {rows}")
        offset = cutoff - trace.tail_start
        values.append(trace.marginals_tail[lo:hi, offset:].ravel())
    flat = np.concatenate(values)
    mean = float(flat.mean())
    half_width = 1.96 * float(flat.std(ddof=1)) / math.sqrt(flat.size) if flat.size > 1 else 0.0
    return TailMarginalReport(
        mean=mean,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
        n_samples=int(flat.size),
    )
