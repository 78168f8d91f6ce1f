"""The sample / score / select / update loop, on bits or on leading-ones levels.

The model is a plain float64 array of n marginals.  One iteration body,
``step``, serves both engines: it checks the model it samples from against
the borders, samples and scores ``lambda`` individuals with
``config.engine`` (the only engine dispatch), takes the mu best by noisy
score, ties in sampling order, and counts the parents' ones per position.
A population in sampling order (``bits``, and ``levels`` with noise) is
ranked by ``sort_by_fitness`` and cut to mu by ``select_parents``;
noise-free ``levels`` parents are the mu smallest of its sorted keys.
``run`` loops over ``step`` (budget, success check, trace recording and
marginal snapshots) and looks the next model up in a table built once per
run: entry k is k/mu clamped to the borders, the same division and clamp
for every count.  Every count is checked to lie in [0, mu], so every
model ``run`` makes is inside the borders and it skips ``step``'s border
check.  It reads each population's best true score and records each
trace row as its iteration ends.  A noise-free ``levels`` step also gives
z_mu, so its rows build no scores (only ``step`` builds them); a ``bits``
or noisy row passes its scores to ``iteration_stats``.  Every trace row is
checked for 0 <= z_mu <= z* = best true score.  ``oracle transition``
samples steps.

``bits`` draws every bit of every individual.  Per iteration its stream is
consumed in a fixed order: the (lambda, n) uniform sampling block
row-major, then (only when noise is active) one noise coin per individual
followed by one flip index per noisy individual.  It is the literal
reference: at a fixed seed its CSV bytes do not change.

``levels`` (the default) draws only what selection can see.  LeadingOnes
reads an individual up to its first zero, and every later bit is an
independent Bernoulli(p_j) draw that no score depends on.  So each
individual is sampled as its leading-ones value, by inverse CDF on the
prefix products of the marginals; a noise flip of the first zero reveals
the ones run after it, sampled the same way.  After selection the parents'
ones count at position j is the number with more than j leading ones, plus
the revealed ones at j, plus a binomial over the parents whose bit j was
never looked at, drawn after the lowest parent's leading ones.  This gives
the same law of the model sequence, at O(n + lambda log n) per iteration
instead of O(lambda n); ``oracle.exact_transition`` checks one full step
of both engines.  Stream order per iteration: lambda uniforms for the
leading-ones values, then (noise only) lambda coins, one flip index per
noisy individual and one uniform per individual whose flip hit its first
zero, then one binomial per position.  Without noise the lambda uniforms
are sorted, the parents are the mu smallest and the trace values are read
off the parents' counts (the scores are built only by ``step``); with
noise, where coin i belongs to individual i, the scored population stays
in sampling order and is selected as a ``bits`` population is.  Neither
ranking draws anything.

Each run owns one random stream, so every run is bit-reproducible from its
seed and engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .instrumentation import iteration_stats
from .model import check_marginals, clamp_vector, init_model, sample_population
from .objectives import NoiseConfig, evaluate_population
from . import kernels

ENGINES = ("levels", "bits")

# A trace keeps every iteration below DENSE_UNTIL, every THIN_EVERY-th one
# after it, and the final one.
DENSE_UNTIL = 100_000
THIN_EVERY = 100


@dataclass(frozen=True)
class UmdaConfig:
    """Parameters of a single run.

    ``max_evals`` defaults to 100 * n**2 evaluations, generous for the
    regimes where the optimum is reachable at all; each iteration spends
    ``lam`` of them.  Trace recording is thinned by ``DENSE_UNTIL`` and
    ``THIN_EVERY``.  ``track_marginals_from`` records a per-iteration
    snapshot of the model marginals from that 0-based position onward.
    ``engine`` selects the level-count engine (``"levels"``) or the
    bit-level reference (``"bits"``); see the module docstring.
    """

    n: int
    lam: int
    mu: int
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    max_evals: Optional[int] = None
    seed: int = 0
    record_trace: bool = True
    track_marginals_from: Optional[int] = None
    engine: str = "levels"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {', '.join(ENGINES)}")
        if self.n < 2:
            raise ValueError(f"problem size must be at least 2, got {self.n}")
        if not 1 <= self.mu < self.lam:
            raise ValueError(f"need 1 <= mu < lambda, got mu={self.mu}, lambda={self.lam}")
        if self.max_evals is None:
            object.__setattr__(self, "max_evals", 100 * self.n * self.n)
        if self.max_evals < self.lam:
            raise ValueError(f"budget {self.max_evals} below one population of {self.lam}")
        if self.track_marginals_from is not None and not 0 <= self.track_marginals_from < self.n:
            raise ValueError("track_marginals_from outside [0, n)")


@dataclass(frozen=True)
class Trace:
    """Thinned per-iteration statistics in column form, in ``TRACE_HEADER`` order.

    ``t`` holds the recorded 0-based iteration indices; ``evals`` is the
    cumulative evaluation count at the end of each recorded iteration.
    ``marginals_tail`` (when tracked) holds the model snapshot used to sample
    iteration ``t``, from position ``tail_start`` onward.
    """

    t: np.ndarray
    z_mu: np.ndarray
    z_star: np.ndarray
    best_true: np.ndarray
    evals: np.ndarray
    misranked: np.ndarray
    tail_start: Optional[int] = None
    marginals_tail: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run; ``best_true`` is the last iteration's best true fitness."""

    success: bool
    evals: int
    iterations: int
    best_true: int
    trace: Optional[Trace] = None


def sort_by_fitness(fitness_noisy: np.ndarray) -> np.ndarray:
    """Indices by noisy fitness, non-increasing; ties keep sampling order.

    One stable argsort of the negated scores, checked: the ranked scores
    must come out non-increasing.  ``bits`` and noisy ``levels``
    populations are selected through it; a noise-free ``levels`` step
    ranks by sorting its keys.
    """
    order = (-fitness_noisy).argsort(kind="stable")
    _check_ranked(fitness_noisy[order])
    return order


def _check_ranked(fitness_noisy: np.ndarray) -> None:
    if np.count_nonzero(fitness_noisy[1:] > fitness_noisy[:-1]):
        raise ValueError("sorted population must have non-increasing fitness")


def select_parents(order: np.ndarray, mu: int) -> np.ndarray:
    """The indices of the mu fittest individuals, given ``sort_by_fitness`` order."""
    if mu > order.shape[0]:
        raise ValueError(f"cannot select {mu} parents from {order.shape[0]} individuals")
    return order[:mu]


def update_model(members: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """The parents' per-position ones counts, which ``run`` turns into the next model."""
    return kernels.column_ones_counts(members, parents)


def sample_levels(
    marginals: np.ndarray, size: int, noise: NoiseConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``size`` leading-ones values and score them under noise, one evaluation each.

    Returns ``(fitness_true, fitness_noisy, reveal_end)`` in sampling
    order; ``step`` ranks them with ``sort_by_fitness``.  Individual i has
    ``fitness_true[i]`` leading ones followed by a zero (unless it is the
    optimum).  Its later bits were never drawn, except when noise flipped
    that first zero: then the ones run after it was revealed, so positions
    ``fitness_true[i] + 1 .. reveal_end[i] - 1`` are ones and position
    ``reveal_end[i]``, when below n, is a zero.  Otherwise
    ``reveal_end[i] == fitness_true[i]``.

    P(LO > k) = p_0 * ... * p_k, so an individual's leading-ones value is
    the number of these prefix products above one uniform.  Coin i belongs
    to individual i: one draw of ``2 * size`` uniforms (the same stream as
    two draws of ``size``) gives the keys in sampling order, then the
    coins, and the flip index draws are the bit engine's.  A flip below LO
    scores the flip index, a flip above LO scores LO, and a flip of the
    first zero scores LO + 1 + the ones run after it, drawn by the same
    inverse CDF given the prefix through LO.  Noise-free populations are
    drawn by ``_step``, from sorted keys.
    """
    n = marginals.shape[0]
    survival = np.multiply.accumulate(marginals)  # survival[k] = P(LO > k)
    descending = -survival
    keys, coins = rng.random(2 * size).reshape(2, size)
    lo = descending.searchsorted(-keys)
    noisy, reveal_end = lo, lo
    rows = (coins < noise.p).nonzero()[0]
    if rows.size:
        flips = rng.integers(0, n, size=rows.size)
        row_lo = lo[rows]
        noisy = lo.copy()
        noisy[rows] = np.minimum(flips, row_lo)
        hit = rows[flips == row_lo]
        if hit.size:
            # P(run after position LO >= r) = survival[LO + r] / survival[LO]
            ends = descending.searchsorted(-rng.random(hit.size) * survival[lo[hit]])
            reveal_end = lo.copy()
            reveal_end[hit] = np.maximum(ends, lo[hit] + 1)  # the max only guards underflow
            noisy[hit] = reveal_end[hit]
    return lo, noisy, reveal_end


def _ranked_levels(survival: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(fitness_true, fitness_noisy)`` of a noise-free population drawn as ascending keys, checked."""
    lo = (-survival).searchsorted(-keys)
    _check_ranked(lo)
    return lo, lo


def update_levels(
    fitness_true: np.ndarray, reveal_end: np.ndarray, parents: np.ndarray, marginals: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Parents' ones counts from what was seen, plus binomials for what was not.

    ``parents`` indexes the parents' entries of the score arrays; ``step``
    passes the ``select_parents`` indices of a noisy population.  At
    position j: every parent with more than j leading ones has a one, a
    parent with exactly j has a zero, and a parent with fewer has a
    revealed bit or an unseen Bernoulli(p_j) one.  #(LO < j) is zero
    through the lowest parent LO, so one binomial covers the positions
    after it.  ``reveal_end is fitness_true``, as ``sample_levels`` returns
    it when no flip hit a first zero, means nothing was revealed.
    """
    n = marginals.shape[0]
    lo = fitness_true[parents]
    mu = lo.shape[0]
    at_most = np.add.accumulate(np.bincount(lo, minlength=n + 1))  # at_most[j] = #(LO <= j)
    ones = mu - at_most[:n]  # ones[j] = #(LO > j)
    unseen = at_most[:n - 1]  # #(LO < j) at j = 1..n-1, less the revealed bits below
    first = unseen.size - np.count_nonzero(unseen)  # every parent's leading ones cover positions 1..first
    if reveal_end is not fitness_true:
        end = reveal_end[parents]
        shown = end > lo
        if shown.any():
            start, stop = lo[shown] + 1, end[shown]
            ones_seen = np.add.accumulate(np.bincount(start, minlength=n + 1) - np.bincount(stop, minlength=n + 1))[:n]
            ones += ones_seen
            unseen -= ones_seen[1:] + np.bincount(stop[stop < n], minlength=n)[1:]
    ones[first + 1:] += rng.binomial(unseen[first:], marginals[first + 1:])
    return ones


def run(config: UmdaConfig) -> RunResult:
    """Loop ``step`` until the all-ones string is sampled or the budget is spent.

    The optimum check uses true fitness on every sampled population before
    selection, so noise cannot hide a sampled optimum.  Budget exhaustion is
    a normal result with ``success`` False.  The next model is the table
    entry of each of the parents' ones counts, k/mu clamped to the borders;
    a count outside [0, mu] raises, so no model needs ``step``'s border
    check.  The trace keeps every iteration below ``DENSE_UNTIL``, every
    ``THIN_EVERY``-th after it, and the final one, each row recorded as its
    iteration ends.  A noise-free ``levels`` row is ``(t, z_mu, best_true,
    0, best_true)``: z_mu as the step gives it, z* the best true score and
    no misranks.  A ``bits`` or noisy row is ``(t, z_mu, z_star, misranked,
    best_true)`` from ``iteration_stats`` on its scores (level statistics and
    the counting-identity check).  Every trace must have z* equal to the
    best true score and 0 <= z_mu <= z* on each row, or ``run`` raises
    ``AssertionError``.
    """
    rng = np.random.default_rng(config.seed)
    model = init_model(config.n)
    levels = clamp_vector(np.arange(config.mu + 1) / config.mu, config.n)  # levels[k] = clamp(k / mu)
    tail_start = config.track_marginals_from
    rows: list[tuple[int, ...]] = []  # (t, z_mu, z_star, misranked, best_true) of every recorded iteration
    tails: list[np.ndarray] = []
    iterations = 0
    while True:
        best_true, z_mu, population, ones = _step(model, config, rng)
        t = iterations
        iterations += 1
        evals = config.lam * iterations
        success = best_true == config.n
        final = success or evals >= config.max_evals
        if config.record_trace and (final or t < DENSE_UNTIL or t % THIN_EVERY == 0):
            if z_mu is not None:
                rows.append((t, z_mu, best_true, 0, best_true))
            else:
                rows.append((t, *iteration_stats(*population(), config.n, config.mu), best_true))
            if tail_start is not None:
                tails.append(model[tail_start:].copy())
        if final:
            break
        if ones.view(np.uint64).max() > config.mu:  # a negative count wraps to a huge unsigned one
            raise ValueError(f"parents' ones counts outside [0, {config.mu}]")
        model = levels[ones]
    trace = None
    if config.record_trace:
        t_column, z_mu, z_star, misranked, best_column = np.array(rows, dtype=np.int64).T
        if (z_star != best_column).any() or (z_mu < 0).any() or (z_mu > z_star).any():
            raise AssertionError("trace rows need z_star == best_true and 0 <= z_mu <= z_star")
        trace = Trace(t_column, z_mu, z_star, best_column, config.lam * (t_column + 1), misranked,
                      tail_start=tail_start, marginals_tail=np.array(tails) if tail_start is not None else None)
    return RunResult(success=success, evals=evals, iterations=iterations, best_true=best_true, trace=trace)


def step(
    marginals: np.ndarray, config: UmdaConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One iteration of ``config.engine`` from ``marginals``: sample, score, select, count.

    Returns ``(fitness_true, fitness_noisy, ones)``: the scores of the
    ``config.lam`` sampled individuals and the parents' per-position ones
    counts.  ``marginals`` is checked on entry (``config.n`` values inside
    the borders) and never modified.
    """
    check_marginals(marginals, config.n)
    _, _, population, ones = _step(marginals, config, rng)
    return *population(), ones


def _step(
    marginals: np.ndarray, config: UmdaConfig, rng: np.random.Generator
) -> tuple[int, Optional[int], Callable[[], tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``step`` without its border check, for the models ``run`` looks up in its clamped table.

    Returns ``(best_true, z_mu, population, ones)``; ``population()`` gives
    ``(fitness_true, fitness_noisy)`` and draws nothing.  Noise-free
    ``levels`` parents are the mu smallest of the sorted keys, and the
    smallest key is a parent, so the best LO is the number of positions
    where some parent has a one, and z_mu, the lowest parent's LO, the
    number where every parent has one (read before the binomial).
    ``z_mu`` is None for ``bits`` and noisy steps, where only the scores
    give it.
    """
    if config.engine == "bits":
        pop = evaluate_population(sample_population(marginals, config.lam, rng), config.noise, rng)
        parents = select_parents(sort_by_fitness(pop.fitness_noisy), config.mu)
        ones = update_model(pop.members, parents)
        return int(pop.fitness_true.max()), None, lambda: (pop.fitness_true, pop.fitness_noisy), ones
    if config.noise.active:
        fitness_true, fitness_noisy, reveal_end = sample_levels(marginals, config.lam, config.noise, rng)
        parents = select_parents(sort_by_fitness(fitness_noisy), config.mu)
        ones = update_levels(fitness_true, reveal_end, parents, marginals, rng)
        return int(fitness_true.max()), None, lambda: (fitness_true, fitness_noisy), ones
    survival = np.multiply.accumulate(marginals)  # survival[j] = P(LO > j)
    keys = rng.random(config.lam)
    keys.sort()
    ones = keys[:config.mu].searchsorted(survival)  # ones[j] = #(parents with LO > j)
    _check_ranked(ones)  # the sort order, stated on counts
    best_true = int(np.count_nonzero(ones))
    unseen = config.mu - ones[:-1]  # #(parents with LO < j) at j = 1..n-1, non-decreasing
    first = unseen.size - np.count_nonzero(unseen)  # every parent's leading ones cover positions 1..first
    z_mu = first  # the lowest parent's LO, unless every parent is optimal
    if first == unseen.size and ones[-1] == config.mu:
        z_mu += 1
    ones[first + 1:] += rng.binomial(unseen[first:], marginals[first + 1:])
    return best_true, z_mu, lambda: _ranked_levels(survival, keys), ones
