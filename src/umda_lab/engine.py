"""The sample / score / select / update loop, on bits or on leading-ones levels.

The model is a plain float64 array of n marginals.  One iteration body,
``step``, serves both engines: it checks the model it samples from against
the borders, samples and scores ``lambda`` individuals with
``config.engine`` (the only engine dispatch), takes the mu best by noisy
score, ties in sampling order, and counts the parents' ones per position.
``bits`` ranks its population with ``sort_by_fitness`` and
``select_parents``; ``levels`` populations come out of the sampler ranked,
so their parents are the first mu entries.  ``run`` loops over ``step``
(budget, success check, trace recording and marginal snapshots) and looks
the next model up in a table built once per run: entry k is k/mu clamped
to the borders, the same division and clamp for every count.  Every count
is checked to lie in [0, mu], so every model ``run`` makes is inside the
borders and it skips ``step``'s border check.  It keeps the score arrays
of the iterations the trace records and computes their level statistics
a bounded block of rows at a time.  ``oracle transition`` samples steps.

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
never looked at.  This gives the same law of the model sequence, at
O(n + lambda log n) per iteration instead of O(lambda n);
``oracle.exact_transition`` checks one full step of both engines.  Stream
order per iteration: lambda uniforms for the leading-ones values, then
(noise only) lambda coins, one flip index per noisy individual and one
uniform per individual whose flip hit its first zero, then one binomial
per position.  The population comes out ranked by noisy score: without
noise the lambda uniforms are sorted before they are turned into values;
with noise, where coin i belongs to individual i, the scored population
is stable-argsorted once.  Neither ranking draws anything.

Each run owns one random stream, so every run is bit-reproducible from its
seed and engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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

# ``run`` passes the recorded iterations' scores to ``iteration_stats`` in
# blocks of about this many 8-byte values: lambda scores and n + 1 level
# counts per row (512 KiB).
_STATS_BLOCK_VALUES = 2**16


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
    must come out non-increasing.  Only ``bits`` populations need it;
    ``sample_levels`` returns its populations already ranked.
    """
    order = np.argsort(-fitness_noisy, kind="stable")
    _check_ranked(fitness_noisy[order])
    return order


def _check_ranked(fitness_noisy: np.ndarray) -> None:
    if (fitness_noisy[1:] > fitness_noisy[:-1]).any():
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
    """Draw ``size`` leading-ones values and score them, one evaluation each, ranked.

    Returns ``(fitness_true, fitness_noisy, reveal_end)``, ranked by noisy
    score, non-increasing, ties in sampling order, so the parents are the
    first mu entries.  Individual i has ``fitness_true[i]`` leading ones
    followed by a zero (unless it is the optimum).  Its later bits were
    never drawn, except when noise flipped that first zero: then the ones
    run after it was revealed, so positions ``fitness_true[i] + 1 ..
    reveal_end[i] - 1`` are ones and position ``reveal_end[i]``, when below
    n, is a zero.  Otherwise ``reveal_end[i] == fitness_true[i]``.

    P(LO > k) = p_0 * ... * p_k, so an individual's leading-ones value is
    the number of these prefix products above one uniform.  Without noise
    the ``size`` uniforms are sorted first, so the values come out ranked;
    individuals are exchangeable and tied ones are identical, so this
    changes neither the law nor anything selection, the update or the
    statistics read, and the stream still holds exactly ``size`` uniforms.
    With noise, coin i belongs to individual i: one draw of ``2 * size``
    uniforms (the same stream as two draws of ``size``) gives the keys in
    sampling order, then the coins, and the flip index draws are the bit
    engine's.  A flip below LO scores the flip index, a flip above LO
    scores LO, and a flip of the first zero scores LO + 1 + the ones run
    after it, drawn by the same inverse CDF given the prefix through LO.
    The scored population is then ranked by one stable argsort of the
    negated noisy scores.  Either way the ranked scores are checked.
    """
    n = marginals.shape[0]
    survival = np.multiply.accumulate(marginals)  # survival[k] = P(LO > k)
    descending = -survival
    if not noise.active:
        keys = rng.random(size)
        keys.sort()  # ascending keys give non-increasing LO values
        lo = descending.searchsorted(-keys)
        _check_ranked(lo)
        return lo, lo, lo
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
    order = (-noisy).argsort(kind="stable")
    ranked = noisy[order]
    _check_ranked(ranked)
    ranked_lo = ranked if noisy is lo else lo[order]
    return ranked_lo, ranked, ranked_lo if reveal_end is lo else reveal_end[order]


def update_levels(
    fitness_true: np.ndarray, reveal_end: np.ndarray, parents: np.ndarray, marginals: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Parents' ones counts from what was seen, plus binomials for what was not.

    ``parents`` indexes the parents' entries of the score arrays: ``step``
    passes ``slice(0, mu)``, the head of a ranked population, so the
    parents' arrays are views.  At position j: every parent with more than
    j leading ones has a one, a parent with exactly j has a zero, and a
    parent with fewer has a revealed bit or an unseen Bernoulli(p_j) one.
    ``reveal_end is fitness_true``, as ``sample_levels`` returns it when no
    flip hit a first zero, means nothing was revealed.
    """
    n = marginals.shape[0]
    lo = fitness_true[parents]
    mu = lo.shape[0]
    per_level = np.bincount(lo, minlength=n + 1)
    at_most = np.add.accumulate(per_level)  # at_most[j] = #(LO <= j)
    ones = mu - at_most[:n]
    unseen = at_most[:n] - per_level[:n]  # #(LO < j), less the revealed bits below
    if reveal_end is not fitness_true:
        end = reveal_end[parents]
        shown = end > lo
        if shown.any():
            start, stop = lo[shown] + 1, end[shown]
            ones_seen = np.add.accumulate(np.bincount(start, minlength=n + 1) - np.bincount(stop, minlength=n + 1))[:n]
            ones += ones_seen
            unseen -= ones_seen + np.bincount(stop[stop < n], minlength=n)
    first = lo.min() + 1  # no parent has an unseen bit at or before its lowest LO
    ones[first:] += rng.binomial(unseen[first:], marginals[first:])
    return ones


def run(config: UmdaConfig) -> RunResult:
    """Loop ``step`` until the all-ones string is sampled or the budget is spent.

    The optimum check uses true fitness on every sampled population before
    selection, so noise cannot hide a sampled optimum.  Budget exhaustion is
    a normal result with ``success`` False.  The next model is the table
    entry of each of the parents' ones counts, k/mu clamped to the borders;
    a count outside [0, mu] raises, so no model needs ``step``'s border
    check.  Level statistics, and with
    them the counting-identity check, are computed only for the iterations
    the trace keeps: every one below ``DENSE_UNTIL``, every ``THIN_EVERY``-th
    after it, and the final one.  Their score arrays are kept and passed to
    ``iteration_stats`` a block of rows at a time, the last block before the
    ``Trace`` is built.
    """
    rng = np.random.default_rng(config.seed)
    model = init_model(config.n)
    levels = clamp_vector(np.arange(config.mu + 1) / config.mu, config.n)  # levels[k] = clamp(k / mu)
    tail_start = config.track_marginals_from
    block_rows = max(1, _STATS_BLOCK_VALUES // (config.lam + config.n + 1))
    recorded: list[tuple[int, int]] = []  # (t, best_true) of every recorded iteration
    scores: list[tuple[np.ndarray, np.ndarray]] = []  # recorded (true, noisy) scores not yet in ``stats``
    stats: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (z_mu, z_star, misranked) per block
    tails: list[np.ndarray] = []
    iterations = 0
    while True:
        fitness_true, fitness_noisy, ones = _step(model, config, rng)
        t = iterations
        iterations += 1
        evals = config.lam * iterations
        best_true = int(fitness_true.max())
        success = best_true == config.n
        final = success or evals >= config.max_evals
        if config.record_trace and (final or t < DENSE_UNTIL or t % THIN_EVERY == 0):
            recorded.append((t, best_true))
            scores.append((fitness_true, fitness_noisy))
            if len(scores) == block_rows:
                stats.append(_block_stats(scores, config))
                scores = []
            if tail_start is not None:
                tails.append(model[tail_start:].copy())
        if final:
            break
        if ones.view(np.uint64).max() > config.mu:  # a negative count wraps to a huge unsigned one
            raise ValueError(f"parents' ones counts outside [0, {config.mu}]")
        model = levels[ones]
    trace = None
    if config.record_trace:
        if scores:
            stats.append(_block_stats(scores, config))
        t_column, best_column = np.array(recorded, dtype=np.int64).T
        z_mu, z_star, misranked = (np.concatenate(column) for column in zip(*stats))
        trace = Trace(t_column, z_mu, z_star, best_column, config.lam * (t_column + 1), misranked,
                      tail_start=tail_start, marginals_tail=np.array(tails) if tail_start is not None else None)
    return RunResult(success=success, evals=evals, iterations=iterations, best_true=best_true, trace=trace)


def _block_stats(
    scores: list[tuple[np.ndarray, np.ndarray]], config: UmdaConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``iteration_stats`` of recorded iterations' (true, noisy) scores, one row per iteration.

    Without noise every noisy array is its true array, so only the true
    scores are stacked and ``iteration_stats`` skips the misrank count.
    """
    fitness_true = np.array([true for true, _ in scores])
    if all(noisy is true for true, noisy in scores):
        fitness_noisy = fitness_true
    else:
        fitness_noisy = np.array([noisy for _, noisy in scores])
    return iteration_stats(fitness_true, fitness_noisy, config.n, config.mu)


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
    return _step(marginals, config, rng)


def _step(
    marginals: np.ndarray, config: UmdaConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``step`` without its border check, for the models ``run`` looks up in its clamped table."""
    if config.engine == "bits":
        pop = evaluate_population(sample_population(marginals, config.lam, rng), config.noise, rng)
        parents = select_parents(sort_by_fitness(pop.fitness_noisy), config.mu)
        return pop.fitness_true, pop.fitness_noisy, update_model(pop.members, parents)
    fitness_true, fitness_noisy, reveal_end = sample_levels(marginals, config.lam, config.noise, rng)
    return fitness_true, fitness_noisy, update_levels(fitness_true, reveal_end, slice(0, config.mu), marginals, rng)
