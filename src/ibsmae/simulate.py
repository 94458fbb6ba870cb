"""Reproducible Monte-Carlo machinery for inverse binomial sampling.

A run observes a Bernoulli(p) stream until the N-th success.  The sampler
draws the stopping trial directly as N plus a negative-binomial number of
failures (numpy's gamma-Poisson mixture), so a run costs the same few
variates whatever p is; the tests compare it against the literal Bernoulli
loop.  RunConfig keeps (N, p) inside numpy's own bound on that draw, so the
draw is one numpy call with no check of its own.  The trials split into
fixed blocks of _BATCH_TRIALS runs, and block b owns the stream
PCG64DXSM(seed).jumped(b), numpy's recommended generator for parallel
streams.  A jump advances the state by the golden-ratio fraction of the
2**128 period, so the B block streams of a call start more than
2**128 / (3B) - B draws apart (see _JUMP).  A block used 27,000 to 43,000
raw draws, under 2**16, at each (N, p) measured, so block streams provably
never overlap in a run of up to 2**60 blocks (about 9.4e21 trials), the most
RunConfig accepts (_TRIALS_MAX).
Each block's moments are a plain (count, mean, M2) tuple per series,
taken from one buffer; the calling thread merges them in block order as
they finish (Chan et al.'s pairwise update), so runs with 1e8 trials never
hold their samples, and an estimate is a pure function of (seed, trials),
bit-identical whatever the worker count.  cfg.shards only sets how many
threads draw the blocks.  Every thread claims blocks from one shared
iterator; a failure or an interrupt exhausts it, so each thread stops after
its current block.

numpy is imported inside the functions that call it, so importing this
module does not load numpy; the sampler loads it on its first run.  The
package imports this module itself only on the first use of one of its
names (see ibsmae.__getattr__), so the closed forms load neither it nor
dataclasses.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass

from .distributions import (
    _ANCHOR_EVERY,
    nbin_pmf,
    validate_probability,
    validate_success_target,
)
from .mae import threshold_n0

__all__ = [
    "RunConfig",
    "McEstimate",
    "mc_normalized_mae",
    "brute_force_normalized_mae",
]

# Trials per block are a fixed constant: block b draws from the b-th jump of
# the seed's stream, so this constant defines the output, which must be a
# pure function of (seed, trials), never of the worker count or machine load.
_BATCH_TRIALS = 1 << 13

# PCG64DXSM.jumped(j) advances the state by j * _JUMP draws (mod 2**128), and
# _JUMP is g * 2**128 rounded up, g = (sqrt(5) - 1) / 2 the golden-ratio
# fraction.  Blocks i < j start d(j - i) draws apart, with d(k) the distance
# from k * _JUMP to the nearest multiple of 2**128.  Every partial quotient of
# g's continued fraction is 1, so k * g lies more than 1 / (3k) from the
# nearest integer for every k >= 1; with the rounding of _JUMP, under one
# draw per jump, d(k) > 2**128 / (3k) - k, and B blocks start more than
# 2**128 / (3B) - B draws apart.  The sampler advances by the product itself:
# that is jumped(b)'s state, without the throwaway generator that jumped()
# seeds from the operating system's entropy, in under half the time.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# RunConfig refuses more trials than this: 2**60 blocks, about 9.4e21 trials.
# Up to there the block streams start more than 2**128 / 3 / 2**60 - 2**60,
# over 2**66, draws apart, far more than the under 2**16 draws a block uses,
# so no two blocks share a draw; past it the no-overlap argument above is
# not made.  Time does not set this limit (a run this long would take
# millennia); a mistyped count such as 10**23 fails at once instead of
# running for ever.
_TRIALS_MAX = _BATCH_TRIALS * 2**60

# Generator.negative_binomial refuses (N, p) once (1-p)/p * (N + 10*sqrt(N)),
# its high-end bound on the failure count, exceeds this ceiling (numpy's own
# constant, for a 64-bit C long, whose maximum is 2**63 - 1).  RunConfig adds
# N to that bound, so every config it accepts is one numpy accepts, with trial
# counts that fit int64.
_POISSON_LAM_MAX = float(2**63 - 1) - math.sqrt(2**63 - 1) * 10

# The brute-force sum refuses (N, p) whose mode n0 = threshold_n0(N, p) lies
# above this many trials.  The walk down from n0 sums at most n0 - N terms,
# and the walk up about n0 * ln(1/tail_epsilon) at N = 2 (some 3e7 terms at
# the limit with tail_epsilon = 1e-12), so a mistyped p fails at once
# instead of running for hours.
_BRUTE_FORCE_N0_MAX = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Inputs that fully determine a Monte-Carlo estimate.

    The estimate depends on (N, p, trials, seed) alone; shards is the most
    worker threads that draw it, capped by the block and core counts.
    """

    N: int
    p: float
    trials: int
    seed: int
    shards: int = 1

    def __post_init__(self) -> None:
        N = validate_success_target(self.N)
        p = validate_probability(self.p)
        spread = N + 10 * math.sqrt(N)
        if N + (1 - p) / p * spread > _POISSON_LAM_MAX:
            limit = spread / (_POISSON_LAM_MAX - N + spread)
            raise ValueError(
                f"p={p!r} is below the sampler's limit of about {limit:.4g} for N={N}"
            )
        if operator.index(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trials > _TRIALS_MAX:
            raise ValueError(
                f"trials must be <= {_TRIALS_MAX:.4g}, the sampler's limit of 2**60 blocks "
                f"of {_BATCH_TRIALS} runs whose streams never overlap, got {self.trials}"
            )
        if operator.index(self.shards) < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        seed = operator.index(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate of the normalized MAE with its companions.

    std_error fields are sample standard deviations divided by
    sqrt(cfg.trials); mean_sample_size estimates the average trial count N/p.
    """

    mean_normalized_abs_error: float
    std_error: float
    mean_sample_size: float
    mean_estimate: float
    std_error_estimate: float
    std_error_sample_size: float


def _merge(a, b) -> tuple[int, float, float]:
    """Moments of two batches together, by Chan et al.'s pairwise update.

    The empty moments (0, 0.0, 0.0) are an identity on either side, bit for
    bit: with na = 0, nb / n is exactly 1 and delta * delta * 0 exactly 0
    (means stay far below 1e154, so delta * delta is finite).
    """
    (na, ma, sa), (nb, mb, sb) = a, b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), sa + (sb + delta * delta * (na * nb / n))


def _std_error(moments: tuple[int, float, float]) -> float:
    """Sample standard deviation over sqrt(count); 0 for a single value."""
    count, _, m2 = moments
    return math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0


def _block_moments(cfg: RunConfig, block: int):
    """Moments of the error, p_hat and the sample size over one trial block.

    Block b holds runs b*_BATCH_TRIALS onward, _BATCH_TRIALS of them or the
    rest of cfg.trials, drawn from PCG64DXSM(seed).jumped(b).  The three
    series share one (3, size) buffer: each row is filled in place, and
    the means, the centring and the sums of squares are one pass each over
    the whole buffer, each row summed pairwise as numpy sums a single
    series.  Worker threads run this, so it calls no public function:
    bench/tracing.py wraps those, with one span stack per process.
    """
    import numpy as np

    bits = np.random.PCG64DXSM(cfg.seed).advance(block * _JUMP % 2**128)
    size = min(_BATCH_TRIALS, cfg.trials - block * _BATCH_TRIALS)
    rows = np.empty((3, size))
    err, p_hat, counts = rows
    # each stopping trial is N plus the failures before the N-th success,
    # which are negative-binomial(N, p): numpy draws them as a Poisson
    # variate with a gamma-distributed rate, at a cost independent of p
    np.add(np.random.Generator(bits).negative_binomial(cfg.N, cfg.p, size), cfg.N, out=counts)
    np.divide(cfg.N - 1.0, np.subtract(counts, 1.0, out=p_hat), out=p_hat)
    np.abs(np.subtract(p_hat, cfg.p, out=err), out=err)
    err /= cfg.p
    means = rows.sum(axis=1) / size
    rows -= means[:, None]
    rows *= rows
    return [(size, mean, m2) for mean, m2 in zip(means.tolist(), rows.sum(axis=1).tolist())]


def mc_normalized_mae(cfg: RunConfig) -> McEstimate:
    """Empirical normalized MAE over cfg.trials independent runs.

    Tracks |p_hat - p|/p, p_hat itself, and the sample size n, one trial
    block at a time.  min(cfg.shards, blocks, cpu count) threads draw the
    blocks, the calling thread among them, each claiming the next unclaimed
    one; numpy releases the GIL while it draws.  The calling thread merges
    finished blocks in block order and, once every thread has stopped,
    raises the first error in block order, whichever thread raised it.
    The fold starts from _merge's identity, the empty moments of each
    series, so the first block merges like every other.
    """
    blocks = -(-cfg.trials // _BATCH_TRIALS)
    claims = iter(range(blocks))  # next() on it is one step under the GIL
    done = {}  # block -> its moments, or the exception it raised
    total, merged = ((0, 0.0, 0.0),) * 3, 0

    def fold() -> None:
        """Merge the finished blocks that follow the last one merged."""
        nonlocal total, merged
        while merged in done:
            result = done.pop(merged)
            if isinstance(result, BaseException):
                raise result
            total = tuple(map(_merge, total, result))
            merged += 1

    def drain(fold=lambda: None) -> None:
        for block in claims:
            try:
                done[block] = _block_moments(cfg, block)
            except BaseException as exc:  # raised by the calling thread's fold()
                done[block] = exc
                collections.deque(claims, maxlen=0)
            fold()

    workers = min(cfg.shards, blocks, os.cpu_count() or 1)
    threads = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        drain(fold)
    finally:
        collections.deque(claims, maxlen=0)  # the others stop after their current block
        for thread in threads:
            thread.join()
    fold()
    err, est, nobs = total
    return McEstimate(
        mean_normalized_abs_error=err[1],
        std_error=_std_error(err),
        mean_sample_size=nobs[1],
        mean_estimate=est[1],
        std_error_estimate=_std_error(est),
        std_error_sample_size=_std_error(nobs),
    )


def _terms_down(N: int, p: float, n0: int):
    """The terms f_N(n) * ((N-1)/(n-1) - p) for n = n0, n0 - 1, ..., N.

    Up to n0 the weight is not negative.  Every _ANCHOR_EVERY-th density,
    the first among them, is an anchor from nbin_pmf, and each other one
    is the previous density divided by their ratio.  The terms end before
    the first anchor that underflows to 0, and at n = N at the latest.
    """
    q, m = 1.0 - p, N - 1
    for anchor in range(n0, m, -_ANCHOR_EVERY):
        f = nbin_pmf(N, p, anchor)
        if f == 0.0:
            return
        for n in range(anchor, max(anchor - _ANCHOR_EVERY, m), -1):
            yield f * (m / (n - 1) - p)
            f *= (n - N) / (q * (n - 1))


def _terms_up(N: int, p: float, start: int, tail_epsilon: float):
    """The terms f_N(n) * (p - (N-1)/(n-1)) for n = start, start + 1, ...

    Above n0 the weight is positive.  The densities are anchored as in
    _terms_down, and each other one is the previous one times their ratio
    r = (1-p) * n / (n-N+1).  The terms end before the first anchor that
    underflows to 0, or after the first n at which f_N(n) * r / (1 - r)
    falls below tail_epsilon.
    """
    q, m = 1.0 - p, N - 1
    # f_N(n) * r / (1 - r) = f_N(n) * q * n / (p*n - N + 1); the stop test
    # multiplies the division out, with tail_epsilon folded into p and N - 1
    tail_p, tail_n = tail_epsilon * p, tail_epsilon * m
    for anchor in itertools.count(start, _ANCHOR_EVERY):
        f = nbin_pmf(N, p, anchor)
        if f == 0.0:
            return
        for n in range(anchor, anchor + _ANCHOR_EVERY):
            yield f * (p - m / (n - 1))
            qn = q * n
            if f * qn < tail_p * n - tail_n:
                return
            f *= qn / (n - m)


def brute_force_normalized_mae(N: int, p: float, tail_epsilon: float) -> float:
    """Truncated direct expectation of |p_hat - p|/p over the trial count.

    Independent oracle for the closed form: sums f_N(n) * |(N-1)/(n-1) - p|
    term by term from n = N upward, stops once the neglected tail is
    provably below tail_epsilon, and divides the sum by p.

    The densities come from the exact ratio of neighbouring terms,
    r(n) = f_N(n+1) / f_N(n) = (1-p) * n / (n-N+1), walked from the mode
    n0 = threshold_n0(N, p) down to N and from n0 + 1 up, so that the sign
    of (N-1)/(n-1) - p is known on each walk.  Every 64th term is an anchor
    taken from nbin_pmf, which bounds the rounding drift; away from the mode
    the terms only shrink, so either walk stops at an anchor that underflows
    to 0.  From n0 on, which exceeds (N-1)/p, r(n) is below 1 and decreasing
    in n, and past n0 the weight |p_hat - p|/p is below 1, so the terms
    after n sum to at most the geometric tail
    f_N(n) * r(n) / (1 - r(n)).  The upward walk stops at the first n where
    that bound is below tail_epsilon.  The cost is a few multiplications per
    term plus a density-kernel call per 64 terms, and the terms stream into
    one fsum, so memory stays flat however many terms are summed.  (N, p)
    with n0 above 10**6 raise ValueError before any term is summed.
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    tail_epsilon = float(tail_epsilon)
    if not 0.0 < tail_epsilon <= 1e-6:
        raise ValueError(f"tail_epsilon must lie in (0, 1e-6], got {tail_epsilon!r}")
    n0 = threshold_n0(N, p)
    if n0 > _BRUTE_FORCE_N0_MAX:
        raise ValueError(
            f"brute force at N={N}, p={p!r} would walk from n0={n0}, above the "
            f"oracle's limit of n0 <= {_BRUTE_FORCE_N0_MAX}"
        )
    terms = itertools.chain(_terms_up(N, p, n0 + 1, tail_epsilon), _terms_down(N, p, n0))
    return math.fsum(terms) / p
