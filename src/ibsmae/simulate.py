"""Reproducible Monte-Carlo machinery for inverse binomial sampling.

A run observes a Bernoulli(p) stream until the N-th success.  The sampler
draws the stopping trial directly as N plus a negative-binomial number of
failures (numpy's gamma-Poisson mixture), so a run costs the same few
variates whatever p is; the tests compare it against the literal Bernoulli
loop.  Shard k of a run owns the counter-based stream Philox(key=seed)
jumped k times, and jumps advance the counter by 2**128 draws, so shard
streams provably never overlap.
Shards are merged in index order with fixed-size batches, making results
for a given (seed, shards, trials) configuration bit-identical across runs;
the same seed with a different shard count gives statistically compatible
but not bit-identical estimates.

Moments are accumulated in one pass (Welford-style with batch merging), so
runs with 1e8 trials never hold their samples.

numpy is imported inside the functions that call it, so importing this
module (and with it the package) does not load numpy; the sampler loads it
on its first run.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .distributions import (
    _ANCHOR_EVERY,
    nbin_pmf,
    validate_probability,
    validate_success_target,
)
from .mae import threshold_n0

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RunConfig",
    "McEstimate",
    "RunningMoments",
    "mc_normalized_mae",
    "brute_force_normalized_mae",
]

# Trials simulated per batch are a fixed constant: the draw pattern, and
# therefore the output, must be a pure function of (seed, shards, trials),
# never of machine load.
_BATCH_TRIALS = 1 << 15

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
    """Inputs that fully determine a Monte-Carlo estimate."""

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


class RunningMoments:
    """Single-pass count/mean/M2 accumulator fed one batch at a time."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_batch(self, values: np.ndarray) -> None:
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(np.square(values - batch_mean).sum())
        self._combine(values.size, batch_mean, batch_m2)

    def _combine(self, count: int, mean: float, m2: float) -> None:
        if count == 0:
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * (count / total)
        self.m2 += m2 + delta * delta * (self.count * count / total)
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0 before two samples exist."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        if self.count == 0:
            return 0.0
        return math.sqrt(self.variance / self.count)


def _trial_cap(N: int, p: float) -> int:
    # Termination is almost sure; only a broken generator ever gets here.
    return math.ceil(1e9 * N / p)


def _sample_trial_counts(
    rng: np.random.Generator, N: int, p: float, size: int, cap: int
) -> np.ndarray:
    """Stopping trials of `size` independent runs.

    Each stopping trial is N plus the failures before the N-th success,
    which are negative-binomial(N, p) and drawn by numpy as a Poisson
    variate with a gamma-distributed rate, at a cost independent of p.
    A count beyond cap means the generator is broken.
    """
    counts = N + rng.negative_binomial(N, p, size)
    longest = int(counts.max())
    if longest > cap:
        raise RuntimeError(
            f"a run needed {longest} trials, beyond the cap of {cap}; "
            "the generator looks broken"
        )
    return counts


def mc_normalized_mae(cfg: RunConfig) -> McEstimate:
    """Empirical normalized MAE over cfg.trials independent runs.

    Tracks |p_hat - p|/p, p_hat itself, and the sample size n in one pass.
    Work splits across cfg.shards independent generator streams (extra
    trials go to the lowest shard indices) and merges in shard order.
    """
    import numpy as np

    err = RunningMoments()
    est = RunningMoments()
    nobs = RunningMoments()
    cap = _trial_cap(cfg.N, cfg.p)
    base, extra = divmod(cfg.trials, cfg.shards)
    for shard in range(cfg.shards):
        quota = base + (1 if shard < extra else 0)
        if quota == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(shard))
        remaining = quota
        while remaining:
            batch = min(_BATCH_TRIALS, remaining)
            counts = _sample_trial_counts(rng, cfg.N, cfg.p, batch, cap)
            p_hat = (cfg.N - 1.0) / (counts - 1.0)
            err.add_batch(np.abs(p_hat - cfg.p) / cfg.p)
            est.add_batch(p_hat)
            nobs.add_batch(counts)
            remaining -= batch
    return McEstimate(
        mean_normalized_abs_error=err.mean,
        std_error=err.std_error,
        mean_sample_size=nobs.mean,
        mean_estimate=est.mean,
        std_error_estimate=est.std_error,
        std_error_sample_size=nobs.std_error,
    )


def _terms(N: int, p: float, start: int, step: int, tail_epsilon: float):
    """Blocks of f_N(n) * |(N-1)/(n-1) - p| for n = start, start + step, ...

    The weight's sign is known: positive walking down from n0 (step -1),
    negative walking up from n0 + 1 (step 1).  Each block holds up to
    _ANCHOR_EVERY terms.  Its first density is an anchor from nbin_pmf, and
    each later one is the previous density times their ratio.  The blocks
    end before the first anchor that underflows to 0.  Walking down they
    end at n = N at the latest.  Walking up, they end after the first n at
    which f_N(n) * r / (1 - r), with r = (1-p) * n / (n-N+1), falls below
    tail_epsilon.
    """
    q = 1.0 - p
    m = N - 1
    # f_N(n) * r / (1 - r) = f_N(n) * q * n / (p*n - N + 1); the stop test
    # multiplies the division out, with tail_epsilon folded into p and N - 1
    tail_p, tail_n = tail_epsilon * p, tail_epsilon * m
    anchors = (
        itertools.count(start, _ANCHOR_EVERY)
        if step > 0
        else range(start, m, -_ANCHOR_EVERY)
    )
    for anchor in anchors:
        f = nbin_pmf(N, p, anchor)
        if f == 0.0:
            return
        block = []
        if step > 0:
            for n in range(anchor, anchor + _ANCHOR_EVERY):
                block.append(f * (p - m / (n - 1)))
                qn = q * n
                if f * qn < tail_p * n - tail_n:
                    yield block
                    return
                f *= qn / (n - m)
        else:
            for n in range(anchor, max(anchor - _ANCHOR_EVERY, m), -1):
                block.append(f * (m / (n - 1) - p))
                f *= (n - N) / (q * (n - 1))
        yield block


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
    up, down = _terms(N, p, n0 + 1, 1, tail_epsilon), _terms(N, p, n0, -1, tail_epsilon)
    return math.fsum(itertools.chain.from_iterable(itertools.chain(up, down))) / p
