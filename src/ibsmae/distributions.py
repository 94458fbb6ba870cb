"""Negative-binomial and binomial probability functions.

The negative-binomial variable here is the trial index on which the N-th
success of a Bernoulli(p) sequence occurs, so its support starts at n = N:

    f_N(n) = C(n-1, N-1) * p**N * (1-p)**(n-N)

The distribution function F_N(n) is evaluated through the binomial-tail
equivalence: the N-th success arrives by trial n exactly when a binomial
count X over n trials reaches N.  Of P(X >= N) and P(X <= N-1), the side
of N without the binomial mode holds at most about half the mass; it is
summed term by term, walking away from N by the exact ratio of
neighbouring densities, and the other side is 1 minus that sum, so both
keep their relative accuracy.  The walk sums O(1 + sqrt(n*p*(1-p))) terms,
not O(n), and refuses n*p*(1-p) above _TAIL_NPQ_MAX.

The probability functions accept N >= 1; the geometric case N = 1 is needed
as the order-(N-1) distribution entering the threshold identity, even though
the estimation operations elsewhere require N >= 2.
"""

from __future__ import annotations

import itertools
import math
import operator

from .numeric_core import log_dbinom

__all__ = [
    "validate_probability",
    "validate_success_target",
    "validate_trial_count",
    "nbin_pmf",
    "nbin_cdf",
    "nbin_sf",
    "binom_pmf",
]

# A walk over densities steps from one to the next by their exact ratio and
# resets the value from the density kernel every this many terms, so
# rounding drift never spans more than this many products.
_ANCHOR_EVERY = 64

# The tail walk stops once a bound on the terms it has not summed falls
# below this fraction of its running sum, about a quarter of an ulp of it.
_TAIL_STOP = 2.0**-54

# nbin_cdf and nbin_sf refuse n*p*(1-p) above this.  Starting at the mode,
# the walk covers about 8.4 standard deviations, sqrt(n*p*(1-p)), before it
# reaches _TAIL_STOP: 837,602 terms and about 0.5 s (2-vCPU Xeon, Python
# 3.11) at the limit, so a mistyped n fails at once instead of running for
# minutes.
_TAIL_NPQ_MAX = 1e10

# Trial counts above this are refused.  The density kernel forms sums and
# products of a few times n, such as x + n*p and 2*pi*x, which must stay
# finite: a few times 1e307 made bd0's series loop forever on a NaN, and
# past the double range float(n) raised OverflowError.
_TRIAL_COUNT_MAX = 10**300


def validate_probability(p: float) -> float:
    """Check 0 < p < 1 strictly; the endpoints are rejected everywhere."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must lie strictly inside (0, 1), got {p!r}")
    return p


def validate_success_target(N: int, minimum: int = 2) -> int:
    """Check the success target N is an integer >= minimum (default 2)."""
    N = operator.index(N)
    if N < minimum:
        raise ValueError(f"success target N must be >= {minimum}, got {N}")
    return N


def validate_trial_count(n: int, N: int) -> int:
    """Check the trial count n is an integer with N <= n <= _TRIAL_COUNT_MAX."""
    n = operator.index(n)
    if n < N:
        raise ValueError(f"trial count n must be >= {N}, got {n}")
    if n > _TRIAL_COUNT_MAX:
        raise ValueError(
            f"trial count n must be <= 1e300, got n >= 2**{n.bit_length() - 1}"
        )
    return n


def nbin_pmf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success lands exactly on trial n."""
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = validate_trial_count(n, N)
    return p * math.exp(log_dbinom(N - 1, n - 1, p))


def _tail_blocks(j: int, n: int, p: float, upper: bool):
    """Blocks of binomial densities b(k; n, p), walking away from the mode.

    Upper side: k = j, j+1, ...; lower side: k = n-j, n-j-1, ..., read as
    the upper side of n - X ~ Binomial(n, 1-p), so that one step serves
    both: the next density is this one times r = (n-j)/(j+1) * a/b, with
    (a, b) = (p, 1-p) or (1-p, p).  The first density of each block is an
    anchor from log_dbinom; the blocks end before an anchor that underflows
    to 0.  The caller starts on the side without the mode, where r < 1
    and falls with j, so the terms after the current one sum to at most
    its density times r/(1-r), and the walk stops once that bound is at
    most _TAIL_STOP times the running sum.  At k = n (or 0) r is 0, so the
    walk never passes the end of the support.
    """
    q = 1.0 - p
    a, b = (p, q) if upper else (q, p)
    total = 0.0
    while True:
        f = math.exp(log_dbinom(j if upper else n - j, n, p))
        if f == 0.0:
            return
        block = []
        for j in range(j, j + _ANCHOR_EVERY):
            block.append(f)
            total += f
            r = (n - j) * a / ((j + 1) * b)
            if f * r <= _TAIL_STOP * total * (1.0 - r):
                yield block
                return
            f *= r
        yield block
        j += 1


def _binom_tails(N: int, p: float, n: int) -> tuple[float, float]:
    """P(X >= N) and P(X <= N-1) for X ~ Binomial(n, p), with 1 <= N <= n.

    The side of N without the mode floor((n+1)*p) is summed by
    _tail_blocks into one fsum, the other is 1 minus it.  n*p*(1-p) above
    _TAIL_NPQ_MAX raises ValueError before any term is summed.
    """
    if n * p * (1.0 - p) > _TAIL_NPQ_MAX:
        raise ValueError(
            f"the tail sum at n={n}, p={p!r} walks about sqrt(n*p*(1-p)) terms; "
            f"n*p*(1-p) must be <= {_TAIL_NPQ_MAX:g}"
        )
    upper = N >= (n + 1) * p
    blocks = _tail_blocks(N if upper else n - N + 1, n, p, upper)
    tail = math.fsum(itertools.chain.from_iterable(blocks))
    return (tail, 1.0 - tail) if upper else (1.0 - tail, tail)


def nbin_cdf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success occurs on or before trial n.

    The binomial tail P(Binomial(n, p) >= N), summed by _binom_tails.
    """
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = validate_trial_count(n, N)
    return _binom_tails(N, p, n)[0]


def nbin_sf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success occurs strictly after trial n.

    Complement of nbin_cdf, P(Binomial(n, p) <= N-1), also from
    _binom_tails, so the far-tail values keep relative accuracy instead of
    degrading to 1 - (something near 1).
    """
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = validate_trial_count(n, N)
    return _binom_tails(N, p, n)[1]


def binom_pmf(n: int, p: float, i: int) -> float:
    """Binomial probability of exactly i successes in n trials."""
    n = validate_trial_count(n, 0)
    i = operator.index(i)
    if not 0 <= i <= n:
        raise ValueError(f"success count must lie in [0, n={n}], got {i}")
    p = validate_probability(p)
    return math.exp(log_dbinom(i, n, p))
