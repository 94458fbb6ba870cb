"""Negative-binomial probability functions.

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
the estimation operations elsewhere require N >= 2.  They check N, p and n
in that order, in _checked.  A binomial density is exp(log_dbinom(x, n, p))
from numeric_core, which has no wrapper here.
"""

from __future__ import annotations

import math
import operator
import sys

from .numeric_core import _KERNEL_N_MAX, _trial_count_error, log_dbinom

__all__ = [
    "validate_probability",
    "validate_success_target",
    "nbin_pmf",
    "nbin_cdf",
    "nbin_sf",
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

# Success targets above this are refused: N - 1 must fit in a double, as
# alpha, rmse_bound, asymptotic_ratio and the sampler's limit take it as one.
_SUCCESS_TARGET_MAX = int(sys.float_info.max) + 1


def validate_probability(p: float) -> float:
    """Check 0 < p < 1 strictly; the endpoints are rejected everywhere."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must lie strictly inside (0, 1), got {p!r}")
    return p


def validate_success_target(N: int, minimum: int = 2) -> int:
    """Check N is an integer in [minimum, _SUCCESS_TARGET_MAX]; minimum defaults to 2."""
    N = operator.index(N)
    if not minimum <= N <= _SUCCESS_TARGET_MAX:
        if N < minimum:
            raise ValueError(f"success target N must be >= {minimum}, got {N}")
        raise ValueError(
            f"success target N must be <= {_SUCCESS_TARGET_MAX:.4g}, so that N - 1 "
            f"fits in a double, got N >= 2**{N.bit_length() - 1}"
        )
    return N


def _checked(N: int, p: float, n: int) -> tuple[int, float, int]:
    """N, p and the trial count n of a pmf or tail, checked in that order.

    n must be an integer with N <= n <= _KERNEL_N_MAX.  The kernel's own
    check comes too late for the tail sums, whose n*p*(1-p) overflows once
    n passes the double range.
    """
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = operator.index(n)
    if n < N:
        raise ValueError(f"trial count n must be >= {N}, got {n}")
    if n > _KERNEL_N_MAX:
        raise _trial_count_error(n)
    return N, p, n


def nbin_pmf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success lands exactly on trial n."""
    N, p, n = _checked(N, p, n)
    return p * math.exp(log_dbinom(N - 1, n - 1, p))


def _tail_terms(j: int, n: int, p: float, upper: bool):
    """Binomial densities b(k; n, p), walking away from the mode.

    Upper side: k = j, j+1, ...; lower side: k = n-j, n-j-1, ..., read as
    the upper side of n - X ~ Binomial(n, 1-p), so that one step serves
    both: the next density is this one times r = (n-j)/(j+1) * a/b, with
    (a, b) = (p, 1-p) or (1-p, p).  Every _ANCHOR_EVERY-th term, the first
    among them, is an anchor from log_dbinom; the terms end before an
    anchor that underflows to 0.  The caller starts on the side without
    the mode, where r < 1 and falls with j, so the terms after the current
    one sum to at most its density times r/(1-r), and the walk stops once
    that bound is at most _TAIL_STOP times the running sum.  At k = n (or
    0) r is 0, so the walk never passes the end of the support.
    """
    q = 1.0 - p
    a, b = (p, q) if upper else (q, p)
    total = 0.0
    while True:
        f = math.exp(log_dbinom(j if upper else n - j, n, p))
        if f == 0.0:
            return
        for j in range(j, j + _ANCHOR_EVERY):
            yield f
            total += f
            r = (n - j) * a / ((j + 1) * b)
            if f * r <= _TAIL_STOP * total * (1.0 - r):
                return
            f *= r
        j += 1


def _binom_tails(N: int, p: float, n: int) -> tuple[float, float]:
    """P(X >= N) and P(X <= N-1) for X ~ Binomial(n, p), with 1 <= N <= n.

    The side of N without the mode floor((n+1)*p) is summed by
    _tail_terms into one fsum, the other is 1 minus it.  n*p*(1-p) above
    _TAIL_NPQ_MAX raises ValueError before any term is summed.
    """
    if n * p * (1.0 - p) > _TAIL_NPQ_MAX:
        raise ValueError(
            f"the tail sum at n={n}, p={p!r} walks about sqrt(n*p*(1-p)) terms; "
            f"n*p*(1-p) must be <= {_TAIL_NPQ_MAX:g}"
        )
    upper = N >= (n + 1) * p
    tail = math.fsum(_tail_terms(N if upper else n - N + 1, n, p, upper))
    return (tail, 1.0 - tail) if upper else (1.0 - tail, tail)


def nbin_cdf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success occurs on or before trial n.

    The binomial tail P(Binomial(n, p) >= N), summed by _binom_tails.
    """
    N, p, n = _checked(N, p, n)
    return _binom_tails(N, p, n)[0]


def nbin_sf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success occurs strictly after trial n.

    Complement of nbin_cdf, P(Binomial(n, p) <= N-1), also from
    _binom_tails, so the far-tail values keep relative accuracy instead of
    degrading to 1 - (something near 1).
    """
    N, p, n = _checked(N, p, n)
    return _binom_tails(N, p, n)[1]
