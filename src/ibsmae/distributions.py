"""Negative-binomial and binomial probability functions.

The negative-binomial variable here is the trial index on which the N-th
success of a Bernoulli(p) sequence occurs, so its support starts at n = N:

    f_N(n) = C(n-1, N-1) * p**N * (1-p)**(n-N)

The distribution function F_N(n) is evaluated through the binomial-tail
equivalence (the N-th success arrives by trial n exactly when a binomial
count over n trials reaches N), i.e. a regularized incomplete beta, never
by summing pmf terms over n, because the interesting n can be ~1e9.

The probability functions accept N >= 1; the geometric case N = 1 is needed
as the order-(N-1) distribution entering the threshold identity, even though
the estimation operations elsewhere require N >= 2.

scipy is imported inside nbin_cdf and nbin_sf, its only users, so importing
this module, the pmfs and the closed forms built on them never load it.
"""

from __future__ import annotations

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
    """Check the trial count n is an integer >= N (the support floor)."""
    n = operator.index(n)
    if n < N:
        raise ValueError(f"trial count n must be >= N={N}, got {n}")
    return n


def nbin_pmf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success lands exactly on trial n."""
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = validate_trial_count(n, N)
    return p * math.exp(log_dbinom(N - 1, n - 1, p))


def nbin_cdf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success occurs on or before trial n.

    Computed as the binomial tail P(Binomial(n, p) >= N), a regularized
    incomplete beta, so the cost does not grow with n.
    """
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = validate_trial_count(n, N)
    from scipy.special import betainc

    return float(betainc(N, n - N + 1, p))


def nbin_sf(N: int, p: float, n: int) -> float:
    """Probability that the N-th success occurs strictly after trial n.

    Complement of nbin_cdf, evaluated on the opposite beta tail so the
    far-tail values keep relative accuracy instead of degrading to
    1 - (something near 1).
    """
    N = validate_success_target(N, minimum=1)
    p = validate_probability(p)
    n = validate_trial_count(n, N)
    from scipy.special import betainc

    return float(betainc(n - N + 1, N, 1.0 - p))


def binom_pmf(n: int, p: float, i: int) -> float:
    """Binomial probability of exactly i successes in n trials."""
    n = operator.index(n)
    i = operator.index(i)
    if n < 0:
        raise ValueError(f"number of trials must be >= 0, got {n}")
    if not 0 <= i <= n:
        raise ValueError(f"success count must lie in [0, n={n}], got {i}")
    p = validate_probability(p)
    return math.exp(log_dbinom(i, n, p))
