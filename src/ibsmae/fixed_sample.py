"""Fixed-sample-size MAE and the sequential-vs-fixed comparison.

The proportion estimate k/n from a fixed number n of Bernoulli trials has
normalized MAE

    2 * C(n-1, N0-1) * p**(N0-1) * (1-p)**(n-N0+1),   N0 = floor(n*p) + 1,

the mean-threshold form of the classic binomial mean-absolute-deviation
identity.  N0 takes the exact floor of n*p for the double p (the float
product's floor where numeric_core._float_floor proves it equal): the MAE is
continuous in p, so unlike n0 it needs no snap to a knot.  Matching the
average sample size N/p of inverse binomial sampling (only meaningful
where N/p is an integer) gives a ratio that tends to
e * (1 + 1/(N-1))**(-(N-1)) as p -> 0 and stays above 1: the sequential
scheme pays a small, bounded MAE premium for not knowing p.
"""

from __future__ import annotations

import math
import operator

from .distributions import validate_probability, validate_success_target
from .mae import exact_normalized_mae
from .numeric_core import _float_floor, knot_floor, log_dbinom

__all__ = [
    "fixed_normalized_mae",
    "matched_fixed_mae",
    "sequential_vs_fixed_ratio",
    "asymptotic_ratio",
]


def fixed_normalized_mae(n: int, p: float) -> float:
    """Normalized MAE of the proportion estimate from n Bernoulli trials.

    N0 = floor(n*p) + 1 exactly, so N0 <= n for every p < 1.  No knot snap
    is needed: at p = k/n the densities of k-1 and k successes in n-1
    trials are equal, so either side's N0 gives the same value.
    log_dbinom refuses n - 1 above the density kernel's trial-count limit.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"sample size n must be >= 1, got {n}")
    p = validate_probability(p)
    floor = _float_floor(n * p) if n < 2**53 else None
    if floor is None:
        a, b = p.as_integer_ratio()
        floor = n * a // b
    return 2.0 * (1.0 - p) * math.exp(log_dbinom(floor, n - 1, p))


def matched_fixed_mae(N: int, p: float) -> float | None:
    """Fixed-sample normalized MAE at n = N/p, or None off the knots.

    n = N/p is the average sample size of inverse binomial sampling.  It is
    an integer where p is a knot of numeric_core.knot_floor, within 4 ulps
    of N/n for an integer n.
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    n, knot = knot_floor(N, p)
    return fixed_normalized_mae(n, p) if knot else None


def sequential_vs_fixed_ratio(N: int, p: float) -> float:
    """Sequential MAE over fixed-sample MAE at matched average sample size.

    The fixed sample size is n = N/p, so the comparison is restricted to
    probabilities where N/p is an integer, that is within 4 ulps of N/n;
    anything else raises.  Converges to asymptotic_ratio(N) as p -> 0.
    """
    fixed = matched_fixed_mae(N, p)
    if fixed is None:
        raise ValueError(
            f"N/p = {N / p!r} is not an integer; the matched-size comparison "
            "is defined only where the average sample size is integral"
        )
    return exact_normalized_mae(N, p) / fixed


def asymptotic_ratio(N: int) -> float:
    """Small-p limit e * (1 + 1/(N-1))**(-(N-1)) of the MAE ratio.

    Strictly greater than 1 and decreasing toward 1 as N grows.
    """
    N = validate_success_target(N)
    return math.exp(1.0 - (N - 1) * math.log1p(1.0 / (N - 1)))
