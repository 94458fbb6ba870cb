"""Exact normalized mean absolute error of inverse binomial sampling.

For the unbiased estimate (N-1)/(n-1) of a success probability p, where n
is the trial on which the N-th success arrives, the normalized MAE
E(|p_hat - p|)/p has the closed form

    2 * C(n0-1, N-1) * p**(N-1) * (1-p)**(n0-N+1),   n0 = floor((N-1)/p) + 1.

Its small-p limit

    alpha(N) = 2 * exp(1-N) * (N-1)**(N-2) / (N-2)!

is also a strict upper bound over all p in (0, 1), and the normalized MAE
decreases monotonically in p.  The gap to the bound is controlled by a
power series in p whose coefficients are all positive; those coefficients
and the matching closed-form exponent are exposed for numeric checking.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .distributions import validate_probability, validate_success_target
from .numeric_core import log_dbinom, snap_nearest_int, stirlerr

__all__ = [
    "MaeResult",
    "SeriesCoefficient",
    "SeriesSum",
    "threshold_n0",
    "exact_normalized_mae",
    "alpha",
    "series_coefficient",
    "series_sum",
    "mae_limit_check",
]


@dataclass(frozen=True)
class MaeResult:
    """Exact normalized MAE together with the threshold trial count it used."""

    normalized_mae: float
    n0: int


@dataclass(frozen=True)
class SeriesCoefficient:
    """Coefficient of p**j in the series controlling the gap to the bound."""

    j: int
    value: float


@dataclass(frozen=True)
class SeriesSum:
    """Closed-form gap exponent next to its truncated series evaluation."""

    closed_form: float
    partial_sum: float
    j_max: int


def threshold_n0(N: int, p: float) -> int:
    """Threshold trial count floor((N-1)/p) + 1.

    Trials up to n0 overestimate p, later trials underestimate it.  The
    ratio (N-1)/p is snapped to the nearest integer first so that knot
    probabilities, where the ratio is integral up to floating-point noise,
    land on the exact-arithmetic side of the floor.
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    q = (N - 1) / p
    if not math.isfinite(q):
        raise ValueError(f"(N-1)/p is not finite for N={N}, p={p!r}")
    return int(math.floor(snap_nearest_int(q))) + 1


def exact_normalized_mae(N: int, p: float) -> MaeResult:
    """Exact E(|p_hat - p|)/p for the unbiased estimate at success target N.

    The closed form is 2(1-p) times the binomial density of N-1 successes
    in n0-1 trials, evaluated by the saddle-point kernel, so it neither
    overflows nor loses digits once p is small and n0 ~ (N-1)/p is huge.
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    n0 = threshold_n0(N, p)
    return MaeResult(2.0 * (1.0 - p) * math.exp(log_dbinom(N - 1, n0 - 1, p)), n0)


def alpha(N: int) -> float:
    """Small-p limit and uniform upper bound of the normalized MAE.

    2 * exp(1-N) * (N-1)**(N-2) / (N-2)! is twice the Poisson density at
    its mean m = N-1, 2 * exp(-stirlerr(m)) / sqrt(2*pi*m), accurate to
    about an ulp for any N and strictly decreasing in N.
    """
    m = validate_success_target(N) - 1
    return 2.0 * math.exp(-stirlerr(m)) / math.sqrt(2.0 * math.pi * m)


def series_coefficient(N: int, j: int) -> SeriesCoefficient:
    """Coefficient x_j of p**j in the gap series; positive for all N, j.

    x_j = sum(i**(j+1) for i=1..N-2) / ((j+1)(N-1)**(j+1))
          + (N-1)/(j+2) - (N-2)/(j+1)

    The three terms nearly cancel, so everything is done in exact rational
    arithmetic and rounded to float once.  The power sum is empty for N=2,
    where x_j reduces to 1/(j+2).
    """
    N = validate_success_target(N)
    j = operator.index(j)
    if j < 0:
        raise ValueError(f"series index j must be >= 0, got {j}")
    power_sum = sum(i ** (j + 1) for i in range(1, N - 1))
    value = (
        Fraction(power_sum, (j + 1) * (N - 1) ** (j + 1))
        + Fraction(N - 1, j + 2)
        - Fraction(N - 2, j + 1)
    )
    return SeriesCoefficient(j, float(value))


def series_sum(N: int, p: float, j_max: int) -> SeriesSum:
    """Gap exponent x evaluated two independent ways.

    On knot probabilities, where m = (N-1)/p is a positive integer, the
    per-p log-ratio of the bound to the exact normalized MAE has the closed
    form

        x = -(1/p) * sum(log(1 - i*p/(N-1)) for i=1..N-2)
            - (1/p) * (m - N + 2) * log(1-p) - m

    and equals the full series sum(x_j * p**j, j=0..inf).  Returns the
    closed form next to the series truncated at j_max; the truncated sum
    approaches the closed form from below as j_max grows.
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    j_max = operator.index(j_max)
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    ratio = snap_nearest_int((N - 1) / p)
    if ratio != int(ratio):
        raise ValueError(
            f"(N-1)/p = {ratio!r} is not an integer; "
            "the closed form is defined on knot probabilities only"
        )
    m = int(ratio)
    log_terms = math.fsum(math.log1p(-i * p / (N - 1)) for i in range(1, N - 1))
    closed = -log_terms / p - (m - N + 2) * math.log1p(-p) / p - m
    partial = math.fsum(
        series_coefficient(N, j).value * p**j for j in range(j_max + 1)
    )
    return SeriesSum(closed, partial, j_max)


def mae_limit_check(N: int, p_small: float) -> float:
    """Signed distance exact_normalized_mae(N, p_small) - alpha(N).

    Negative for every p, and small in magnitude once p_small is tiny
    (p_small <= 1e-4 recommended), since the exact value converges to the
    bound from below as p -> 0.
    """
    return exact_normalized_mae(N, p_small).normalized_mae - alpha(N)
