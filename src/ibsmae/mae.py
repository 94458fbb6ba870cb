"""Exact normalized mean absolute error of inverse binomial sampling.

For the unbiased estimate (N-1)/(n-1) of a success probability p, where n
is the trial on which the N-th success arrives, the normalized MAE
E(|p_hat - p|)/p has the closed form

    2 * C(n0-1, N-1) * p**(N-1) * (1-p)**(n0-N+1),   n0 = floor((N-1)/p) + 1.

Its small-p limit

    alpha(N) = 2 * exp(1-N) * (N-1)**(N-2) / (N-2)!

is also a strict upper bound over all p in (0, 1), and the normalized MAE
decreases monotonically in p.  In doubles the bound is not always strict:
where the true gap is below an ulp of alpha(N), the two round
independently, and exact_normalized_mae(2, 1e-17) comes out one ulp above
alpha(2).  The gap to the bound is controlled by a power series in p whose
coefficients are all positive; those coefficients, and the gap exponent
ln(alpha(N)/MAE)/p at a knot, from its two Stirling terms, next to the
truncated series, are exposed for numeric checking.
series_coefficients(N, j_max) returns x_0..x_j_max, each correctly rounded,
in one pass of O(j_max**2) integer operations, a count that does not depend
on N, for j_max up to _SERIES_J_MAX and N up to _SERIES_N_MAX.
"""

from __future__ import annotations

import collections
import math
import operator

from .distributions import validate_probability, validate_success_target
from .numeric_core import _KERNEL_N_MAX, knot_floor, log_dbinom, stirlerr

__all__ = [
    "SeriesSum",
    "threshold_n0",
    "exact_normalized_mae",
    "alpha",
    "series_coefficients",
    "series_sum",
]

# series_coefficients refuses j_max above this.  Its integers grow with j and
# with the digits of N, and their count with j**2, so the time grows faster
# than j**2 (16 times from 500 to 1000 at N = 10**18); a mistyped j_max fails
# at once instead of running for minutes.
_SERIES_J_MAX = 500

# series_coefficients also refuses N above this, for the same reason: at the
# j_max limit a call takes about 0.8 s at N = 10**18, and 1.8 s already at
# j_max = 100 for a 3001-digit N.
_SERIES_N_MAX = 10**18


SeriesSum = collections.namedtuple("SeriesSum", ["closed_form", "partial_sum"])
SeriesSum.__doc__ = """Closed-form gap exponent next to its truncated series evaluation."""


def _snapped_ratio(N: int, p: float) -> tuple[int, bool]:
    """floor((N-1)/p) and whether p is a knot, by numeric_core.knot_floor.

    n0 = floor + 1 must be at most the density kernel's trial-count limit.
    """
    floor, knot = knot_floor(N - 1, p)
    if floor + 1 > _KERNEL_N_MAX:
        raise ValueError(
            f"n0 = floor((N-1)/p) + 1 must be <= {_KERNEL_N_MAX:.4g}, the density "
            f"kernel's limit, got n0 >= 2**{floor.bit_length() - 1} for N={N}, p={p!r}"
        )
    return floor, knot


def threshold_n0(N: int, p: float) -> int:
    """Threshold trial count floor((N-1)/p) + 1.

    Trials up to n0 overestimate p, later trials underestimate it.  The
    floor is exact for the double p, except at a knot: a p within 4 ulps
    of (N-1)/m for an integer m gets n0 = m + 1.
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    return _snapped_ratio(N, p)[0] + 1


def exact_normalized_mae(N: int, p: float) -> float:
    """Exact E(|p_hat - p|)/p for the unbiased estimate at success target N.

    The closed form is 2(1-p) times the binomial density of N-1 successes
    in n0-1 trials, evaluated by the saddle-point kernel, so it neither
    overflows nor loses digits once p is small and n0 ~ (N-1)/p is huge.
    """
    return _exact_normalized_mae(validate_success_target(N), validate_probability(p))


def _exact_normalized_mae(N: int, p: float) -> float:
    """exact_normalized_mae for an N and a p that have passed its checks.

    Only the density kernel's limit on n0 is still checked here.
    """
    return 2.0 * (1.0 - p) * math.exp(log_dbinom(N - 1, _snapped_ratio(N, p)[0], p))


def alpha(N: int) -> float:
    """Small-p limit and uniform upper bound of the normalized MAE.

    2 * exp(1-N) * (N-1)**(N-2) / (N-2)! is twice the Poisson density at
    its mean m = N-1, 2 * exp(-stirlerr(m)) / sqrt(2*pi*m), accurate to
    about an ulp for any N and strictly decreasing in N.  It is evaluated
    as 0.5 * exp(-stirlerr(m)) / sqrt(pi*m/8): the powers of two scale
    exactly, and pi*m/8 stays finite for every m a double can hold.
    """
    m = validate_success_target(N) - 1
    return 0.5 * math.exp(-stirlerr(m)) / math.sqrt(0.125 * math.pi * m)


def _power_sums(n: int, k_max: int) -> list[int]:
    """S_k(n) = sum(i**k for i=1..n) for k = 0..k_max, exactly.

    Pascal's identity (n+1)**(k+1) - 1 = sum(C(k+1, r) * S_r(n), r=0..k)
    plus its alternating twin n**(k+1) = sum((-1)**(k-r) * C(k+1, r) * S_r(n))
    keeps only the r of k's parity:
    ((n+1)**(k+1) + n**(k+1) - 1) / 2 = sum(C(k+1, r) * S_r(n), r = k, k-2, ...).
    It is solved for S_k one k at a time, with the binomial row kept up to
    date; both divisions are exact.  O(k_max**2) integer operations, half
    the products of the one-sided identity.
    """
    sums = [n]
    row = [1, 1]
    high, low = n + 1, n  # (n+1)**(k+1) and n**(k+1)
    for k in range(1, k_max + 1):
        row = [1, *map(operator.add, row, row[1:]), 1]
        high *= n + 1
        low *= n
        rest = sum(map(operator.mul, row[k % 2 : k : 2], sums[k % 2 :: 2]))
        sums.append(((high + low - 1) // 2 - rest) // (k + 1))
    return sums


def series_coefficients(N: int, j_max: int) -> list[float]:
    """Coefficients x_0..x_j_max of p**j in the gap series; all positive.

    x_j = S_(j+1)(N-2) / ((j+1)(N-1)**(j+1)) + (N-1)/(j+2) - (N-2)/(j+1)

    with S_k(n) = sum(i**k for i=1..n).  The three terms nearly cancel, so
    each x_j is one exact integer over (j+1)(j+2)(N-1)**(j+1), rounded to
    float once.  The power sums take O(j_max**2) integer operations
    whatever N is.  For N = 2 they vanish and x_j = 1/(j+2).  j_max above
    _SERIES_J_MAX or N above _SERIES_N_MAX raises ValueError before any
    work.
    """
    N = validate_success_target(N)
    if N > _SERIES_N_MAX:
        raise ValueError(
            "the series coefficients need N <= 10**18, "
            f"got N of about 10**{int(N.bit_length() * math.log10(2))}"
        )
    j_max = operator.index(j_max)
    if not 0 <= j_max <= _SERIES_J_MAX:
        raise ValueError(f"j_max must lie in [0, {_SERIES_J_MAX}], got {j_max}")
    sums = _power_sums(N - 2, j_max + 1)
    coefficients = []
    low = N - 1  # (N-1)**(j+1)
    for j in range(j_max + 1):
        high = low * (N - 1)
        numerator = (j + 2) * (sums[j + 1] - (N - 2) * low) + (j + 1) * high
        coefficients.append(numerator / ((j + 1) * (j + 2) * low))
        low = high
    return coefficients


def series_sum(N: int, p: float, j_max: int) -> SeriesSum:
    """Gap exponent x = ln(alpha(N) / MAE) / p evaluated two independent ways.

    On knot probabilities, where (N-1)/p is a positive integer, x equals
    the full series sum(x_j * p**j, j=0..inf); elsewhere the identity does
    not hold, and ValueError is raised.  Returns the closed form next to
    the series truncated at j_max, whose partial sums rise toward it.  The
    closed form is the gap exponent of the knot's rational q = (N-1)/m,
    which p stands for, so every p that snaps to the knot gets the same
    double.  At q the density's deviance terms vanish, and Loader's
    decomposition leaves two Stirling terms:

        x = -(ln(1-q)/2 + stirlerr(m) - stirlerr(m-N+1)) / q,

    in O(1) time whatever N is, within 4e-15 relative for q <= 0.99.
    Above that, the rounding of q inside ln(1-q) is amplified by 1/(1-q).
    """
    N = validate_success_target(N)
    p = validate_probability(p)
    m, knot = _snapped_ratio(N, p)
    if not knot:
        raise ValueError(
            f"(N-1)/p = {(N - 1) / p!r} is not an integer; "
            "the closed form is defined on knot probabilities only"
        )
    partial = math.fsum(x * p**j for j, x in enumerate(series_coefficients(N, j_max)))
    closed = -(0.5 * math.log1p((1 - N) / m) + stirlerr(m) - stirlerr(m - N + 1)) * m / (N - 1)
    return SeriesSum(closed, partial)
