"""Binomial density kernel and the exact knot floor.

Every closed form in the package is a binomial or Poisson density, and all
go through log_dbinom: C. Loader's saddle-point form ("Fast and Accurate
Computation of Binomial Probabilities", 2000; R's nmath dbinom.c, bd0.c
and stirlerr.c)

    ln dbinom(x; n, p) = stirlerr(n) - stirlerr(x) - stirlerr(n-x)
        - bd0(x, n*p) - bd0(n-x, n*(1-p)) - ln(2*pi*x*(n-x)/n) / 2,

whose terms are small or free of cancellation.  It is accurate to a few
ulps for trial counts up to ~1e16, and near the mode x ~ n*p, where the MAE
evaluates it, for larger counts too; it costs O(1) whatever x and n are.

The threshold n0 = floor((N-1)/p) + 1 that picks the density's arguments
for the MAE comes from knot_floor, in exact integer arithmetic on p's
binary value wherever the float quotient cannot decide it (_float_floor).
"""

from __future__ import annotations

import math
import sys

__all__ = ["stirlerr", "bd0", "log_dbinom", "knot_floor"]

# stirlerr(n) for n = 0..15, from mpmath at 40 digits; n = 0 is the limit.
_STIRLERR_TABLE = (
    math.inf, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def stirlerr(n: int) -> float:
    """Error ln(n!) - ln(sqrt(2*pi*n) * (n/e)**n) of Stirling's formula.

    Tabulated for integers n <= 15; above, the Stirling series
    1/(12n) - 1/(360n**3) + 1/(1260n**5) - 1/(1680n**7) + 1/(1188n**9),
    whose first omitted term is below 2e-16 for every n > 15.  From
    n = 2**25 on, the Horner form's inner part 1/(360n**2) < 2.5e-18 is
    below half an ulp of 1/12 (6.9e-18), so 1/12 minus it rounds to 1/12
    and the series is exactly (1/12)/n, which is returned at once.
    """
    if n <= 15:
        return _STIRLERR_TABLE[n]
    if n >= 2**25:
        return (1 / 12) / n
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def bd0(x: float, np: float, d: float) -> float:
    """Deviance term x*ln(x/np) + np - x, without cancellation near x = np.

    d is x - np, which the caller can form from smaller numbers than x and
    np themselves.  Close to np the value is the rapidly converging series
    in v = (x-np)/(x+np); elsewhere the direct form loses nothing.  A
    subnormal np can overflow x/np, and then the logs are taken apart.
    """
    xnp = x + np
    if abs(d) >= 0.1 * xnp:
        ratio = x / np
        if ratio == math.inf:
            return x * (math.log(x) - math.log(np)) - d
        return x * math.log(ratio) - d
    v = d / xnp
    s, term, v2, j = d * v, 2.0 * x * v, v * v, 1.0
    while True:
        term *= v2
        j += 2.0
        s, last = s + term / j, s
        if s == last:
            return s


# The largest trial count n that log_dbinom accepts.  The largest numbers it
# forms are the bd0 sums x + n*p and (n-x) + n*(1-p), below 2n, and 2*pi*x,
# at most 2*pi*n, so up to this count none overflows.  Beyond it a bd0
# series can meet inf * 0 = NaN and never return, or 2*pi*x overflows and
# the density comes out 0.  It is the package's one trial-count limit: the
# pmfs, the tails, n0 and the fixed sample size all refuse above it.
_KERNEL_N_MAX = int(sys.float_info.max / (2.0 * math.pi))


def _trial_count_error(n: int) -> ValueError:
    """The refusal of a trial count n above _KERNEL_N_MAX."""
    return ValueError(
        f"trial count n must be <= {_KERNEL_N_MAX:.4g}, the density kernel's "
        f"limit, got n >= 2**{n.bit_length() - 1}"
    )


def log_dbinom(x: int, n: int, p: float) -> float:
    """Natural log of the binomial density C(n, x) * p**x * (1-p)**(n-x).

    For integers 0 <= x <= n and 0 < p < 1, which callers check; n above
    _KERNEL_N_MAX raises ValueError.
    Both bd0 terms share d = x - n*p, formed from the smaller pair near the
    mode: from x and n*p when p < 0.5, else from n*(1-p) and n-x.  The
    other pair holds two numbers of size ~n, whose difference loses up to
    ulp(n), all of it once n passes ~1e16.  The rounded product n*p still
    leaves d off by up to half its ulp, which moves the log by |d|/(1-p)
    ulps (|d|/p from n*(1-p)); beyond |d| = 1, where that can pass two
    ulps, d is formed exactly from p's binary ratio instead.
    """
    if n > _KERNEL_N_MAX:
        raise _trial_count_error(n)
    if x == 0:
        return n * math.log1p(-p)
    if x == n:
        return n * math.log(p)
    y = n - x
    np, nq = n * p, n * (1.0 - p)
    d = x - np if p < 0.5 else nq - y
    if abs(d) > 1.0:
        a, b = p.as_integer_ratio()
        d = (x * b - n * a) / b
    lc = stirlerr(n) - stirlerr(x) - stirlerr(y) - bd0(x, np, d) - bd0(y, nq, -d)
    return lc - 0.5 * math.log(2.0 * math.pi * x * (y / n))


def _float_floor(r: float) -> int | None:
    """floor(r) where a float decides the exact floor, else None.

    r must be knot_floor's correctly rounded quotient num/p, with the
    integer num below 2**53, so that the exact value q lies within half an
    ulp of r.  r is accepted below 2**52 and more than 16 ulps from every
    integer; q is then more than 15.5 ulps from every integer, on the same
    side of each, and floor(q) = floor(r) = int(r).
    """
    if r < 2.0**52:
        floor, e = int(r), 16.0 * math.ulp(r)
        # r - floor is exact; r % 1.0 would cost an fmod loop over r's bits
        if e < r - floor < 1.0 - e:
            return floor
    return None


def knot_floor(num: int, p: float) -> tuple[int, bool]:
    """floor(num/p) and whether p is a knot.

    With p = a/b exactly (p.as_integer_ratio()), the ratio is the fraction
    q = num*b/a, and m is the integer nearest it.  p is a knot when m >= 1
    and the probability num/m lies within 4 ulps of p.  p then stands for
    that rational, and the floor is m: grids built as start + i*step land an
    ulp or so off the value they mean, as 0.01 + 9*0.01 gives
    0.09999999999999999 for 1/10.  Anywhere else the floor is the exact
    integer floor of the fraction.

    The float quotient r = num/p answers first, where _float_floor accepts
    it; for num below 2**53, r is the correctly rounded q.  There the floor
    of r is the floor of q, as _float_floor proves, and p is no knot, since
    num >= 1 and p < 1 give r > 1:
    - num/m - p = p(q - m)/m, and |q - m| > 15.5 ulp(r) > 15.5 r/2**53;
    - m <= 4q/3 (m = 1 < q, or m <= q + 1/2 with q >= 3/2), so r/m > 0.74;
    - so |num/m - p| > 11.6 p/2**53 >= 5.8 ulp(p), p being normal, as
      p > num/2**52;
    - num/m lies in [3p/4, 3p/2], so rounding it moves it by at most
      ulp(p), and its difference from p is then exact (Sterbenz): the
      computed distance exceeds 4.8 ulps, above the knot test's 4.
    Elsewhere the floor is taken in integers, from p's binary ratio.
    """
    floor = _float_floor(num / p) if num < 2**53 else None
    if floor is not None:
        return floor, False
    a, b = p.as_integer_ratio()
    floor, rest = divmod(num * b, a)
    m = floor + (2 * rest >= a)
    if m >= 1 and abs(num / m - p) <= 4 * math.ulp(p):
        return m, True
    return floor, False
