"""Reference values the tests check the package against.

Each function computes one quantity from its definition, on the exact
binary value of every float argument: in exact integers and Fractions, or
in mpmath at the working precision that workdps picks from the digits of
the largest integer argument.  Nothing here imports ibsmae, so a fault in
the package's density kernel cannot reach the oracle that checks it.

mpmath results are mpf values that keep the precision they were computed
at.  Comparing one with a float is exact, and rel_err rounds got - want
only once; further arithmetic on them belongs inside workdps, as the
default context keeps only 53 bits.

ulps_from is no reference value: it steps a double by ulps, for the tests
that probe inputs near a knot.
"""

import math
from fractions import Fraction

import mpmath


def workdps(*integers):
    """mpmath.workdps with 50 digits more than the largest |integer| has.

    loggamma(n) and n*log(p) are of size n*ln(n), and the quantities built
    from them cancel those leading digits, so the room must grow with the
    digits of n: 50 digits are left after the cancellation.
    """
    return mpmath.workdps(50 + max(len(str(abs(int(n)))) for n in integers))


def rel_err(got, want):
    """|got - want| / |want| as a float; got - want is rounded once."""
    return float(abs(mpmath.mpf(got) - want) / abs(want))


def log_dbinom(x, n, p):
    """ln of the binomial density C(n, x) * p**x * (1-p)**(n-x), by loggamma."""
    with workdps(n):
        q = mpmath.mpf(p)
        return (
            mpmath.loggamma(n + 1) - mpmath.loggamma(x + 1) - mpmath.loggamma(n - x + 1)
            + x * mpmath.log(q) + (n - x) * mpmath.log1p(-q)
        )


def dbinom(x, n, p):
    """The binomial density, as the exp of log_dbinom at the same precision."""
    with workdps(n):
        return mpmath.exp(log_dbinom(x, n, p))


def dbinom_fraction(x, n, p):
    """The binomial density C(n, x) * p**x * (1-p)**(n-x) as an exact Fraction."""
    a, b = p.as_integer_ratio()
    return Fraction(math.comb(n, x) * a**x * (b - a) ** (n - x), b**n)


def normalized_mae(N, p, n0):
    """2 * (1-p) * C(n0-1, N-1) * p**(N-1) * (1-p)**(n0-N), the closed form at n0.

    The caller passes n0, and so states its floor or knot rule.
    """
    with workdps(n0):
        return 2 * (1 - mpmath.mpf(p)) * dbinom(N - 1, n0 - 1, p)


def alpha(N):
    """2 * exp(-m) * m**m / m!, m = N-1: twice the Poisson(m) density at m."""
    with workdps(N):
        m = mpmath.mpf(N - 1)
        return 2 * mpmath.exp(m * mpmath.log(m) - m - mpmath.loggamma(m + 1))


def stirlerr(n):
    """ln(n!) - ln(sqrt(2*pi*n) * (n/e)**n), the error of Stirling's formula."""
    with workdps(n):
        return (
            mpmath.loggamma(n + 1) - (n + mpmath.mpf(0.5)) * mpmath.log(n) + n
            - mpmath.log(2 * mpmath.pi) / 2
        )


def bd0(x, np):
    """The deviance term x * ln(x/np) + np - x."""
    with workdps(x, np):
        x, np = mpmath.mpf(x), mpmath.mpf(np)
        return x * mpmath.log(x / np) + np - x


def binom_tails(N, p, n):
    """P(X >= N) and P(X <= N-1) for X ~ Binomial(n, p).

    Sums the side of N away from n*p, from mpmath.binomial times the powers
    of p, each next term by the exact ratio of neighbouring terms, until a
    term falls below 1e-45 of the sum.  That ratio only falls on this side,
    so the rest is far below any double's resolution.
    """
    with workdps(n):
        q = mpmath.mpf(p)
        upper = N > n * q
        k = N if upper else N - 1
        term = mpmath.binomial(n, k) * q**k * (1 - q) ** (n - k)
        total = mpmath.mpf(0)
        while term > mpmath.mpf(10) ** -45 * total or total == 0:
            total += term
            if k == (n if upper else 0):
                break
            if upper:
                term *= (n - k) * q / ((k + 1) * (1 - q))
                k += 1
            else:
                term *= k * (1 - q) / ((n - k + 1) * q)
                k -= 1
        return (total, 1 - total) if upper else (1 - total, total)


def binom_pmfs(n, p, k_max):
    """b(k; n, p) for k = 0..k_max as exact products, for n up to the double range.

    (1-p)**n * prod((n-i)/(i+1) * p/(1-p), i < k), one factor at a time:
    no loggamma of n, whose size n*ln(n) would have to cancel.
    """
    with workdps(n):
        q = mpmath.mpf(p)
        b = [mpmath.exp(n * mpmath.log1p(-q))]
        for k in range(k_max):
            b.append(b[-1] * (n - k) / (k + 1) * q / (1 - q))
        return b


def fixed_mae(n, p):
    """E|k/n - p| / p for k ~ Binomial(n, p), summed over all n+1 outcomes.

    With p = a/b exactly and c = b - a, the sum is one integer,
    sum(C(n, k) * |k*b - n*a| * a**k * c**(n-k)) / (n * a * b**n),
    rounded to a float once.  The numerator is taken by Horner's rule in
    c, so every step multiplies a long integer by a short one.
    """
    a, b = p.as_integer_ratio()
    c = b - a
    total, power, comb = 0, 1, 1  # power = a**k, comb = C(n, k)
    for k in range(n + 1):
        total = total * c + comb * abs(k * b - n * a) * power
        power *= a
        comb = comb * (n - k) // (k + 1)
    return total / (n * a * b**n)


def series_coefficient(N, j):
    """x_j = S_(j+1)(N-2) / ((j+1)(N-1)**(j+1)) + (N-1)/(j+2) - (N-2)/(j+1).

    S_k(n) = sum(i**k for i=1..n), summed term by term.
    """
    power_sum = sum(i ** (j + 1) for i in range(1, N - 1))
    return (
        Fraction(power_sum, (j + 1) * (N - 1) ** (j + 1))
        + Fraction(N - 1, j + 2)
        - Fraction(N - 2, j + 1)
    )


def knot_floor(num, p):
    """floor(num/p) and whether p is a knot, in exact Fractions.

    m is the integer nearest num/p; p is a knot when m >= 1 and num/m, in
    doubles, lies within 4 ulps of p, and the floor is then m.
    """
    q = Fraction(num) / Fraction(p)
    m = math.floor(q + Fraction(1, 2))
    if m >= 1 and abs(num / m - p) <= 4 * math.ulp(p):
        return m, True
    return math.floor(q), False


def ulps_from(p, k):
    """The double k ulps above p, or -k below it."""
    for _ in range(abs(k)):
        p = math.nextafter(p, math.copysign(math.inf, k))
    return p
