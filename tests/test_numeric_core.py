import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibsmae.distributions import nbin_pmf
from ibsmae.fixed_sample import fixed_normalized_mae
from ibsmae.mae import exact_normalized_mae, threshold_n0
from ibsmae.numeric_core import _KERNEL_N_MAX, bd0, log_dbinom, stirlerr


def binomial_density(n, p, i):
    """b(i; n, p), the binomial density, through the package's one kernel."""
    return math.exp(log_dbinom(i, n, p))


EPS = 2.0**-52

# Worst relative error of the four closed-form densities against mpmath was
# 2.1e-15 over 42,000 random (N, p) draws from the grid of
# TestClosedFormsAgainstMpmath; the bound leaves about a factor of two.
DENSITY_REL_TOL = 4e-15


def mp_log_dbinom(x, n, p):
    """ln of the binomial density on the exact binary value of p.

    The loggamma terms grow like n*ln(n), so the working precision grows
    with the digits of n: 50 digits up to n ~ 1e20, more above.
    """
    with mpmath.workdps(max(50, 30 + len(str(n)))):
        p = mpmath.mpf(p)
        return (
            mpmath.loggamma(n + 1) - mpmath.loggamma(x + 1) - mpmath.loggamma(n - x + 1)
            + x * mpmath.log(p) + (n - x) * mpmath.log1p(-p)
        )


def rel_err(got, want):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) - want) / abs(want))


class TestStirlerr:
    @pytest.mark.parametrize("n", list(range(1, 40)) + [10**k for k in range(2, 17, 2)])
    def test_against_mpmath(self, n):
        with mpmath.workdps(50):
            want = (
                mpmath.loggamma(n + 1) - (n + mpmath.mpf(0.5)) * mpmath.log(n) + n
                - mpmath.log(2 * mpmath.pi) / 2
            )
        # the table is exact to rounding; the series is cut below 2e-16
        tol = 0.5 * EPS * abs(float(want)) if n <= 15 else 2e-16
        assert abs(stirlerr(n) - float(want)) <= tol

    def test_switch_from_table_to_series_is_smooth(self):
        assert stirlerr(15) > stirlerr(16) > stirlerr(17)
        assert stirlerr(16) == pytest.approx(1 / (12 * 16), rel=1e-3)


class TestBd0:
    def test_zero_at_the_mean(self):
        assert bd0(7, 7.0, 0.0) == 0.0
        assert bd0(1e12, 1e12, 0.0) == 0.0

    def test_against_mpmath_on_both_routes(self):
        rng = random.Random(20261017)
        worst = 0.0
        for _ in range(2000):
            np = math.exp(rng.uniform(0.0, math.log(1e12)))
            # half the points near np (series), half anywhere within +-35%
            spread = 1e-4 if rng.random() < 0.5 else 0.3
            x = np * math.exp(rng.uniform(-spread, spread))
            with mpmath.workdps(50):
                X, NP = mpmath.mpf(x), mpmath.mpf(np)
                want = X * mpmath.log(X / NP) + NP - X
            if want:
                worst = max(worst, rel_err(bd0(x, np, x - np), want))
        # the direct form cancels by up to ~11x where the series hands over
        assert worst <= 1e-14

    @pytest.mark.parametrize("p", [1e-310, 5e-320])
    @pytest.mark.parametrize("n", [2, 3, 1000, 10**6])
    def test_subnormal_success_probability(self, p, n):
        # x/np overflows for np below ~1e-308; one success keeps the density
        # n*p*(1-p)**(n-1), subnormal or just above, far from zero
        with mpmath.workdps(50):
            P = mpmath.mpf(p)
            want = float(n * P * (1 - P) ** (n - 1))
        got = binomial_density(n, p, 1)
        # subnormals carry fewer digits: allow a few units of the last one
        assert abs(got - want) <= 1e-13 * want + 4 * 5e-324, (got, want)
        assert bd0(1.0, n * p, 1.0 - n * p) == pytest.approx(-math.log(n * p) - 1.0 + n * p, rel=1e-15)


class TestLogDbinom:
    @pytest.mark.parametrize(
        "p", [0.5, 0.1, 0.3, 0.7, 0.99, 1e-3, 1e-9, 1e-30, 0.123456789, 1 - 2**-53]
    )
    def test_exact_against_fractions_up_to_forty_trials(self, p):
        P = Fraction(p)
        for n in range(41):
            for x in range(n + 1):
                exact = math.comb(n, x) * P**x * (1 - P) ** (n - x)
                with mpmath.workdps(50):
                    want = mpmath.log(exact.numerator) - mpmath.log(exact.denominator)
                got = log_dbinom(x, n, p)
                assert abs(got - want) <= 16 * EPS * max(1.0, abs(float(want))), (x, n)

    @pytest.mark.parametrize(
        "n, p", [(725153, 0.621275962360291), (10**7, 0.3), (10**6, 0.123456789), (5000, 0.01)]
    )
    def test_far_from_the_mode_where_n_times_p_rounds(self, n, p):
        # Rounding n*p into d = x - n*p would move the log by |d|/(1-p) ulps:
        # at the first point, five standard deviations out (d ~ 2100), the
        # log was off by 1.8e-13.
        sigma = math.sqrt(n * p * (1 - p))
        for z in (-30, -10, -3, 3, 5, 10, 30):
            x = round(n * p + z * sigma)
            if 0 < x < n:
                want = float(mp_log_dbinom(x, n, p))
                assert abs(log_dbinom(x, n, p) - want) <= 16 * EPS * max(1.0, abs(want)), x

    def test_endpoints_are_closed_forms(self):
        assert log_dbinom(0, 10, 0.25) == 10 * math.log1p(-0.25)
        assert log_dbinom(10, 10, 0.25) == 10 * math.log(0.25)
        assert log_dbinom(0, 0, 0.25) == 0.0

    def test_density_sums_to_one(self):
        total = math.fsum(math.exp(log_dbinom(x, 1000, 0.3)) for x in range(1001))
        assert total == pytest.approx(1.0, rel=1e-13)

    def test_refuses_trial_counts_beyond_the_kernel_limit_at_once(self):
        # past the limit a bd0 series meets inf * 0 = NaN and never returns
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"must be <= 2\.861e\+307, the density kernel's"):
            log_dbinom(1, int(sys.float_info.max), 0.5)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(log_dbinom(1, _KERNEL_N_MAX, 0.5))

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10**16),
        p=st.floats(min_value=1e-11, max_value=0.99),
        offset=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_near_the_mode_for_huge_trial_counts(self, n, p, offset):
        # x within three standard deviations of n*p.  Rounding n*p moves p by
        # an ulp, which moves the log by (x - n*p)/(1-p) ulps: the density's
        # own condition number, so the bound allows for it.
        x = min(max(round(n * p + offset * math.sqrt(n * p * (1 - p))), 1), n - 1)
        want = float(mp_log_dbinom(x, n, p))
        tol = 8 * EPS * (max(1.0, abs(want)) + abs(x - n * p) / (1 - p))
        assert abs(log_dbinom(x, n, p) - want) <= tol


def log_choose(n, k):
    """ln C(n, k) read off the kernel: the density at p = k/n less its powers of p.

    At p = k/n the density and both power terms are moderate, so nothing
    cancels even for n = 1e12; at k = 0 or n the powers cancel exactly.
    """
    p = k / n if 0 < k < n else 0.5
    return log_dbinom(k, n, p) - k * math.log(p) - (n - k) * math.log1p(-p)


class TestLogBinomial:
    """ln C(n, k) read off log_dbinom (log_choose), against exact integers and mpmath."""

    def test_small_case(self):
        assert log_choose(5, 2) == pytest.approx(math.log(10), rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 7, 10**6, 10**12])
    def test_choose_zero_is_zero(self, n):
        assert log_choose(n, 0) == 0.0
        assert log_choose(n, n) == 0.0

    def test_large_n_small_k_against_exact_integer_product(self):
        want = math.log(math.comb(100000, 4))
        assert log_choose(100000, 4) == pytest.approx(want, rel=1e-13)

    def test_exhaustive_against_integer_combinatorics(self):
        # every coefficient with n <= 60 checked against exact integers
        for n in range(61):
            for k in range(n + 1):
                got = math.exp(log_choose(n, k))
                want = math.comb(n, k)
                assert abs(got - want) / want < 1e-12, (n, k)

    def test_symmetry(self):
        for n in range(1, 81):
            for k in range(n + 1):
                assert abs(log_choose(n, k) - log_choose(n, n - k)) <= 1e-13

    def test_pascal_identity(self):
        for n in range(2, 51):
            for k in range(1, n):
                lhs = math.exp(log_choose(n, k))
                rhs = math.exp(log_choose(n - 1, k - 1)) + math.exp(log_choose(n - 1, k))
                assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=0, max_value=3000))
    def test_matches_exact_log_for_random_pairs(self, data, n):
        k = data.draw(st.integers(min_value=0, max_value=n))
        want = math.log(math.comb(n, k))
        assert abs(log_choose(n, k) - want) <= 1e-12 * max(1.0, abs(want))

    def test_huge_arguments_against_high_precision_reference(self):
        # mpmath.loggamma oracle at 40 digits
        cases = [
            (10**12, 5, 133.36761383685069505),
            (10**12, 10**6, 14815502.231270711917),
            (10**12, 5 * 10**11, 693147180545.90400751),
        ]
        for n, k, want in cases:
            assert log_choose(n, k) == pytest.approx(want, rel=1e-12)


class TestClosedFormsAgainstMpmath:
    """The four densities built on log_dbinom, over N in [2, 1e6], p in [1e-11, 0.99]."""

    def test_relative_error_of_every_density(self):
        rng = random.Random(3000)
        worst = dict.fromkeys(("exact", "fixed", "nbin", "binom"), 0.0)
        for _ in range(2000):
            N = round(math.exp(rng.uniform(math.log(2), math.log(1e6))))
            p = math.exp(rng.uniform(math.log(1e-11), math.log(0.99)))
            with mpmath.workdps(50):
                q = 1 - mpmath.mpf(p)
                n0 = threshold_n0(N, p)
                n = max(N, round(N / p))
                N0 = math.floor(Fraction(n) * Fraction(p)) + 1
                errors = {
                    "exact": rel_err(
                        exact_normalized_mae(N, p),
                        2 * q * mpmath.exp(mp_log_dbinom(N - 1, n0 - 1, p)),
                    ),
                    "fixed": rel_err(
                        fixed_normalized_mae(n, p),
                        2 * q * mpmath.exp(mp_log_dbinom(N0 - 1, n - 1, p)),
                    ),
                    "nbin": rel_err(
                        nbin_pmf(N, p, n0),
                        p * mpmath.exp(mp_log_dbinom(N - 1, n0 - 1, p)),
                    ),
                    "binom": rel_err(
                        binomial_density(n, p, N), mpmath.exp(mp_log_dbinom(N, n, p))
                    ),
                }
            for name, err in errors.items():
                worst[name] = max(worst[name], err)
        assert max(worst.values()) <= DENSITY_REL_TOL, worst

    @pytest.mark.parametrize(
        "N, p", [(65, 1e-16), (1000, 1e-16), (10**6, 1e-16), (2344, 0.998741715408008)]
    )
    def test_exact_mae_at_extreme_p(self, N, p):
        # d = x - n*p must come from the pair of smaller numbers: at p = 1e-16
        # n0 - 1 ~ (N-1)/p is 6e17 to 1e22, and n*(1-p) - (n-x) would subtract
        # two numbers of that size; near p = 1, x - n*p would
        n0 = threshold_n0(N, p)
        with mpmath.workdps(50):
            want = 2 * (1 - mpmath.mpf(p)) * mpmath.exp(mp_log_dbinom(N - 1, n0 - 1, p))
        assert rel_err(exact_normalized_mae(N, p), want) <= DENSITY_REL_TOL
