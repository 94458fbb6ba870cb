import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ibsmae.distributions import nbin_pmf
from ibsmae.fixed_sample import fixed_normalized_mae
from ibsmae.mae import exact_normalized_mae, threshold_n0
from ibsmae.numeric_core import (
    _KERNEL_N_MAX,
    _float_floor,
    bd0,
    knot_floor,
    log_dbinom,
    stirlerr,
)

import reference as ref


def binomial_density(n, p, i):
    """b(i; n, p), the binomial density, through the package's one kernel."""
    return math.exp(log_dbinom(i, n, p))


EPS = 2.0**-52

# Worst relative error of the four closed-form densities against mpmath was
# 2.1e-15 over 42,000 random (N, p) draws from the grid of
# TestClosedFormsAgainstMpmath; the bound leaves about a factor of two.
DENSITY_REL_TOL = 4e-15


class TestStirlerr:
    @pytest.mark.parametrize("n", list(range(1, 40)) + [10**k for k in range(2, 17, 2)])
    def test_against_mpmath(self, n):
        want = ref.stirlerr(n)
        # the table is exact to rounding; the series is cut below 2e-16
        tol = 0.5 * EPS * abs(float(want)) if n <= 15 else 2e-16
        assert abs(stirlerr(n) - float(want)) <= tol

    def test_switch_from_table_to_series_is_smooth(self):
        assert stirlerr(15) > stirlerr(16) > stirlerr(17)
        assert stirlerr(16) == pytest.approx(1 / (12 * 16), rel=1e-3)


def five_term_series(n):
    """stirlerr's Stirling series for n > 15, in its Horner form, with no cut."""
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


class TestStirlerrCut:
    """From n = 2**25 on, stirlerr returns (1/12)/n: the series' own bits."""

    def test_bit_for_bit_around_the_cut(self):
        for n in range(2**25 - 1000, 2**25 + 1001):
            assert stirlerr(n) == five_term_series(n), n

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(
        st.integers(16, _KERNEL_N_MAX),
        st.integers(4, 1020).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1))),
        # the cut is safe from n ~ 2.0e7 (2**24.25) on; below, the terms change bits
        st.integers(2**24, 2**26),
    ))
    def test_bit_for_bit_up_to_the_kernel_limit(self, n):
        n = min(max(n, 16), _KERNEL_N_MAX)
        assert stirlerr(n) == five_term_series(n)


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
            want = ref.bd0(x, np)
            if want:
                worst = max(worst, ref.rel_err(bd0(x, np, x - np), want))
        # the direct form cancels by up to ~11x where the series hands over
        assert worst <= 1e-14

    @pytest.mark.parametrize("p", [1e-310, 5e-320])
    @pytest.mark.parametrize("n", [2, 3, 1000, 10**6])
    def test_subnormal_success_probability(self, p, n):
        # x/np overflows for np below ~1e-308; one success keeps the density
        # n*p*(1-p)**(n-1), subnormal or just above, far from zero
        want = float(ref.dbinom(1, n, p))
        got = binomial_density(n, p, 1)
        # subnormals carry fewer digits: allow a few units of the last one
        assert abs(got - want) <= 1e-13 * want + 4 * 5e-324, (got, want)
        assert bd0(1.0, n * p, 1.0 - n * p) == pytest.approx(float(ref.bd0(1.0, n * p)), rel=1e-15)


class TestLogDbinom:
    @pytest.mark.parametrize(
        "p", [0.5, 0.1, 0.3, 0.7, 0.99, 1e-3, 1e-9, 1e-30, 0.123456789, 1 - 2**-53]
    )
    def test_exact_against_fractions_up_to_forty_trials(self, p):
        for n in range(41):
            for x in range(n + 1):
                exact = ref.dbinom_fraction(x, n, p)
                with ref.workdps(n):
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
                want = float(ref.log_dbinom(x, n, p))
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
        want = float(ref.log_dbinom(x, n, p))
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
            n0 = threshold_n0(N, p)
            n = max(N, round(N / p))
            N0 = math.floor(Fraction(n) * Fraction(p)) + 1
            with ref.workdps(n0, n):
                errors = {
                    "exact": ref.rel_err(exact_normalized_mae(N, p), ref.normalized_mae(N, p, n0)),
                    # the fixed MAE is 2(1-p) times the density of N0-1 in n-1
                    "fixed": ref.rel_err(fixed_normalized_mae(n, p), ref.normalized_mae(N0, p, n)),
                    "nbin": ref.rel_err(nbin_pmf(N, p, n0), p * ref.dbinom(N - 1, n0 - 1, p)),
                    "binom": ref.rel_err(binomial_density(n, p, N), ref.dbinom(N, n, p)),
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
        want = ref.normalized_mae(N, p, threshold_n0(N, p))
        assert ref.rel_err(exact_normalized_mae(N, p), want) <= DENSITY_REL_TOL


def ulps_from(p, k):
    """The double k ulps above p, or -k below it."""
    for _ in range(abs(k)):
        p = math.nextafter(p, math.copysign(math.inf, k))
    return p


@st.composite
def knot_floor_cases(draw):
    """(num, p) with p within 64 ulps of a knot num/m.

    m lies log-uniformly above num, or within 2**20 of a power of two from
    2**48 to 2**53, where the float floor stops answering; or num lies near
    2**53; or p is subnormal, with any num.
    """
    kind = draw(st.sampled_from(["knot", "r near 2**52", "num near 2**53", "subnormal"]))
    # sampled, not st.integers, which favours k near 0: both sides of 16 ulps
    k = draw(st.sampled_from(range(-64, 65)))
    if kind == "subnormal":
        return draw(st.integers(1, 2**53 + 64)), draw(st.floats(5e-324, 2.0**-1022))
    if kind == "num near 2**53":
        num = 2**53 + draw(st.integers(-64, 64))
        return num, ulps_from(num / draw(st.integers(num + 1, 2**64)), k)
    num = draw(st.integers(1, 10**6))
    if kind == "knot":
        m = num + draw(st.integers(0, 59).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1))))
    else:
        m = draw(st.integers(48, 53).flatmap(lambda e: st.integers(2**e - 2**20, 2**e + 2**20)))
    return num, ulps_from(num / m, k)


class TestFloatFloor:
    """The float floor answers only where it equals the exact one."""

    @pytest.mark.parametrize("m", [1, 3, 5, 1000001, 2**40 + 1])
    def test_refuses_within_16_ulps_of_an_integer(self, m):
        for k in range(-16, 17):
            assert _float_floor(ulps_from(float(m), k)) is None
        assert _float_floor(ulps_from(float(m), 17)) == m
        assert _float_floor(ulps_from(float(m), -17)) == m - 1

    @pytest.mark.parametrize("r", [2.0**51 + 0.5, 2.0**52 - 0.5, 2.0**52, 1e300, math.inf])
    def test_refuses_large_quotients(self, r):
        assert _float_floor(r) is None

    def test_answers_below_one_and_for_subnormals(self):
        assert _float_floor(2.0**46 + 0.5) == 2**46
        assert _float_floor(0.5) == 0
        assert _float_floor(17 * 5e-324) == 0
        assert _float_floor(16 * 5e-324) is None

    def test_answers_most_of_the_bench_grid(self):
        # the log grid 1e-10..0.99 of the curve benchmark, at N = 65
        grid = [1e-10 * math.exp(i * math.log(0.99e10) / 999) for i in range(1000)]
        floors = [_float_floor(64 / p) for p in grid]
        assert sum(f is not None for f in floors) >= 950
        for p, floor in zip(grid, floors):
            if floor is not None:
                assert floor == math.floor(64 / Fraction(p))

    @settings(max_examples=1000, deadline=None)
    @given(case=knot_floor_cases())
    def test_knot_floor_against_fractions(self, case):
        num, p = case
        assume(0.0 < p < 1.0)
        assert knot_floor(num, p) == ref.knot_floor(num, p)

    @settings(max_examples=500, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 2**53 + 64), st.integers(2**53 - 64, 2**53 + 64)),
        data=st.data(),
    )
    def test_fixed_threshold_against_fractions(self, n, data):
        # p within 64 ulps of k/n, where N0 = floor(n*p) + 1 jumps
        k = data.draw(st.integers(0, n))
        p = ulps_from(k / n, data.draw(st.sampled_from(range(-64, 65))))
        assume(0.0 < p < 1.0)
        floor = math.floor(n * Fraction(p))
        if n < 2**53:
            assert _float_floor(n * p) in (None, floor)
        want = 2.0 * (1.0 - p) * math.exp(log_dbinom(floor, n - 1, p))
        assert fixed_normalized_mae(n, p) == want
