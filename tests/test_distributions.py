import itertools
import math
import sys
import time

import mpmath
import pytest

import ibsmae.distributions as dist
from ibsmae.distributions import nbin_cdf, nbin_pmf, nbin_sf
from ibsmae.mae import threshold_n0
from ibsmae.numeric_core import _KERNEL_N_MAX, log_dbinom

import reference as ref


def binomial_density(n, p, i):
    """b(i; n, p), the binomial density, through the package's one kernel."""
    return math.exp(log_dbinom(i, n, p))


P_GRID = sorted({0.001, 0.005, 0.01} | {i / 20 for i in range(1, 20)} | {0.99})


def enumerate_stopping_probability(N, p, n):
    # brute-force oracle: sum over all length-n Bernoulli strings whose last
    # trial is the N-th success
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=n):
        if outcome[-1] == 1 and sum(outcome) == N:
            successes = sum(outcome)
            total += p**successes * (1 - p) ** (n - successes)
    return total


class TestNbinPmf:
    def test_all_first_trials_succeed(self):
        # f_N(N) = p**N
        assert nbin_pmf(3, 0.4, 3) == pytest.approx(0.4**3, rel=1e-13)
        assert nbin_pmf(2, 0.5, 2) == pytest.approx(0.25, rel=1e-13)

    def test_hand_evaluated_case(self):
        # C(2,1) * 0.5**2 * 0.5 = 0.25
        assert nbin_pmf(2, 0.5, 3) == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("N, p, n", [(2, 0.5, 3), (2, 0.3, 5), (3, 0.7, 6), (4, 0.25, 8)])
    def test_against_string_enumeration(self, N, p, n):
        want = enumerate_stopping_probability(N, p, n)
        assert nbin_pmf(N, p, n) == pytest.approx(want, rel=1e-12)

    def test_geometric_case_supported(self):
        # N=1 is the geometric distribution, needed by the threshold identity
        assert nbin_pmf(1, 0.25, 4) == pytest.approx(0.25 * 0.75**3, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nbin_pmf(2, 0.5, 1)
        with pytest.raises(ValueError):
            nbin_pmf(2, 0.0, 5)
        with pytest.raises(ValueError):
            nbin_pmf(2, 1.0, 5)
        with pytest.raises(ValueError):
            nbin_pmf(0, 0.5, 5)


class TestNbinCdf:
    def test_single_term_sum(self):
        assert nbin_cdf(2, 0.5, 2) == pytest.approx(0.25, rel=1e-13)

    def test_two_term_sum(self):
        assert nbin_cdf(2, 0.5, 3) == pytest.approx(0.5, rel=1e-13)

    def test_approaches_one(self):
        assert nbin_cdf(2, 0.5, 200) == pytest.approx(1.0, abs=1e-12)
        assert nbin_cdf(2, 0.5, 200) <= 1.0

    def test_matches_pmf_summation(self):
        # the binomial-tail route must agree with the definition
        for N, p in [(1, 0.3), (2, 0.5), (3, 0.2), (5, 0.7), (10, 0.4)]:
            running = 0.0
            for n in range(N, N + 60):
                running += nbin_pmf(N, p, n)
                assert nbin_cdf(N, p, n) == pytest.approx(running, abs=1e-13)

    def test_matches_complementary_binomial_sum(self):
        # P(N-th success by trial n) = 1 - P(Binomial(n, p) <= N-1)
        for N, p, n in [(2, 0.5, 9), (4, 0.1, 70), (7, 0.8, 12), (10, 0.35, 41)]:
            complement = math.fsum(binomial_density(n, p, i) for i in range(N))
            assert nbin_cdf(N, p, n) == pytest.approx(1.0 - complement, abs=1e-13)

    @pytest.mark.parametrize(
        "N, p, n",
        [(1050, 0.01, 10**5), (950, 0.01, 10**5), (500001, 0.5, 10**6), (499000, 0.5, 10**6)],
    )
    def test_every_tail_anchor_is_the_kernel_density(self, N, p, n):
        # the walk starts as _binom_tails starts it, on the side of N
        # without the mode; every _ANCHOR_EVERY-th density, the first among
        # them, is exp(log_dbinom(k, n, p)) bit for bit
        upper = N >= (n + 1) * p
        j, every = (N if upper else n - N + 1), dist._ANCHOR_EVERY
        terms = list(dist._tail_terms(j, n, p, upper))
        assert len(terms) > 2 * every
        for i, term in enumerate(terms[::every]):
            k = j + i * every
            assert term == binomial_density(n, p, k if upper else n - k)

    def test_pmf_cdf_consistency_up_to_large_n(self):
        for N, p in [(2, 0.5), (3, 0.1), (5, 0.01), (4, 0.9)]:
            ladder = list(range(N + 1, N + 30)) + [100, 500, 1000, 5000, 10000]
            for n in ladder:
                diff = nbin_cdf(N, p, n) - nbin_cdf(N, p, n - 1)
                assert abs(diff - nbin_pmf(N, p, n)) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nbin_cdf(3, 0.5, 2)


class TestNbinSf:
    def test_complements_cdf(self):
        for N, p, n in [(2, 0.5, 5), (5, 0.2, 40), (3, 0.9, 4)]:
            assert nbin_sf(N, p, n) == pytest.approx(1.0 - nbin_cdf(N, p, n), abs=1e-13)

    def test_far_tail_keeps_relative_accuracy(self):
        # direct pmf tail oracle: sf(n) = sum of pmf beyond n
        tail = math.fsum(nbin_pmf(2, 0.5, n) for n in range(81, 140))
        assert nbin_sf(2, 0.5, 80) == pytest.approx(tail, rel=1e-10, abs=0.0)

    def test_pmf_mass_plus_tail_is_one(self):
        for N in range(1, 11):
            for p in [i / 10 for i in range(1, 10)]:
                for n in (N, 30, 300):
                    mass = math.fsum(nbin_pmf(N, p, k) for k in range(N, n + 1))
                    assert mass + nbin_sf(N, p, n) == pytest.approx(1.0, abs=1e-12)
                    assert mass <= 1.0 + 1e-12


def tail_points():
    points = []
    # near the mode floor((n+1)p), where each side holds about half the mass
    for n, p in itertools.chain(
        itertools.product((10, 1000, 10**5), (0.5, 0.3, 0.123456789, 0.01, 0.999)),
        itertools.product((10**7,), (0.3, 0.999)),
    ):
        mode = math.floor((n + 1) * p)
        points += [(N, p, n) for N in range(mode - 1, mode + 3) if 1 <= N <= n]
    # the threshold identity's points (N-1, n0-1) and (N, n0)
    for N in (2, 5, 65, 1000):
        for p in (0.5, 0.2, 0.01, 1e-3, 3.7e-6):
            n0 = threshold_n0(N, p)
            points += [(N - 1, p, n0 - 1), (N, p, n0)]
    # the geometric case, N = 1
    points += [(1, p, n) for p in (0.9, 0.3, 1e-4) for n in (1, 7, 100)] + [(1, 1e-4, 10**5)]
    # both far tails: N ten and thirty standard deviations from the mode,
    # down to P ~ 1e-200, and the first and last terms of the support
    for n, p in ((200, 0.5), (5000, 0.3), (10**6, 0.02), (10**7, 0.6)):
        sigma = math.sqrt(n * p * (1 - p))
        for z in (-30, -10, 10, 30):
            N = round(n * p + z * sigma)
            if 1 <= N <= n:
                points.append((N, p, n))
    points += [(1, 0.5, 200), (200, 0.5, 200), (1, 0.02, 3000), (300, 0.3, 300)]
    return points


class TestTailsAgainstMpmath:
    @pytest.mark.parametrize("N, p, n", tail_points())
    def test_cdf_and_sf_against_binomial_sums(self, N, p, n):
        # Relative error 1e-14.  Deep in a tail the value is no more
        # accurate than its first term, which the density kernel forms as
        # the exp of a log: a few ulps of that log's size, |ln P|, become a
        # relative error, so there the bound grows as |ln P| / 3 * 1e-14
        # (measured worst, 2.8e-15 * |ln P|, over 2,400 random points).
        want_cdf, want_sf = ref.binom_tails(N, p, n)
        for got, want in ((nbin_cdf(N, p, n), want_cdf), (nbin_sf(N, p, n), want_sf)):
            tol = 1e-14 * max(1.0, abs(float(mpmath.log(want))) / 3)
            assert abs(got - want) <= tol * want, (got, float(want))

    def test_refuses_a_wide_walk_at_once(self):
        # n*p*(1-p) = 1e10 + 0.25, just above the limit: from the mode the
        # walk would sum some 840,000 terms
        n = 4 * 10**10 + 1
        start = time.perf_counter()
        for func in (nbin_cdf, nbin_sf):
            with pytest.raises(ValueError, match=rf"n={n}, p=0\.5 .* <= 1e\+10"):
                func(n // 2, 0.5, n)
        assert time.perf_counter() - start < 1.0


def far_tail_pmf_points():
    # (x, n, p) ten and thirty standard deviations from the mode, down to
    # densities of about 1e-200, and a point 1.9e-13 off mpmath
    points = [(1184, 1209, 0.5184526311557374)]
    for n, p in ((200, 0.5), (5000, 0.3), (10**6, 0.02), (10**7, 0.6)):
        sigma = math.sqrt(n * p * (1 - p))
        points += [(round(n * p + z * sigma), n, p) for z in (-30, -10, 10, 30)]
    return [(x, n, p) for x, n, p in points if 1 <= x < n]


class TestPmfsAgainstMpmath:
    @pytest.mark.parametrize(
        "n", [10**301, 10**304, 10**307, _KERNEL_N_MAX],
        ids=["1e301", "1e304", "1e307", "kernel_max"],
    )
    def test_near_the_mode_up_to_the_kernel_limit(self, n):
        # Binomial means n*p of 0.5 to 400, with the tails at the 1e-14 of
        # TestTailsAgainstMpmath (measured worst 2.0e-15; pmfs 4.8e-16).
        # loggamma(n) would cancel some 310 digits at n ~ 1e307, so the
        # reference is the exact product, which cancels nothing.  Below
        # the smallest normal double a value is subnormal and loses digits
        # by construction (nbin_pmf = p * b at p ~ 1e-307), so it is skipped.
        for mean in (0.5, 3.0, 50.0, 400.0):
            p = mean / n
            mode = math.floor(mean)
            xs = [x for x in range(mode - 1, mode + 3) if x >= 1]
            b, b_before = ref.binom_pmfs(n, p, xs[-1]), ref.binom_pmfs(n - 1, p, xs[-1])
            with ref.workdps(n):
                for x in xs:
                    sf = mpmath.fsum(b[:x])
                    for got, want, tol in (
                        (binomial_density(n, p, x), b[x], 2e-15),
                        (nbin_pmf(x, p, n), p * b_before[x - 1], 2e-15),
                        (nbin_sf(x, p, n), sf, 1e-14),
                        (nbin_cdf(x, p, n), 1 - sf, 1e-14),
                    ):
                        if want >= sys.float_info.min:
                            assert abs(got - want) <= tol * want, (x, mean, got, float(want))

    @pytest.mark.parametrize(
        "n", [10**301, 10**307, _KERNEL_N_MAX], ids=["1e301", "1e307", "kernel_max"]
    )
    def test_at_the_mode_for_p_of_order_one(self, n):
        # nbin_pmf(x + 1, p, n) = p * b(x; n-1, p), with x next to the mode
        # floor(n*p).  There ln b is about -350, and exp turns the log's
        # rounding into a relative error of up to some 350 ulps: measured
        # worst 2.74e-14, at p = 0.9 and n = 1e301.
        for p in (0.01, 0.017, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            a, b = p.as_integer_ratio()
            mode = n * a // b
            for x in (mode - 1, mode, mode + 1):
                with ref.workdps(n):
                    want = p * ref.dbinom(x, n - 1, p)
                assert ref.rel_err(nbin_pmf(x + 1, p, n), want) <= 3e-14, (p, x - mode)

    @pytest.mark.parametrize("x, n, p", far_tail_pmf_points())
    def test_far_tail_pmfs(self, x, n, p):
        # the kernel returns the exp of a log, and a few ulps of that log's
        # size, |ln P|, become a relative error: deep in a tail the bound
        # is |ln P| / 3 * 1e-14, as for the tails above
        with ref.workdps(n):
            binom, nbin = ref.dbinom(x, n, p), p * ref.dbinom(x - 1, n - 1, p)
        for got, want in ((binomial_density(n, p, x), binom), (nbin_pmf(x, p, n), nbin)):
            tol = 1e-14 * max(1.0, abs(float(mpmath.log(want))) / 3)
            assert abs(got - want) <= tol * want, (got, float(want))


class TestTrialCountLimit:
    @pytest.mark.parametrize(
        "n", [_KERNEL_N_MAX + 1, int(sys.float_info.max), 10**400, 10**5000],
        ids=["kmax+1", "float_max", "1e400", "1e5000"],
    )
    def test_refuses_a_count_beyond_the_limit_at_once(self, n):
        # just below the double range the kernel looped forever, and above
        # it float(n) raised OverflowError
        start = time.perf_counter()
        limit = r"must be <= 2\.861e\+307, the density kernel's limit"
        for call in (nbin_pmf, nbin_cdf, nbin_sf):
            with pytest.raises(ValueError, match=limit):
                call(2, 0.5, n)
        assert time.perf_counter() - start < 1.0

    def test_the_limit_itself_is_accepted(self):
        # n*p = 1: a Poisson(1) count, to the precision of p's binary value;
        # 1e300 was the pmfs' own limit before they shared the kernel's
        e = math.exp(-1.0)
        for n in (10**300, _KERNEL_N_MAX):
            p = 1 / n
            assert nbin_pmf(2, p, n) == pytest.approx(e * p, rel=1e-12, abs=0.0)
            assert nbin_cdf(2, p, n) == pytest.approx(1 - 2 * e, rel=1e-12)
            assert nbin_sf(2, p, n) == pytest.approx(2 * e, rel=1e-12)
            assert binomial_density(n, p, 1) == pytest.approx(e, rel=1e-12)


class TestBinomialDensity:
    def test_simple_fraction(self):
        assert binomial_density(4, 0.5, 2) == pytest.approx(0.375, rel=1e-13)

    def test_zero_successes(self):
        for n, p in [(3, 0.2), (10, 0.7)]:
            assert binomial_density(n, p, 0) == pytest.approx((1 - p) ** n, rel=1e-13)

    def test_exact_rational_case(self):
        # C(10,3) * 0.3**3 * 0.7**7 evaluated in exact rational arithmetic
        assert binomial_density(10, 0.3, 3) == pytest.approx(0.266827932, rel=1e-12)

    def test_sums_to_one(self):
        for n, p in [(17, 0.3), (40, 0.77)]:
            total = math.fsum(binomial_density(n, p, i) for i in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-13)


class TestDerivationIdentities:
    def test_threshold_distribution_identity(self):
        # F_{N-1}(n0 - 1) = F_N(n0) + (1-p) * b_{n0-1, p}(N-1)
        for N in range(2, 11):
            for p in P_GRID:
                n0 = threshold_n0(N, p)
                lhs = nbin_cdf(N - 1, p, n0 - 1)
                rhs = nbin_cdf(N, p, n0) + (1 - p) * binomial_density(n0 - 1, p, N - 1)
                assert abs(lhs - rhs) <= 1e-11, (N, p)

    def test_pmf_order_recurrence(self):
        # f_N(n)/(n-1) = p * f_{N-1}(n-1)/(N-1)
        for N in range(3, 11):
            for p in [0.1, 0.35, 0.5, 0.8]:
                for n in range(N + 1, N + 40):
                    lhs = nbin_pmf(N, p, n) / (n - 1)
                    rhs = p * nbin_pmf(N - 1, p, n - 1) / (N - 1)
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
