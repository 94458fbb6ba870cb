import itertools
import math

import pytest

from ibsmae.distributions import binom_pmf, nbin_cdf, nbin_pmf, nbin_sf
from ibsmae.mae import threshold_n0

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
            complement = math.fsum(binom_pmf(n, p, i) for i in range(N))
            assert nbin_cdf(N, p, n) == pytest.approx(1.0 - complement, abs=1e-13)

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
        assert nbin_sf(2, 0.5, 80) == pytest.approx(tail, rel=1e-10)

    def test_pmf_mass_plus_tail_is_one(self):
        for N in range(1, 11):
            for p in [i / 10 for i in range(1, 10)]:
                for n in (N, 30, 300):
                    mass = math.fsum(nbin_pmf(N, p, k) for k in range(N, n + 1))
                    assert mass + nbin_sf(N, p, n) == pytest.approx(1.0, abs=1e-12)
                    assert mass <= 1.0 + 1e-12


class TestBinomPmf:
    def test_simple_fraction(self):
        assert binom_pmf(4, 0.5, 2) == pytest.approx(0.375, rel=1e-13)

    def test_zero_successes(self):
        for n, p in [(3, 0.2), (10, 0.7)]:
            assert binom_pmf(n, p, 0) == pytest.approx((1 - p) ** n, rel=1e-13)

    def test_exact_rational_case(self):
        # C(10,3) * 0.3**3 * 0.7**7 evaluated in exact rational arithmetic
        assert binom_pmf(10, 0.3, 3) == pytest.approx(0.266827932, rel=1e-12)

    def test_sums_to_one(self):
        for n, p in [(17, 0.3), (40, 0.77)]:
            total = math.fsum(binom_pmf(n, p, i) for i in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_pmf(4, 0.5, 5)
        with pytest.raises(ValueError):
            binom_pmf(4, 0.5, -1)


class TestDerivationIdentities:
    def test_threshold_distribution_identity(self):
        # F_{N-1}(n0 - 1) = F_N(n0) + (1-p) * b_{n0-1, p}(N-1)
        for N in range(2, 11):
            for p in P_GRID:
                n0 = threshold_n0(N, p)
                lhs = nbin_cdf(N - 1, p, n0 - 1)
                rhs = nbin_cdf(N, p, n0) + (1 - p) * binom_pmf(n0 - 1, p, N - 1)
                assert abs(lhs - rhs) <= 1e-11, (N, p)

    def test_pmf_order_recurrence(self):
        # f_N(n)/(n-1) = p * f_{N-1}(n-1)/(N-1)
        for N in range(3, 11):
            for p in [0.1, 0.35, 0.5, 0.8]:
                for n in range(N + 1, N + 40):
                    lhs = nbin_pmf(N, p, n) / (n - 1)
                    rhs = p * nbin_pmf(N - 1, p, n - 1) / (N - 1)
                    assert lhs == pytest.approx(rhs, rel=1e-12)
