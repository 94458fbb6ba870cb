import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ibsmae.fixed_sample import (
    asymptotic_ratio,
    fixed_normalized_mae,
    matched_fixed_mae,
    sequential_vs_fixed_ratio,
)
from ibsmae.mae import exact_normalized_mae
from ibsmae.numeric_core import log_dbinom

import reference as ref


class TestFixedNormalizedMae:
    def test_four_trials_at_half(self):
        assert fixed_normalized_mae(4, 0.5) == pytest.approx(0.375, rel=1e-13)

    def test_single_trial(self):
        # E|k - 0.5| = 0.5 exactly for one Bernoulli draw, so /p gives 1
        assert fixed_normalized_mae(1, 0.5) == pytest.approx(1.0, rel=1e-13)

    def test_ten_trials_against_oracle(self):
        got = fixed_normalized_mae(10, 0.3)
        assert got == pytest.approx(ref.fixed_mae(10, 0.3), rel=1e-12)

    def test_full_grid_against_oracle(self):
        for n in range(1, 101):
            for p in [i / 20 for i in range(1, 20)]:
                got = fixed_normalized_mae(n, p)
                want = ref.fixed_mae(n, p)
                assert abs(got - want) / want < 1e-10, (n, p)

    def test_continuous_at_knots(self):
        # at p = j/n the threshold floor(n*p) + 1 jumps from j to j+1, and
        # the MAE must not: both sides match the exhaustive sum, however
        # the double j/n and its neighbours round n*p
        for n in range(2, 60):
            for j in range(1, n):
                probabilities = [j / n]
                for _ in range(4):
                    probabilities[:0] = [math.nextafter(probabilities[0], 0.0)]
                    probabilities.append(math.nextafter(probabilities[-1], 1.0))
                for p in probabilities:
                    want = ref.fixed_mae(n, p)
                    assert fixed_normalized_mae(n, p) == pytest.approx(want, rel=1e-12), (n, j, p)

    def test_threshold_near_one_stays_in_range(self):
        # within 4 ulps of 1 the exact floor of n*p is n - 1, so the
        # threshold stays inside the binomial support
        # the MAE is below 1e-15 here, where approx's default abs of 1e-12
        # would accept any value
        p = 1.0
        for _ in range(4):
            p = math.nextafter(p, 0.0)
            want = ref.fixed_mae(5, p)
            assert fixed_normalized_mae(5, p) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=500, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 2**53 + 64), st.integers(2**53 - 64, 2**53 + 64)),
        data=st.data(),
    )
    def test_fixed_threshold_against_fractions(self, n, data):
        # p within 64 ulps of k/n, where N0 = floor(n*p) + 1 jumps
        k = data.draw(st.integers(0, n))
        p = ref.ulps_from(k / n, data.draw(st.sampled_from(range(-64, 65))))
        assume(0.0 < p < 1.0)
        floor = math.floor(n * Fraction(p))
        want = 2.0 * (1.0 - p) * math.exp(log_dbinom(floor, n - 1, p))
        assert fixed_normalized_mae(n, p) == want

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            fixed_normalized_mae(0, 0.5)


    @pytest.mark.parametrize("n", [10**308, 10**400], ids=["1e308", "1e400"])
    def test_refuses_sizes_beyond_the_kernel_limit_at_once(self, n):
        # past the limit 1e308 gives 0.0 (2*pi*x overflows) and 1e400 a
        # bare OverflowError
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"must be <= 2\.861e\+307, the density kernel"):
            fixed_normalized_mae(n, 0.5)
        assert time.perf_counter() - start < 1.0

    def test_size_below_the_kernel_limit_keeps_its_value(self):
        # 2 * (1-p) * C(n-1, n/2) / 2**(n-1) -> sqrt(2 / (pi*n)) at p = 1/2
        value = fixed_normalized_mae(10**307, 0.5)
        assert value == 2.523132522020186e-154
        # 1.03e-14 off the exact value (400-digit mpmath), which the limit meets to 5.7e-17
        assert value == pytest.approx(math.sqrt(2.0 / (math.pi * 1e307)), rel=1.1e-14, abs=0.0)


class TestSequentialVsFixedRatio:
    def test_matched_quotient_at_half(self):
        # 0.5 / 0.375
        assert sequential_vs_fixed_ratio(2, 0.5) == pytest.approx(4 / 3, rel=1e-12)

    @pytest.mark.parametrize("N", range(2, 11))
    def test_small_p_converges_to_asymptote(self, N):
        ratio = sequential_vs_fixed_ratio(N, 1e-4)
        assert abs(ratio - asymptotic_ratio(N)) / asymptotic_ratio(N) < 0.01

    def test_always_above_one_on_matched_sizes(self):
        # inverse binomial sampling never beats the fixed design on the grid
        for N in range(2, 11):
            for m in range(N + 1, 80, 3):
                assert sequential_vs_fixed_ratio(N, N / m) > 1.0, (N, m)

    def test_consistency_with_components(self):
        want = (
            exact_normalized_mae(5, 0.2)
            / fixed_normalized_mae(25, 0.2)
        )
        assert sequential_vs_fixed_ratio(5, 0.2) == want

    def test_rejects_nonintegral_matched_size(self):
        with pytest.raises(ValueError):
            sequential_vs_fixed_ratio(2, 0.3)

    def test_matched_size_within_four_ulps(self):
        # the CLI grid 0.01:0.99:99 gives 0.09999999999999999 for 1/10
        p = 0.01 + 9 * 0.01
        assert matched_fixed_mae(5, p) == fixed_normalized_mae(50, p)
        assert matched_fixed_mae(5, 0.1 + 8 * math.ulp(0.1)) is None
        assert matched_fixed_mae(2, 0.3) is None


class TestAsymptoticRatio:
    def test_two_successes(self):
        assert asymptotic_ratio(2) == pytest.approx(math.e / 2, rel=1e-13)

    def test_five_successes(self):
        assert asymptotic_ratio(5) == pytest.approx(math.e * 1.25**-4, rel=1e-13)

    def test_eleven_successes(self):
        assert asymptotic_ratio(11) == pytest.approx(1.0480153177406215, rel=1e-12)

    def test_decreases_toward_one(self):
        previous = asymptotic_ratio(2)
        for N in range(3, 300):
            current = asymptotic_ratio(N)
            assert 1.0 < current < previous
            previous = current
        assert asymptotic_ratio(10**6) == pytest.approx(1.0, abs=1e-5)
