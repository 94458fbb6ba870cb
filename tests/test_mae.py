import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ibsmae.cli import parse_grid
from ibsmae.mae import (
    _SERIES_J_MAX,
    _power_sums,
    alpha,
    exact_normalized_mae,
    series_coefficients,
    series_sum,
    threshold_n0,
)
from ibsmae.numeric_core import _KERNEL_N_MAX, stirlerr
from ibsmae.simulate import brute_force_normalized_mae

import reference as ref

# standard test grid shared by the bound/monotonicity invariants
N_GRID = range(2, 31)
P_GRID = sorted({0.001, 0.01, 0.05} | {i / 20 for i in range(2, 20)} | {0.99})


def seeded_knots(seed, count, N_max, q_min=0.0, q_max=0.99):
    """(N, p, m) at count seeded knots p = (N-1)/m in doubles.

    N is log-uniform in [2, N_max] and q = (N-1)/m log-uniform in
    [q_min, q_max], clipped from below so that n0 = m + 1 stays within the
    density kernel's limit; m is the one the reference's knot rule snaps to.
    """
    rng = random.Random(seed)
    for _ in range(count):
        N = round(math.exp(rng.uniform(math.log(2), math.log(N_max))))
        q_low = max(q_min, (N - 1) / (_KERNEL_N_MAX / 2))
        q = math.exp(rng.uniform(math.log(q_low), math.log(q_max)))
        p = (N - 1) / max(N, round((N - 1) / q))
        m, knot = ref.knot_floor(N - 1, p)
        assert knot
        yield N, p, m


class TestThresholdN0:
    @pytest.mark.parametrize(
        "N, p, expected", [(2, 0.5, 3), (3, 0.5, 5), (2, 0.3, 4), (2, 0.25, 5)]
    )
    def test_examples(self, N, p, expected):
        assert threshold_n0(N, p) == expected

    def test_knot_points_land_on_the_integer_side(self):
        # at p = (N-1)/m the ratio is integral and n0 must be m+1, however
        # the division rounds
        for N in range(2, 13):
            for m in range(N, 60):
                assert threshold_n0(N, (N - 1) / m) == m + 1, (N, m)

    @given(
        N=st.integers(min_value=2, max_value=50),
        p=st.floats(min_value=1e-4, max_value=0.999),
    )
    def test_support_floor(self, N, p):
        assert threshold_n0(N, p) >= N

    def test_infinite_ratio_is_a_domain_error(self):
        with pytest.raises(ValueError, match="kernel's limit"):
            threshold_n0(65, 5e-324)

    @given(data=st.data(), N=st.integers(min_value=2, max_value=10**6))
    def test_knots_up_to_the_double_limit(self, data, N):
        # above 2**52, neighbouring m share the double (N-1)/m
        m = data.draw(st.integers(min_value=N, max_value=2**52))
        assert threshold_n0(N, (N - 1) / m) == m + 1

    @given(
        N=st.integers(min_value=2, max_value=10**6),
        log_p=st.floats(min_value=math.log(1e-16), max_value=0.0, exclude_max=True),
    )
    def test_exact_floor_off_knots(self, N, log_p):
        p = math.exp(log_p)
        assume(p < 1.0)
        n = threshold_n0(N, p) - 1
        exact = Fraction(N - 1) / Fraction(p)
        if n != math.floor(exact):
            # a knot: p lies a few ulps from (N-1)/n, n the nearest integer
            assert n == round(exact)
            assert abs(Fraction(N - 1, n) - Fraction(p)) <= 5 * Fraction(math.ulp(p))

    @pytest.mark.parametrize(
        "N, p, n0",
        [(2, 2.406259817846856e-08, 41558272), (3, 2 / (2e10 + 7.6), 20000000008)],
    )
    def test_large_ratios_get_the_floor_not_the_nearest_integer(self, N, p, n0):
        assert threshold_n0(N, p) == n0


class TestExactNormalizedMae:
    def test_hand_evaluated_half(self):
        # 2 * C(2,1) * 0.5 * 0.5**2 = 0.5
        assert exact_normalized_mae(2, 0.5) == pytest.approx(0.5, rel=1e-13)
        assert threshold_n0(2, 0.5) == 3

    def test_hand_evaluated_quarter(self):
        # 2 * 4 * 0.25 * 0.75**4
        assert exact_normalized_mae(2, 0.25) == pytest.approx(0.6328125, rel=1e-13)
        assert threshold_n0(2, 0.25) == 5

    def test_hand_evaluated_three_successes(self):
        # 2 * C(4,2) * 0.25 * 0.125
        assert exact_normalized_mae(3, 0.5) == pytest.approx(0.375, rel=1e-13)
        assert threshold_n0(3, 0.5) == 5

    def test_matches_brute_force_expectation(self):
        for N in range(2, 11):
            for p in [i / 20 for i in range(1, 20)]:
                closed = exact_normalized_mae(N, p)
                brute = brute_force_normalized_mae(N, p, 1e-12)
                assert abs(closed - brute) / closed < 1e-10, (N, p)

    def test_bound_holds_on_standard_grid(self):
        for N in N_GRID:
            bound = alpha(N)
            for p in P_GRID:
                assert exact_normalized_mae(N, p) < bound, (N, p)

    def test_strictly_decreasing_in_p(self):
        for N in N_GRID:
            values = [exact_normalized_mae(N, p) for p in P_GRID]
            assert all(a > b for a, b in zip(values, values[1:])), N

    @settings(max_examples=150, deadline=None)
    @given(
        N=st.integers(min_value=2, max_value=40),
        p=st.floats(min_value=1e-3, max_value=0.999),
    )
    def test_bound_property(self, N, p):
        assert 0.0 < exact_normalized_mae(N, p) < alpha(N)
        assert threshold_n0(N, p) >= N

    def test_tiny_p_does_not_overflow(self):
        assert threshold_n0(1000, 1e-9) == 999 * 10**9 + 1
        assert 0.0 < exact_normalized_mae(1000, 1e-9) < alpha(1000)

    @pytest.mark.parametrize("p", [0.3, 0.01, 1e-5, 1e-9])
    @pytest.mark.parametrize("N", [10**9, 10**12, 10**15, 10**18], ids=["1e9", "1e12", "1e15", "1e18"])
    def test_against_mpmath_at_large_N(self, N, p):
        # n0 runs up to about 1e27, far past the brute force's reach
        want = ref.normalized_mae(N, p, threshold_n0(N, p))
        assert ref.rel_err(exact_normalized_mae(N, p), want) <= 4e-15

    @pytest.mark.xfail(
        strict=True,
        reason="the MAE and alpha round independently; at N=2, p=1e-17 the "
        "true gap is 3.7e-18 and the MAE comes out one ulp above alpha",
    )
    def test_bound_holds_in_doubles_where_the_gap_is_below_an_ulp(self):
        assert exact_normalized_mae(2, 1e-17) <= alpha(2)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP items 1 and 13: the MAE rounds by a few ulps, more than "
        "it changes between neighbouring points of a fine grid at tiny p, so rows "
        "rise and, at N=65, pass alpha",
    )
    @pytest.mark.parametrize("N", [2, 65, 10**6])
    def test_rows_never_rise_nor_pass_alpha_on_a_fine_log_grid(self, N):
        rows = [exact_normalized_mae(N, p) for p in parse_grid("1e-16:1e-13:10000:log")]
        assert all(later <= earlier for earlier, later in zip(rows, rows[1:]))
        assert max(rows) <= alpha(N)


class TestAlpha:
    def test_two_over_e(self):
        assert alpha(2) == pytest.approx(2 / math.e, rel=1e-13)

    def test_four_over_e_squared(self):
        assert alpha(3) == pytest.approx(4 / math.e**2, rel=1e-13)

    def test_design_point_just_below_ten_percent(self):
        # mpmath oracle: 0.09960579164238391
        assert alpha(65) == pytest.approx(0.09960579164238391, rel=1e-12)
        assert alpha(65) < 0.1 < alpha(64)

    def test_strictly_decreasing(self):
        previous = alpha(2)
        for N in range(3, 200):
            current = alpha(N)
            assert current < previous
            previous = current

    def test_against_mpmath_up_to_1e16(self):
        rng = random.Random(16)
        Ns = list(range(2, 200)) + [10**k for k in range(3, 17)]
        Ns += [round(math.exp(rng.uniform(math.log(200), math.log(1e16)))) for _ in range(500)]
        worst = 0.0
        for N in Ns:
            worst = max(worst, ref.rel_err(alpha(N), ref.alpha(N)))
        # measured worst 2.4e-16 over 6000 such N
        assert worst <= 5e-16

    def test_bit_identical_to_the_unscaled_form(self):
        # the old expression, finite up to N ~ 2.86e307
        def unscaled(N):
            m = N - 1
            return 2.0 * math.exp(-stirlerr(m)) / math.sqrt(2.0 * math.pi * m)

        rng = random.Random(307)
        Ns = list(range(2, 5000))
        Ns += [round(math.exp(rng.uniform(math.log(5000), math.log(2.8e307)))) for _ in range(20000)]
        assert [alpha(N) for N in Ns] == [unscaled(N) for N in Ns]

    @pytest.mark.parametrize(
        "N", [3 * 10**307, 10**308, 17 * 10**307], ids=["3e307", "1e308", "1.7e308"]
    )
    def test_against_mpmath_beyond_2pi_overflow(self, N):
        # 2*pi*(N-1) overflows here; the reference's loggamma(N) needs ~310
        # digits of cancellation room, which its precision rule gives
        assert ref.rel_err(alpha(N), ref.alpha(N)) <= 5e-16

    def test_strictly_decreasing_up_to_the_planner_floor(self):
        # consecutive values stay apart by tens of ulps up to N ~ 6.4e13
        rng = random.Random(13)
        for _ in range(2000):
            N = round(math.exp(rng.uniform(math.log(200), math.log(6.4e13))))
            assert alpha(N + 1) < alpha(N)


class TestSeriesCoefficient:
    def test_reduces_to_reciprocal_for_two_successes(self):
        assert series_coefficients(2, 5)[5] == pytest.approx(1 / 7, abs=1e-16)
        assert series_coefficients(2, 0)[0] == 0.5

    def test_three_successes_leading_coefficient(self):
        # 1/(1*2) + 2/2 - 1/1
        assert series_coefficients(3, 0)[0] == 0.5

    def test_positive_everywhere(self):
        for N in range(2, 51):
            for j, x in enumerate(series_coefficients(N, 100)):
                assert x > 0.0, (N, j)

    def test_leading_coefficient_is_always_half(self):
        # the exact rational value of x_0 is 1/2 for every N
        for N in (2, 3, 7, 25, 50):
            assert series_coefficients(N, 0)[0] == 0.5

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            series_coefficients(3, -1)

    def test_refuses_j_max_above_the_limit_before_any_work(self):
        assert len(series_coefficients(65, _SERIES_J_MAX)) == _SERIES_J_MAX + 1
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"j_max must lie in \\[0, {_SERIES_J_MAX}\\]"):
            series_coefficients(10**7, _SERIES_J_MAX + 1)
        # the series itself would take about 0.35 s here
        assert time.perf_counter() - start < 0.1

    def test_refuses_N_above_the_limit_before_any_work(self):
        assert len(series_coefficients(10**18, 3)) == 4
        start = time.perf_counter()
        limits = ((10**18 + 1, r"need N <= 10\*\*18"), (10**3000, r"N must be <= 1\.798e\+308"))
        for N, limit in limits:
            with pytest.raises(ValueError, match=limit):
                series_coefficients(N, 100)
        # the 3001-digit N alone would take about 1.8 s
        assert time.perf_counter() - start < 0.1


class TestSeriesCoefficients:
    @pytest.mark.parametrize("N", list(range(2, 71)) + [257, 1000, 10000])
    def test_bit_identical_to_the_rational_definition(self, N):
        coefficients = series_coefficients(N, 100)
        assert len(coefficients) == 101
        for j, x in enumerate(coefficients):
            assert x == float(ref.series_coefficient(N, j)), (N, j)

    @given(n=st.integers(min_value=0, max_value=60), k_max=st.integers(min_value=0, max_value=25))
    def test_power_sums_match_direct_sums(self, n, k_max):
        assert _power_sums(n, k_max) == [
            sum(i**k for i in range(1, n + 1)) for k in range(k_max + 1)
        ]

    def test_cost_does_not_grow_with_N(self):
        start = time.perf_counter()
        coefficients = series_coefficients(10**7, 100)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert coefficients[0] == 0.5
        assert all(x > 0.0 for x in coefficients)


class TestSeriesSum:
    def test_closed_form_against_independent_derivations(self):
        # the analytic reduction at N = 2, p = 1/2 gives 4*ln2 - 2; the
        # mpmath sweep below is the other route
        result = series_sum(2, 0.5, 60)
        assert result.closed_form == pytest.approx(4 * math.log(2) - 2, rel=1e-12)

    def test_closed_form_against_mpmath_at_random_knots(self):
        # the absolute error is a few ulps of 1/p, so it is scaled by p
        rng = random.Random(1700)
        for _ in range(300):
            N = round(math.exp(rng.uniform(math.log(2), math.log(1e12))))
            target = math.exp(rng.uniform(math.log(1e-12), math.log(0.5)))
            p = (N - 1) / max(N, round((N - 1) / target))
            n0 = threshold_n0(N, p)
            with ref.workdps(n0):
                want = mpmath.log(ref.alpha(N) / ref.normalized_mae(N, p, n0)) / p
                err = float(abs(series_sum(N, p, 0).closed_form - want)) * p
            assert err <= 4e-15, (N, p)

    def test_cost_does_not_grow_with_N(self):
        start = time.perf_counter()
        series_sum(10**7 + 1, 0.5, 3)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "N, p, j_max, tol",
        [
            (1000001, 1e-6, 10, 1e-9),
            (65, 0.01, 60, 1e-13),
            (2, 1e-9, 10, 1e-15),
            (1000001, 1e-6, 10, 1e-15),
        ],
    )
    def test_fields_agree_where_the_tail_is_negligible(self, N, p, j_max, tol):
        result = series_sum(N, p, j_max)
        assert abs(result.closed_form - result.partial_sum) <= tol

    def test_single_term_partial_sums(self):
        assert series_sum(2, 0.5, 0).partial_sum == pytest.approx(0.5, abs=1e-15)
        assert series_sum(3, 0.5, 0).partial_sum == pytest.approx(0.5, abs=1e-15)

    def test_partial_sums_increase_to_the_closed_form(self):
        for N, p in [(2, 0.5), (3, 0.25), (5, 0.4), (10, 0.09)]:
            previous = series_sum(N, p, 0).partial_sum
            for j_max in (1, 2, 5, 10, 25, 60):
                current = series_sum(N, p, j_max)
                # monotone from below; strictness only claimed while the
                # remaining tail stays above float resolution
                tail = (N - 1) * p ** (j_max + 1) / ((j_max + 3) * (1 - p))
                assert current.partial_sum >= previous
                if tail > 1e-12:
                    assert current.partial_sum < current.closed_form
                assert current.closed_form - current.partial_sum <= tail + 1e-12
                previous = current.partial_sum

    def test_rejects_off_knot_probabilities(self):
        with pytest.raises(ValueError):
            series_sum(2, 0.3, 5)
        with pytest.raises(ValueError):
            series_sum(3, 0.9999, 5)

    def test_infinite_ratio_is_a_domain_error(self):
        with pytest.raises(ValueError, match=r"kernel's limit.*N=65, p=5e-324"):
            series_sum(65, 5e-324, 3)

    def test_closed_form_against_the_rational_reference(self):
        # log-uniform q over the whole accepted n0, and a third in [0.3, 0.99]
        knots = [*seeded_knots(3200, 200, 10**18), *seeded_knots(3201, 100, 10**18, 0.3)]
        for N, p, m in knots:
            err = ref.rel_err(series_sum(N, p, 0).closed_form, ref.gap_exponent(N, m))
            assert err <= 4e-15, (N, m)

    def test_closed_form_above_0_99_within_the_rounding_of_q(self):
        # p = (N-1)/m rounded moves ln(1-q) by up to ulp(q)/(1-q), and the
        # exponent is about |ln(1-q)|/2, so g = 1-q bounds the relative error
        rng = random.Random(3204)
        for _ in range(200):
            N = round(math.exp(rng.uniform(math.log(1e3), math.log(1e18))))
            g = math.exp(rng.uniform(math.log(max(2e-16, 2 / N)), math.log(0.01)))
            p = (N - 1) / round((N - 1) / (1 - g))
            m, knot = ref.knot_floor(N - 1, p)
            assert knot
            g = (m - N + 1) / m
            err = ref.rel_err(series_sum(N, p, 0).closed_form, ref.gap_exponent(N, m))
            assert err * g * -math.log(g) <= 2.2e-16, (N, m)

    def test_closed_form_is_positive_and_bounds_the_partial_sums(self):
        for N, p, m in seeded_knots(3202, 200, 10**18):
            for j_max in (0, 3, 20):
                result = series_sum(N, p, j_max)
                assert result.closed_form > 0.0, (N, m)
                assert result.partial_sum <= result.closed_form * (1 + 4e-15), (N, m, j_max)

    @pytest.mark.parametrize(
        "N, m", [(2, 10), (3, 7), (65, 6400), (10**6, 3 * 10**6 + 1), (10**9, 10**12 + 1)]
    )
    def test_closed_form_is_one_double_across_the_snap(self, N, m):
        # every p within 4 ulps of (N-1)/m that snaps to m stands for that
        # rational, so it gets the rational's gap exponent
        knot = (N - 1) / m
        snapped = [
            p for p in map(ref.ulps_from, [knot] * 9, range(-4, 5))
            if ref.knot_floor(N - 1, p) == (m, True)
        ]
        assert len(snapped) > 1
        assert len({series_sum(N, p, 0).closed_form for p in snapped}) == 1

    def test_kernel_log_ratio_matches_the_closed_form(self):
        # the closed form is taken from two Stirling terms; this ties it to
        # the density kernel that exact_normalized_mae and alpha evaluate
        for N, p, m in seeded_knots(3203, 2000, 10**6, 1e-3, 0.5):
            log_ratio = math.log(alpha(N) / exact_normalized_mae(N, p))
            assert abs(log_ratio - p * series_sum(N, p, 0).closed_form) <= 4e-15, (N, m)


class TestKernelTrialCountLimit:
    @pytest.mark.parametrize(
        "N, p", [(2, 1.1e-308), (65, 1e-306), pytest.param(10**300, 1e-10, id="1e300-1e-10")]
    )
    def test_refuses_n0_beyond_the_limit_at_once(self, N, p):
        # n0 is about 9.1e307 and 6.4e307 against a limit of 2.861e307;
        # past the limit (2, 1.1e-308) loops for ever in bd0.  At (1e300,
        # 1e-10), (N-1)/p is beyond the double range.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"kernel's limit, .* for N={N}, p={p!r}"):
            exact_normalized_mae(N, p)
        assert time.perf_counter() - start < 1.0

    def test_documented_domain_stays_inside(self):
        # p >= 1e-300 for N <= 1e6, the documented domain, keeps n0 below
        # 1e306, under the limit of 2.861e307
        assert threshold_n0(10**6, 1e-300) < _KERNEL_N_MAX
        assert exact_normalized_mae(10**6, 1e-300) == pytest.approx(alpha(10**6), rel=1e-14)


class TestMaeLimitCheck:
    @pytest.mark.parametrize("N", [2, 5])
    def test_tiny_p_converges_from_below(self, N):
        gap = exact_normalized_mae(N, 1e-6) - alpha(N)
        assert gap < 0.0
        assert abs(gap) < 1e-4 * alpha(N)

    def test_moderate_p_difference(self):
        # 0.5 - 2/e
        gap = exact_normalized_mae(2, 0.5) - alpha(2)
        assert gap == pytest.approx(-0.2357588823428847, rel=1e-12)
