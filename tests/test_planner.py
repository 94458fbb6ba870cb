import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibsmae.planner as planner
from ibsmae.mae import alpha
from ibsmae.planner import plan_mae, plan_rmse, rmse_bound

import reference as ref


class TestPlanMae:
    def test_ten_percent_needs_sixty_five(self):
        assert plan_mae(0.10) == 65
        assert alpha(64) > 0.10 > alpha(65)

    def test_loose_target_met_by_smallest_targets(self):
        # alpha(2) = 2/e =~ 0.7358 exceeds 0.70, so three successes are needed
        assert plan_mae(0.70) == 3
        assert plan_mae(0.74) == 2

    def test_bracket_just_above_third_bound(self):
        assert plan_mae(alpha(3) + 1e-9) == 3
        assert plan_mae(alpha(3)) == 3
        assert plan_mae(alpha(3) - 1e-9) == 4

    def test_minimality_for_random_targets(self):
        rng = np.random.default_rng(20240817)
        for target in rng.uniform(0.005, 0.7, size=1000):
            N = plan_mae(float(target))
            assert alpha(N) <= target
            if N > 2:
                assert alpha(N - 1) > target

    @settings(max_examples=100, deadline=None)
    @given(target=st.floats(min_value=0.005, max_value=0.7))
    def test_minimality_property(self, target):
        N = plan_mae(target)
        assert alpha(N) <= target
        if N > 2:
            assert alpha(N - 1) > target

    def test_alpha_strictly_decreasing_up_to_ten_thousand(self):
        # the monotone search relies on this
        values = [alpha(N) for N in range(2, 10_001)]
        ratios = np.array(values[1:]) / np.array(values[:-1])
        assert np.all(ratios < 1.0)

    @pytest.mark.parametrize("target", [0.0, -0.1, 1.0, 2.0])
    def test_rejects_out_of_range_targets(self, target):
        with pytest.raises(ValueError):
            plan_mae(target)

    def test_ten_to_the_minus_four_regression(self):
        # the true minimum by mpmath; a bound accurate only to ~1e-7 relative
        # once gave 63661968, whose bound exceeds 1e-4
        assert plan_mae(1e-4) == 63661979

    @pytest.mark.parametrize("target", [9.99e-8, 1e-9, 1e-300])
    def test_rejects_targets_below_the_floor(self, target):
        with pytest.raises(ValueError, match="1e-07"):
            plan_mae(target)

    def test_floor_itself_is_planned(self):
        N = plan_mae(1e-7)
        assert alpha(N) <= 1e-7 < alpha(N - 1)

    def test_bound_and_minimality_against_mpmath(self):
        rng = random.Random(600)
        targets = [math.exp(rng.uniform(math.log(1e-7), math.log(0.3))) for _ in range(600)]
        # targets within three ulps of alpha(N) itself, where a comparison in
        # doubles cannot tell which side of the target the true bound is on
        for N in [2, 3, 6, 65, 1001, 1002] + [rng.randint(1003, 6 * 10**13) for _ in range(60)]:
            below = above = alpha(N)
            targets.append(below)
            for _ in range(3):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                targets += [below, above]
        for target in targets:
            if not 1e-7 <= target < 1.0:
                continue
            N = plan_mae(target)
            assert ref.alpha(N) <= target, (target, N)
            assert N == 2 or ref.alpha(N - 1) > target, (target, N)

    def test_one_upward_search_from_below_the_answer(self, monkeypatch):
        # targets at alpha(N) and one ulp either side, N log-spaced from 2 to
        # the floor's plan, plus log-uniform targets: the search starts at or
        # below the answer and only steps up, evaluating alpha at most 3 times
        rng = random.Random(19)
        floor_N = plan_mae(planner._MAE_TARGET_MIN)
        targets = [math.exp(rng.uniform(math.log(1e-7), math.log(0.99))) for _ in range(5000)]
        for N in sorted({round(x) for x in np.geomspace(2, floor_N, 400)}):
            at = alpha(N)
            targets += [math.nextafter(at, 0.0), at, math.nextafter(at, 1.0)]
        calls = []
        monkeypatch.setattr(planner, "alpha", lambda N: calls.append(N) or alpha(N))
        for target in targets:
            if not planner._MAE_TARGET_MIN <= target < 1.0:
                continue
            calls.clear()
            N = plan_mae(target)
            assert calls == list(range(calls[0], N + 1)), (target, calls, N)
            assert len(calls) <= 3, (target, calls)
            assert not planner._exceeds(N, target), (target, N)
            assert N == 2 or planner._exceeds(N - 1, target), (target, N)


class TestPlanRmse:
    def test_ten_percent(self):
        assert plan_rmse(0.10) == 102
        assert rmse_bound(102) == pytest.approx(0.1, rel=1e-15)

    def test_bound_of_one_needs_three(self):
        assert plan_rmse(1.0) == 3

    def test_half(self):
        assert plan_rmse(0.5) == 6

    def test_bound_starts_at_three(self):
        assert rmse_bound(3) == 1.0
        assert rmse_bound(6) == 0.5
        with pytest.raises(ValueError):
            rmse_bound(2)

    def test_minimality(self):
        rng = np.random.default_rng(7)
        for target in rng.uniform(0.01, 1.0, size=500):
            N = plan_rmse(float(target))
            assert (N - 2) ** -0.5 <= target
            if N > 3:
                assert (N - 3) ** -0.5 > target

    @pytest.mark.parametrize("target", [0.0, -1.0, 1.5])
    def test_rejects_out_of_range_targets(self, target):
        with pytest.raises(ValueError):
            plan_rmse(target)

    @pytest.mark.parametrize("target", [1.0, 0.5, 0.1, 0.01, 1e-4, 6.2682776584264e-06, 1e-9])
    def test_minimal_in_exact_arithmetic(self, target):
        # 1/sqrt(N-2) <= t  <=>  t**2 * (N-2) >= 1, on the exact binary value
        N = plan_rmse(target)
        t2 = Fraction(target) ** 2
        assert t2 * (N - 2) >= 1
        assert N == 3 or t2 * (N - 3) < 1

    def test_smallest_target_on_both_sides(self):
        # the smallest double whose N-2 = ceil(1/t**2) still fits in a double
        t = 1 / math.sqrt(sys.float_info.max)
        assert math.ceil(1 / Fraction(t) ** 2) <= sys.float_info.max
        assert math.ceil(1 / Fraction(math.nextafter(t, 0)) ** 2) > sys.float_info.max
        N = plan_rmse(t)
        assert Fraction(t) ** 2 * (N - 2) >= 1 > Fraction(t) ** 2 * (N - 3)
        assert rmse_bound(N) > 0.0
        for below in (math.nextafter(t, 0), 1e-300, 5e-324):
            with pytest.raises(ValueError, match="below the planner's limit of about 7.5e-155"):
                plan_rmse(below)


class TestCriteriaCompared:
    def test_mae_plans_need_fewer_successes(self):
        for target in (0.02, 0.05, 0.1, 0.2, 0.5):
            assert plan_mae(target) <= plan_rmse(target), target
