"""Tests for the benchmark's own checkers and trace arithmetic.

    python -m pytest bench/test_checks.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Call, cli_call  # noqa: E402


def test_plan_check_rejects_mae_plan_that_misses_its_bound():
    # the initial planner returns this N although alpha(N) = 1.00000008e-4
    assert not checks.plan_ok("mae", 1e-4, 63_661_968)


def test_plan_check_accepts_minimal_mae_plan_only():
    assert checks.plan_ok("mae", 0.1, 65)
    assert not checks.plan_ok("mae", 0.1, 64)  # bound not met
    assert not checks.plan_ok("mae", 0.1, 66)  # met, but not minimal


def test_plan_check_rmse_is_exact():
    assert checks.plan_ok("rmse", 0.1, 102)
    assert not checks.plan_ok("rmse", 0.1, 101)
    assert not checks.plan_ok("rmse", 0.1, 103)


def test_z_check_flags_shifted_mean():
    ref = checks.ref_exact_mae(5, 0.2)
    assert checks.z_ok(float(ref) + 3e-3, 1e-3, ref)
    assert not checks.z_ok(float(ref) + 5e-3, 1e-3, ref)
    assert not checks.z_ok(float(ref), 0.0, ref)


def test_relative_error_check_flags_perturbed_value():
    ref = checks.ref_exact_mae(65, 1e-9)
    assert checks.value_ok(float(ref), ref)[0]
    assert not checks.value_ok(float(ref) * (1 + 1e-5), ref)[0]


def test_curve_check_counts_each_perturbed_row():
    grid = [0.1, 0.2]
    call = cli_call("curve", ["curve"], 2, ns=[5], grid=grid, include_fixed=False)
    rows = [f"5,{p!r},{float(checks.ref_exact_mae(5, p))!r}" for p in grid]
    good = "N,p,normalized_mae\n" + "\n".join(rows) + "\n"
    assert checks.verify(call, (0, good)).failed == 0
    rows[1] = f"5,0.2,{float(checks.ref_exact_mae(5, 0.2)) * 1.001!r}"
    bad = "N,p,normalized_mae\n" + "\n".join(rows) + "\n"
    assert checks.verify(call, (0, bad)).failed == 1
    assert checks.verify(call, (1, "")).failed == 2


def test_library_call_that_raises_or_returns_junk_fails_its_units():
    call = Call("nbin_sf", "distributions", "nbin_sf", (2, 0.5, 3), 1,
                {"N": 2, "p": 0.5, "n": 3})
    assert checks.verify(call, float(checks.ref_nbin_sf(2, 0.5, 3))).failed == 0
    assert checks.verify(call, ValueError("boom")).failed == 1
    assert checks.verify(call, object()).failed == 1


@pytest.mark.parametrize("n,k", [(0, 3), (1, 1), (10, 1), (17, 5), (1000, 37)])
def test_faulhaber_power_sum(n, k):
    assert checks.power_sum(n, k) == sum(i**k for i in range(1, n + 1))


def test_self_times_subtract_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("c", 4.0, 6.0, 0), ("d", 4.5, 5.0, 2)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.5, 0.5]


def test_self_times_reject_overlapping_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 6.0, 0)]
    with pytest.raises(ValueError):
        tracing.self_times(spans)


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    assert declared == run.per_layer_names()
