"""Acceptance gate: every shipped guarantee exercised at its stated tolerance.

Each test prints one PASS line on success (visible with pytest -s; pytest -v
reports the same per-criterion verdicts through the test names).
"""

import math

import pytest

from ibsmae.distributions import nbin_cdf
from ibsmae.fixed_sample import (
    asymptotic_ratio,
    fixed_normalized_mae,
    sequential_vs_fixed_ratio,
)
from ibsmae.mae import alpha, exact_normalized_mae, series_coefficients, threshold_n0
from ibsmae.numeric_core import log_dbinom
from ibsmae.planner import plan_mae
from ibsmae.simulate import RunConfig, brute_force_normalized_mae, mc_normalized_mae

import reference as ref


def binomial_density(n, p, i):
    """b(i; n, p), the binomial density, through the package's one kernel."""
    return math.exp(log_dbinom(i, n, p))


P_COARSE = [i / 20 for i in range(1, 20)]  # 0.05 .. 0.95
P_EXTENDED = sorted({0.001, 0.005, 0.01} | set(P_COARSE) | {0.99})
N_RANGE = range(2, 11)

MC_CONFIG = RunConfig(N=5, p=0.2, trials=10**6, seed=42)


@pytest.fixture(scope="module")
def mc_estimate():
    return mc_normalized_mae(MC_CONFIG)


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_01_design_point_reproduction():
    assert plan_mae(0.10) == 65
    assert alpha(64) > 0.10 > alpha(65)
    report("criterion 1 PASS: plan_mae(0.10) -> N=65, bracketed by alpha(64/65)")


def test_criterion_02_closed_form_vs_brute_force_oracle():
    worst = 0.0
    for N in N_RANGE:
        for p in P_COARSE:
            closed = exact_normalized_mae(N, p)
            brute = brute_force_normalized_mae(N, p, 1e-12)
            worst = max(worst, abs(closed - brute) / closed)
    assert worst < 1e-9
    report(f"criterion 2 PASS: closed form vs brute force, worst rel {worst:.3e}")


def test_criterion_03_fixed_size_oracle():
    worst = 0.0
    for n in range(1, 101):
        for p in P_COARSE:
            got = fixed_normalized_mae(n, p)
            want = ref.fixed_mae(n, p)
            worst = max(worst, abs(got - want) / want)
    assert worst < 1e-10
    report(f"criterion 3 PASS: fixed-size MAE vs exhaustive binomial, worst rel {worst:.3e}")


def test_criterion_04_bound_and_monotonicity():
    for N in N_RANGE:
        bound = alpha(N)
        values = [exact_normalized_mae(N, p) for p in P_EXTENDED]
        assert all(v < bound for v in values), N
        assert all(a > b for a, b in zip(values, values[1:])), N
    report("criterion 4 PASS: normalized MAE < alpha(N), strictly decreasing in p")


def test_criterion_05_poisson_limit_convergence():
    for N in N_RANGE:
        gap = alpha(N) - exact_normalized_mae(N, 1e-6)
        assert 0.0 < gap < 1e-4 * alpha(N), N
    report("criterion 5 PASS: alpha(N) - mae(N, 1e-6) inside (0, 1e-4 * alpha(N))")


def test_criterion_06_series_positivity():
    for N in range(2, 51):
        for j, x in enumerate(series_coefficients(N, 100)):
            assert x > 0.0, (N, j)
    for j, x in enumerate(series_coefficients(2, 100)):
        assert abs(x - 1 / (j + 2)) < 1e-14, j
    report("criterion 6 PASS: x_j > 0 on N in 2..50, j in 0..100; N=2 matches 1/(j+2)")


def test_criterion_07_derivation_identity():
    worst = 0.0
    for N in N_RANGE:
        for p in P_EXTENDED:
            n0 = threshold_n0(N, p)
            residual = abs(
                nbin_cdf(N - 1, p, n0 - 1)
                - nbin_cdf(N, p, n0)
                - (1 - p) * binomial_density(n0 - 1, p, N - 1)
            )
            worst = max(worst, residual)
    assert worst < 1e-11
    report(f"criterion 7 PASS: threshold distribution identity, worst abs {worst:.3e}")


def test_criterion_08_asymptotic_ratio():
    for N in N_RANGE:
        ratio = sequential_vs_fixed_ratio(N, 1e-4)
        limit = asymptotic_ratio(N)
        assert abs(ratio - limit) / limit < 0.01, N
    report("criterion 8 PASS: matched-size ratio within 1% of its small-p limit")


def test_criterion_09_monte_carlo_concordance(mc_estimate):
    exact = exact_normalized_mae(5, 0.2)
    z_mae = (mc_estimate.mean_normalized_abs_error - exact) / mc_estimate.std_error
    z_size = (mc_estimate.mean_sample_size - 25.0) / mc_estimate.std_error_sample_size
    z_bias = (mc_estimate.mean_estimate - 0.2) / mc_estimate.std_error_estimate
    assert abs(z_mae) < 4.0
    assert abs(z_size) < 4.0
    assert abs(z_bias) < 4.0
    report(
        "criterion 9 PASS: 1e6-trial Monte Carlo z-scores "
        f"(mae {z_mae:+.2f}, size {z_size:+.2f}, bias {z_bias:+.2f})"
    )


def test_criterion_10_determinism(mc_estimate):
    assert mc_normalized_mae(MC_CONFIG) == mc_estimate
    report("criterion 10 PASS: identical config reproduces bit-identical output")
