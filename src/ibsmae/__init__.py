"""Mean absolute error analysis for inverse binomial sampling.

Inverse binomial sampling observes a Bernoulli(p) sequence until a fixed
number N of successes has occurred and estimates p from the random trial
count n as (N-1)/(n-1).  This package computes the exact normalized mean
absolute error of that estimate, its uniform upper bound alpha(N), plans
the N needed to guarantee a target error level regardless of p, compares
against fixed-sample-size estimation, and validates everything with
brute-force and Monte-Carlo oracles.
"""

from .distributions import (
    binom_pmf,
    nbin_cdf,
    nbin_pmf,
    nbin_sf,
    nbin_support_cutoff,
)
from .fixed_sample import (
    FixedMaeResult,
    asymptotic_ratio,
    fixed_normalized_mae,
    sequential_vs_fixed_ratio,
)
from .mae import (
    MaeResult,
    SeriesCoefficient,
    SeriesSum,
    alpha,
    exact_normalized_mae,
    mae_limit_check,
    series_coefficient,
    series_coefficients,
    series_sum,
    threshold_n0,
)
from .numeric_core import snap_nearest_int
from .planner import PlanResult, plan_mae, plan_rmse
from .simulate import (
    McEstimate,
    RunConfig,
    RunningMoments,
    brute_force_normalized_mae,
    mc_normalized_mae,
    run_inverse_binomial,
)

__version__ = "0.1.0"

__all__ = [
    "FixedMaeResult",
    "MaeResult",
    "McEstimate",
    "PlanResult",
    "RunConfig",
    "RunningMoments",
    "SeriesCoefficient",
    "SeriesSum",
    "alpha",
    "asymptotic_ratio",
    "binom_pmf",
    "brute_force_normalized_mae",
    "exact_normalized_mae",
    "fixed_normalized_mae",
    "mae_limit_check",
    "mc_normalized_mae",
    "nbin_cdf",
    "nbin_pmf",
    "nbin_sf",
    "nbin_support_cutoff",
    "plan_mae",
    "plan_rmse",
    "run_inverse_binomial",
    "sequential_vs_fixed_ratio",
    "series_coefficient",
    "series_coefficients",
    "series_sum",
    "snap_nearest_int",
    "threshold_n0",
]
