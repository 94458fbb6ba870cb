"""Mean absolute error analysis for inverse binomial sampling.

Inverse binomial sampling observes a Bernoulli(p) sequence until a fixed
number N of successes has occurred and estimates p from the random trial
count n as (N-1)/(n-1).  This package computes the exact normalized mean
absolute error of that estimate, its uniform upper bound alpha(N), plans
the N needed to guarantee a target error level regardless of p, compares
against fixed-sample-size estimation, and validates everything with
brute-force and Monte-Carlo oracles.

The package namespace holds the calls the README documents, and every other
name lives in its module.  The closed forms and the planners return plain
numbers; only series_sum and mc_normalized_mae return records, SeriesSum
and McEstimate.  The Monte-Carlo names (RunConfig, mc_normalized_mae and
brute_force_normalized_mae) live in the simulate module, which the package
imports on the first use of one of them, so the closed forms and their
commands start without it.
"""

from .fixed_sample import asymptotic_ratio, fixed_normalized_mae, sequential_vs_fixed_ratio
from .mae import alpha, exact_normalized_mae, series_coefficients, series_sum, threshold_n0
from .planner import plan_mae, plan_rmse

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "alpha",
    "asymptotic_ratio",
    "brute_force_normalized_mae",
    "exact_normalized_mae",
    "fixed_normalized_mae",
    "mc_normalized_mae",
    "plan_mae",
    "plan_rmse",
    "sequential_vs_fixed_ratio",
    "series_coefficients",
    "series_sum",
    "threshold_n0",
]


def __getattr__(name):
    # not cached here: the package hands out whatever simulate holds now
    if name in ("RunConfig", "brute_force_normalized_mae", "mc_normalized_mae"):
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
