"""Choose the minimal success target N meeting a prescribed error level.

The guarantees hold irrespective of the unknown probability p: the MAE plan
uses the uniform bound alpha(N) on the normalized MAE, the RMSE plan the
bound 1/sqrt(N-2) on the normalized root mean square error (valid for
N >= 3).  Both bounds decrease strictly in N, so the minimal N is well
defined; plans guarantee the bound, not the exact error, which depends on
p and sits strictly below it in exact arithmetic (in doubles the computed
MAE can round up to one ulp above alpha(N); see the mae module).  The RMSE
plan is a closed form.  The MAE plan is one upward search from a start
that provably never passes the answer (see plan_mae).
"""

from __future__ import annotations

import math
import sys

from .distributions import _SUCCESS_TARGET_MAX, validate_success_target
from .mae import alpha

__all__ = ["plan_mae", "plan_rmse", "rmse_bound"]

_PI = "3.141592653589793238462643383279502884197"
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188))

# plan_mae refuses targets below this.  There the minimal N passes ~6e13,
# where consecutive alpha(N) differ by under ~35 ulps (under one below
# ~2e-8): doubles stop telling neighbouring N apart.
_MAE_TARGET_MIN = 1e-7

# A plan's N must stay within distributions._SUCCESS_TARGET_MAX, as every N
# must: targets below 1/sqrt(largest double), about 7.5e-155, cannot be planned.
_RMSE_TARGET_MIN = 1.0 / math.sqrt(sys.float_info.max)


def _exceeds(N: int, target: float) -> bool:
    """Whether alpha(N) > target, also when the two lie within alpha's error.

    alpha is accurate to about an ulp, so comparisons within 4 ulps are
    redone in 40 digits: exact form up to m = 1000, above it the Stirling
    series of numeric_core.stirlerr (first omitted term below 1e-35).
    """
    bound = alpha(N)
    if abs(bound - target) > 4 * math.ulp(target):
        return bound > target
    import decimal
    from decimal import Decimal

    m = N - 1
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        if m <= 1000:
            bound = 2 * Decimal(-m).exp() * Decimal(m) ** m / math.factorial(m)
        else:
            s = sum(Decimal(a) / b / Decimal(m) ** (2 * k + 1) for k, (a, b) in enumerate(_STIRLING))
            bound = 2 * (-s).exp() / (2 * Decimal(_PI) * m).sqrt()
        return bound > Decimal(target)


def plan_mae(target: float) -> int:
    """Smallest N >= 2 whose normalized-MAE bound alpha(N) is <= target.

    N starts at max(2, ceil(2/(pi*t*t) - 1/6)), t = target, and steps up
    while alpha(N) misses the target; it never steps down, because the
    start is never above the answer.  With m = N-1 and s = stirlerr(m),
    alpha(N) = sqrt(2/(pi*m)) * exp(-s), so alpha(N) <= t holds iff
    m*exp(2s) >= 2/(pi*t*t).  Since 0 < s < 1/(12m), m*exp(2s) is below
    m*exp(1/(6m)) < m + 1/6 + 0.015 for every m >= 1, so the answer's m
    exceeds 2/(pi*t*t) - 1/6 - 0.015.  Rounding 2/(pi*t*t) - 1/6 to a
    double costs under 0.03 for t >= _MAE_TARGET_MIN.  The two together
    stay under 1, so the answer's m is at least the computed ceiling less
    one, and its N at least the ceiling.  As s > 1/(12m+1) also gives
    m*exp(2s) > m + 2/13, the answer lies at most two steps up: three
    alpha evaluations.  Targets from alpha(2) = 2/e up need N = 2; targets
    below _MAE_TARGET_MIN are rejected.
    """
    target = float(target)
    if not 0.0 < target < 1.0:
        raise ValueError(f"MAE target must lie in (0, 1), got {target!r}")
    if target < _MAE_TARGET_MIN:
        raise ValueError(f"MAE target {target!r} is below the planner's limit of {_MAE_TARGET_MIN}")
    N = max(2, math.ceil(2.0 / (math.pi * target * target) - 1.0 / 6.0))
    while _exceeds(N, target):
        N += 1
    return N


def rmse_bound(N: int) -> float:
    """Uniform bound 1/sqrt(N-2) on the normalized RMSE, for N >= 3."""
    return 1.0 / math.sqrt(validate_success_target(N, minimum=3) - 2)


def plan_rmse(target: float) -> int:
    """Smallest N >= 3 with normalized-RMSE bound 1/sqrt(N-2) <= target.

    Closed form N = 2 + ceil(1/target**2), as 2 + ceil(b*b / (a*a)) in
    exact integers on the target's binary value a/b (0.1 gives 102).  A
    target of 1 is met at N = 3, where the bound first applies; larger
    targets are rejected, and so are targets below about _RMSE_TARGET_MIN,
    whose N would pass distributions._SUCCESS_TARGET_MAX.
    """
    target = float(target)
    if not 0.0 < target <= 1.0:
        raise ValueError(f"RMSE target must lie in (0, 1], got {target!r}")
    a, b = target.as_integer_ratio()
    N = 2 - (-b * b // (a * a))
    if N > _SUCCESS_TARGET_MAX:
        raise ValueError(
            f"RMSE target {target!r} is below the planner's limit of about "
            f"{_RMSE_TARGET_MIN:.2g}"
        )
    return N
