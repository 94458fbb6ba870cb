"""Independent references and output checks for the benchmark.

References use mpmath at 50 significant digits, exact ``Fraction``
arithmetic for floors and for the gap-series coefficients (through
Faulhaber's formula, not the program's power sum), and plain integer
arithmetic for the RMSE plan.  Nothing here imports ibsmae.

``verify(call, output)`` returns a Verdict: the number of failed work units
and the largest relative error seen; a failing check never raises.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

REL_TOL = 1e-6  # a value off by more than this counts as a failed unit
Z_MAX = 4.0  # Monte-Carlo estimates farther than this from the exact value fail
DPS = 50


def rel_err(value: float, ref) -> float:
    """|value - ref| / |ref| as a float; inf for non-finite values."""
    value = float(value)
    if not math.isfinite(value):
        return math.inf
    ref = mpmath.mpf(ref)
    if ref == 0:
        return abs(value)
    return float(abs((mpmath.mpf(value) - ref) / ref))


def value_ok(value: float, ref) -> tuple[bool, float]:
    err = rel_err(value, ref)
    return err <= REL_TOL, err


def z_ok(mean: float, std_error: float, ref) -> bool:
    """Is a Monte-Carlo mean within Z_MAX standard errors of the exact value?"""
    if not (math.isfinite(mean) and math.isfinite(std_error) and std_error > 0.0):
        return False
    return abs(float((mpmath.mpf(mean) - mpmath.mpf(ref)) / std_error)) <= Z_MAX


# ---------------------------------------------------------------- references

def exact_n0(N: int, p: float) -> int:
    """floor((N-1)/p) + 1 in exact arithmetic on the double p."""
    return math.floor(Fraction(N - 1) / Fraction(p)) + 1


def _log_choose(n: int, k: int):
    return mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)


def ref_exact_mae(N: int, p: float):
    """2 C(n0-1, N-1) p^(N-1) (1-p)^(n0-N+1)."""
    n0 = exact_n0(N, p)
    with mpmath.workdps(DPS):
        q = mpmath.mpf(p)
        return +(2 * mpmath.exp(_log_choose(n0 - 1, N - 1) + (N - 1) * mpmath.log(q)
                                + (n0 - N + 1) * mpmath.log1p(-q)))


def ref_fixed_mae(n: int, p: float):
    """2 C(n-1, N0-1) p^(N0-1) (1-p)^(n-N0+1) with N0 = floor(n p) + 1."""
    N0 = math.floor(n * Fraction(p)) + 1
    with mpmath.workdps(DPS):
        q = mpmath.mpf(p)
        return +(2 * mpmath.exp(_log_choose(n - 1, N0 - 1) + (N0 - 1) * mpmath.log(q)
                                + (n - N0 + 1) * mpmath.log1p(-q)))


def ref_alpha(N: int):
    """2 e^(1-N) (N-1)^(N-2) / (N-2)!."""
    with mpmath.workdps(DPS):
        return +(2 * mpmath.exp(1 - N + (N - 2) * mpmath.log(N - 1) - mpmath.loggamma(N - 1)))


def ref_nbin_sf(N: int, p: float, n: int):
    """P(N-th success after trial n) = P(Binomial(n, p) <= N-1)."""
    with mpmath.workdps(DPS):
        q = mpmath.mpf(p)
        return +mpmath.fsum(mpmath.binomial(n, i) * q**i * (1 - q) ** (n - i)
                            for i in range(N))


def ref_nbin_cdf(N: int, p: float, n: int):
    with mpmath.workdps(DPS):
        return +(1 - ref_nbin_sf(N, p, n))


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with the B_1 = +1/2 convention."""
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(1, 2)
    # the recurrence needs B_1 = -1/2; B_m for m >= 2 is the same either way
    return -sum(math.comb(m + 1, k) * (_bernoulli(k) if k != 1 else Fraction(-1, 2))
                for k in range(m)) / (m + 1)


def power_sum(n: int, k: int) -> int:
    """sum(i**k for i in 1..n) by Faulhaber's formula."""
    total = sum(math.comb(k + 1, r) * _bernoulli(r) * Fraction(n) ** (k + 1 - r)
                for r in range(k + 1)) / (k + 1)
    if total.denominator != 1:
        raise ArithmeticError(f"power sum of {n}, {k} is not an integer: {total}")
    return total.numerator


def ref_series_coefficient(N: int, j: int) -> Fraction:
    """x_j = S_{j+1}(N-2) / ((j+1)(N-1)^(j+1)) + (N-1)/(j+2) - (N-2)/(j+1)."""
    return (Fraction(power_sum(N - 2, j + 1), (j + 1) * (N - 1) ** (j + 1))
            + Fraction(N - 1, j + 2) - Fraction(N - 2, j + 1))


def ref_series_closed(N: int, p: float, m: int):
    with mpmath.workdps(DPS):
        q = mpmath.mpf(p)
        logs = mpmath.fsum(mpmath.log1p(-i * q / (N - 1)) for i in range(1, N - 1))
        return +(-logs / q - (m - N + 2) * mpmath.log1p(-q) / q - m)


def ref_series_partial(N: int, p: float, j_max: int):
    with mpmath.workdps(DPS):
        q = mpmath.mpf(p)
        return +mpmath.fsum(_mpf(ref_series_coefficient(N, j)) * q**j
                            for j in range(j_max + 1))


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def plan_ok(criterion: str, target: float, N: int) -> bool:
    """Does N meet the target bound while N-1 does not (minimality)?"""
    if criterion == "mae":
        if N < 2:
            return False
        with mpmath.workdps(DPS):
            t = mpmath.mpf(target)
            return ref_alpha(N) <= t and (N == 2 or ref_alpha(N - 1) > t)
    # rmse: 1/sqrt(N-2) <= t  <=>  t^2 (N-2) >= 1, exactly
    if N < 3:
        return False
    t2 = Fraction(target) ** 2
    return t2 * (N - 2) >= 1 and (N == 3 or t2 * (N - 3) < 1)


# ------------------------------------------------------------ output checks

class Verdict:
    """Failed units and the worst relative error seen while checking a call."""

    def __init__(self) -> None:
        self.failed = 0
        self.max_rel_err = None  # stays None if no value was compared
        self.notes: list[str] = []

    def measure(self, value: float, ref) -> bool:
        """Record the relative error of value; is it within REL_TOL?"""
        ok, err = value_ok(value, ref)
        self.max_rel_err = err if self.max_rel_err is None else max(self.max_rel_err, err)
        return ok

    def value(self, label: str, value: float, ref) -> None:
        if not self.measure(value, ref):
            self.fail(f"{label}: rel err {rel_err(value, ref):.3g}")

    def fail(self, note: str, units: int = 1) -> None:
        self.failed += units
        if len(self.notes) < 20:
            self.notes.append(note)


def _records(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


def _check_curve(call, rows, v: Verdict) -> None:
    spec = call.spec
    expected = [(N, p) for N in spec["ns"] for p in spec["grid"]]
    if len(rows) != len(expected):
        v.fail(f"curve: {len(rows)} rows, expected {len(expected)}", call.units)
        return
    for row, (N, p) in zip(rows, expected):
        label = f"curve N={N} p={p!r}"
        try:
            row_N, row_p = int(row["N"]), float(row["p"])
            value = float(row["normalized_mae"])
        except (KeyError, TypeError, ValueError):
            v.fail(f"{label}: unparsable row {row}")
            continue
        if row_N != N or not _close(row_p, p):
            v.fail(f"{label}: row is N={row_N} p={row_p!r}")
            continue
        ok = v.measure(value, ref_exact_mae(N, row_p))
        if spec["include_fixed"]:
            ok &= _check_fixed(N, row_p, row.get("fixed_normalized_mae"), v)
        if not ok:
            v.fail(f"{label}: value or fixed column off")


def _check_fixed(N: int, p: float, text, v: Verdict) -> bool:
    """The fixed column is filled at knots (N/p integral) and blank far from them."""
    ratio = Fraction(N) / Fraction(p)
    n = round(ratio)
    distance = abs(ratio - n) / ratio
    if text in (None, ""):
        return distance > Fraction(1, 10**12)
    if distance > Fraction(1, 10**6):
        return False
    try:
        value = float(text)
    except ValueError:
        return False
    return v.measure(value, ref_fixed_mae(n, p))


def _check_bounds(call, rows, v: Verdict) -> None:
    ns = call.spec["ns"]
    if [row.get("N") for row in rows] != [str(N) for N in ns]:
        v.fail(f"bounds: N column differs from the expected {len(ns)} values", call.units)
        return
    for row, N in zip(rows, ns):
        try:
            alpha = float(row["alpha_N"])
            rmse = row["rmse_bound"]
            rmse_ok = (rmse == "") if N < 3 else _close(float(rmse), 1 / math.sqrt(N - 2))
        except (KeyError, ValueError):
            v.fail(f"bounds N={N}: unparsable row {row}")
            continue
        if not (v.measure(alpha, ref_alpha(N)) and rmse_ok):
            v.fail(f"bounds N={N}: alpha or rmse bound off")


def _check_plan(call, text, v: Verdict) -> None:
    record = _key_values(text)
    spec = call.spec
    try:
        N = int(record["N"])
        echoed = float(record["target"]) == spec["target"]
    except (KeyError, ValueError):
        v.fail(f"plan {spec}: unparsable output {text!r}")
        return
    if not (echoed and record.get("criterion") == spec["criterion"]
            and plan_ok(spec["criterion"], spec["target"], N)):
        v.fail(f"plan {spec['criterion']} target={spec['target']!r}: N={N} "
               "does not meet the bound or is not minimal")


def _check_simulate(call, text, v: Verdict) -> None:
    spec = call.spec
    record = _key_values(text)
    try:
        echoed = all(int(record[k]) == spec[k] for k in ("N", "trials", "seed", "shards"))
        echoed = echoed and float(record["p"]) == spec["p"]
        mean = float(record["mean_normalized_abs_error"])
        std_error = float(record["std_error"])
        float(record["mean_sample_size"])
    except (KeyError, ValueError):
        v.fail(f"simulate {spec}: unparsable output {text!r}", call.units)
        return
    if not (echoed and z_ok(mean, std_error, ref_exact_mae(spec["N"], spec["p"]))):
        v.fail(f"simulate N={spec['N']} p={spec['p']}: |z| > {Z_MAX} or wrong echo",
               call.units)


def _check_coeffs(call, rows, v: Verdict) -> None:
    N, j_max = call.spec["N"], call.spec["j_max"]
    if [row.get("j") for row in rows] != [str(j) for j in range(j_max + 1)]:
        v.fail(f"coeffs N={N}: j column wrong", call.units)
        return
    for j, row in enumerate(rows):
        try:
            value = float(row["x_j"])
        except (KeyError, ValueError):
            v.fail(f"coeffs N={N} j={j}: unparsable row {row}")
            continue
        ref = ref_series_coefficient(N, j)
        v.value(f"coeffs N={N} j={j}", value, _mpf(ref))


def verify(call, output) -> Verdict:
    """Check one call's output against the independent references."""
    v = Verdict()
    if isinstance(output, BaseException):
        v.fail(f"{call.kind}: raised {output!r}", call.units)
        return v
    if call.module == "cli":
        code, text = output
        if code != 0:
            v.fail(f"{call.kind}: exit {code}", call.units)
            return v
        if call.kind == "curve":
            _check_curve(call, _records(text), v)
        elif call.kind == "bounds":
            _check_bounds(call, _records(text), v)
        elif call.kind == "coeffs":
            _check_coeffs(call, _records(text), v)
        elif call.kind == "plan":
            _check_plan(call, text, v)
        elif call.kind == "simulate":
            _check_simulate(call, text, v)
        else:
            raise LookupError(f"no check for cli kind {call.kind!r}")
        return v
    spec = call.spec
    try:
        if call.kind == "brute_force":
            v.value(f"brute force {spec}", output, ref_exact_mae(spec["N"], spec["p"]))
        elif call.kind == "series_sum":
            N, p = spec["N"], spec["p"]
            ok = v.measure(output.closed_form, ref_series_closed(N, p, spec["m"]))
            ok &= v.measure(output.partial_sum, ref_series_partial(N, p, spec["j_max"]))
            if not ok:
                v.fail(f"series_sum {spec}: closed form or partial sum off")
        elif call.kind in ("nbin_cdf", "nbin_sf"):
            ref = ref_nbin_cdf if call.kind == "nbin_cdf" else ref_nbin_sf
            v.value(f"{call.kind} {spec}", output, ref(spec["N"], spec["p"], spec["n"]))
        else:
            raise LookupError(f"no check for kind {call.kind!r}")
    except (AttributeError, TypeError, ValueError) as exc:
        v.fail(f"{call.kind} {spec}: unusable output {output!r}: {exc}", call.units)
    return v
