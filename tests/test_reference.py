"""The test references checked against exact values, and kept in one module.

Each function of reference.py is compared at small arguments (N <= 12,
n <= 40, short dyadic p) with an exact Fraction value reached by another
route, alpha at N = 1.7e308 with a 360-digit value and gap_exponent at
q = 1e-300 with its series, which fail if the precision rules are lowered.
The guard below fails for a test module other than reference.py that
builds its own loggamma or binomial reference.
"""

import ast
import math
import pathlib
from fractions import Fraction

import mpmath
import pytest

import reference as ref

TESTS = pathlib.Path(__file__).resolve().parent
DYADIC = [0.5, 0.375, 0.8125, 2.0**-20]
TOL = 1e-40

# alpha(17 * 10**307) from mpmath at 360 digits, which a 500-digit run
# matches to 2.3e-50
ALPHA_17E307 = "6.11949523277658687008902714815665002485432154279e-155"


def mpf(fraction):
    """A Fraction as an mpf at the current working precision."""
    return mpmath.mpf(fraction.numerator) / fraction.denominator


def dbinom(x, n, p):
    """The binomial density in Fraction arithmetic on p's binary value."""
    P = Fraction(p)
    return math.comb(n, x) * P**x * (1 - P) ** (n - x)


class TestReferenceAgainstFractions:
    @pytest.mark.parametrize("p", DYADIC)
    def test_density(self, p):
        for n in range(41):
            for x in range(n + 1):
                exact = dbinom(x, n, p)
                assert ref.dbinom_fraction(x, n, p) == exact
                with mpmath.workdps(60):
                    want = mpf(exact)
                    assert abs(ref.log_dbinom(x, n, p) - mpmath.log(want)) <= TOL
                    assert abs(ref.dbinom(x, n, p) - want) <= TOL * want

    @pytest.mark.parametrize("p", DYADIC)
    def test_normalized_mae(self, p):
        for N in range(2, 13):
            for n0 in range(N, 41):
                exact = 2 * (1 - Fraction(p)) * dbinom(N - 1, n0 - 1, p)
                with mpmath.workdps(60):
                    assert abs(ref.normalized_mae(N, p, n0) - mpf(exact)) <= TOL * mpf(exact)

    def test_alpha(self):
        # 2 * exp(-m) * m**m / m!, with m**m / m! exact
        for N in range(2, 13):
            m = N - 1
            with mpmath.workdps(60):
                want = 2 * mpf(Fraction(m**m, math.factorial(m))) * mpmath.exp(-m)
                assert abs(ref.alpha(N) - want) <= TOL * want

    def test_alpha_at_the_top_of_the_double_range(self):
        # 50 + 309 digits leave about 49 after loggamma's cancellation
        with mpmath.workdps(60):
            want = mpmath.mpf(ALPHA_17E307)
            assert abs(ref.alpha(17 * 10**307) - want) <= 1e-45 * want

    def test_stirlerr(self):
        for n in range(1, 41):
            with mpmath.workdps(60):
                want = (
                    mpmath.log(math.factorial(n)) - (n + mpmath.mpf(0.5)) * mpmath.log(n) + n
                    - mpmath.log(2 * mpmath.pi) / 2
                )
                assert abs(ref.stirlerr(n) - want) <= TOL * want

    def test_bd0(self):
        # x * ln(x/np) = 2x * atanh(v) with v = (x-np)/(x+np) exact
        for x in (0.5, 1.0, 3.0, 7.5, 40.0):
            for np in (2.0**-20, 0.375, 1.0, 7.25, 39.75):
                v = (Fraction(x) - Fraction(np)) / (Fraction(x) + Fraction(np))
                with mpmath.workdps(60):
                    want = 2 * x * mpmath.atanh(mpf(v)) - (x - np)
                    assert abs(ref.bd0(x, np) - want) <= TOL * want

    @pytest.mark.parametrize("p", DYADIC)
    def test_binom_tails(self, p):
        for n in (1, 2, 5, 12, 40):
            for N in range(1, n + 1):
                upper = sum(dbinom(k, n, p) for k in range(N, n + 1))
                got_upper, got_lower = ref.binom_tails(N, p, n)
                with mpmath.workdps(60):
                    for got, want in ((got_upper, mpf(upper)), (got_lower, mpf(1 - upper))):
                        assert abs(got - want) <= TOL * want, (N, n)

    @pytest.mark.parametrize("p", DYADIC)
    def test_binom_pmfs(self, p):
        for n in range(1, 41):
            pmfs = ref.binom_pmfs(n, p, n)
            for k, got in enumerate(pmfs):
                exact = dbinom(k, n, p)
                with mpmath.workdps(60):
                    assert abs(got - mpf(exact)) <= TOL * mpf(exact), (k, n)

    @pytest.mark.parametrize("p", [*DYADIC, 0.3, 1 - 2.0**-52])
    def test_fixed_mae(self, p):
        # the definition, summed in Fractions and rounded once
        P = Fraction(p)
        for n in range(1, 41):
            exact = sum(dbinom(k, n, p) * abs(Fraction(k, n) - P) for k in range(n + 1)) / P
            assert ref.fixed_mae(n, p) == float(exact), n

    def test_series_coefficient(self):
        for j in range(20):
            assert ref.series_coefficient(2, j) == Fraction(1, j + 2)
        assert all(ref.series_coefficient(N, 0) == Fraction(1, 2) for N in range(2, 13))
        # at the knot p = 2**-20 = (N-1)/m, ln(alpha/MAE)/p is the series sum,
        # and ln(alpha/MAE) = 1 - N + ln(R) - (m-N+2) * ln(1-p) with R exact
        p = Fraction(1, 2**20)
        for N in (3, 5, 12):
            m = (N - 1) * 2**20
            ratio = Fraction((N - 1) ** (N - 1), math.factorial(N - 1)) / (
                math.comb(m, N - 1) * p ** (N - 1)
            )
            series = sum(ref.series_coefficient(N, j) * p**j for j in range(12))
            with ref.workdps(m):
                log_ratio = 1 - N + mpmath.log(mpf(ratio)) - (m - N + 2) * mpmath.log1p(-mpf(p))
                want = log_ratio / mpf(p)
                assert abs(mpf(series) - want) <= TOL * want, N

    def test_gap_exponent(self):
        # ln(alpha/MAE) = ln(R) - x with R = x**x / (x! * C(m, x) * q**x * (1-q)**(y+1)) exact
        for N in range(2, 13):
            x = N - 1
            for m in range(N, 41):
                q = Fraction(x, m)
                ratio = Fraction(x**x, math.factorial(x)) / (
                    math.comb(m, x) * q**x * (1 - q) ** (m - x + 1)
                )
                with mpmath.workdps(60):
                    want = (mpmath.log(mpf(ratio)) - x) / mpf(q)
                    assert abs(ref.gap_exponent(N, m) - want) <= TOL * want, (N, m)

    def test_gap_exponent_at_a_tiny_knot(self):
        # at N = 2 the series is sum(q**j / (j+2)), 1/2 to 1e-300 at
        # q = 1e-300; the log ratio, 5e-301, is what is left of terms of
        # size 7e302, so 40 + 2 * 301 digits leave about 40, and the 50 + 301
        # of workdps would leave none
        with mpmath.workdps(60):
            assert abs(ref.gap_exponent(2, 10**300) - mpmath.mpf(0.5)) <= 1e-35

    def test_knot_floor(self):
        for num in range(1, 12):
            for m in range(num + 1, 41):
                p = num / m
                assert ref.knot_floor(num, p) == (m, True)
                # 100 ulps off the knot, the floor is exact
                above, below = p + 100 * math.ulp(p), p - 100 * math.ulp(p)
                assert ref.knot_floor(num, above) == (m - 1, False)
                assert ref.knot_floor(num, below) == (m, False)


BANNED = {"loggamma", "binomial"}


def private_references(source):
    """Each mpmath.loggamma or mpmath.binomial use and mp_* definition in source."""
    tree = ast.parse(source)
    names = {"mpmath"} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "mpmath" and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in BANNED
                and isinstance(node.value, ast.Name) and node.value.id in names):
            found.append(f"line {node.lineno}: mpmath.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found += [f"line {node.lineno}: from mpmath import {alias.name}"
                      for alias in node.names if alias.name in BANNED]
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("mp_"):
            found.append(f"line {node.lineno}: def {node.name}")
    return found


@pytest.mark.parametrize(
    "path", sorted(set(TESTS.glob("*.py")) - {TESTS / "reference.py"}), ids=lambda path: path.name
)
def test_references_live_in_reference_py(path):
    assert private_references(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_a_private_reference():
    source = (
        "import mpmath as mp\nfrom mpmath import binomial\n"
        "def mp_alpha(N):\n    return mp.loggamma(N)\n"
    )
    assert private_references(source) == [
        "line 2: from mpmath import binomial", "line 3: def mp_alpha", "line 4: mpmath.loggamma",
    ]
