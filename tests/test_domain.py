"""Every refusal in the README's domain table, swept at its limit.

Each case calls one entry point just past one limit.  It must raise a
ValueError whose message names the limit, in under a second, and where a
CLI command reaches the same refusal, the command must exit 1 with the
message after "error: " and no traceback.  The pmfs' and the kernel's
trial-count limits, and the exact MAE's n0 limit, are swept by the
parametrized tests next to them (TestTrialCountLimit, TestLogDbinom,
TestKernelTrialCountLimit).  Every entry point the table names must be
exported by some ibsmae module, so a row cannot outlive its function.
"""

import importlib
import math
import pathlib
import pkgutil
import re
import time

import pytest

import ibsmae
from ibsmae import distributions, fixed_sample, mae, numeric_core, planner, simulate
from ibsmae.cli import main

N_MAX = distributions._SUCCESS_TARGET_MAX
N_LIMIT = r"N must be <= 1\.798e\+308"
KERNEL_LIMIT = r"must be <= 2\.861e\+307, the density kernel's limit"
J_LIMIT = r"j_max must lie in \[0, 500\]"
SERIES_N_LIMIT = r"need N <= 10\*\*18"
MAE_TARGET = math.nextafter(planner._MAE_TARGET_MIN, 0.0)
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def case(name, limit, call, match, argv=None):
    # limit: the module constant the refusal enforces, as the README names it
    return pytest.param(limit, call, match, argv, id=name)


REFUSALS = [
    case("N-below-2", None, lambda: mae.exact_normalized_mae(1, 0.5), r"N must be >= 2",
         ["mae", "--N", "1", "--p", "0.5"]),
    case("p-outside-0-1", None, lambda: mae.exact_normalized_mae(5, 1.0),
         r"strictly inside \(0, 1\)", ["mae", "--N", "5", "--p", "1"]),
    case("alpha-N", "distributions._SUCCESS_TARGET_MAX", lambda: mae.alpha(N_MAX + 1), N_LIMIT),
    case("rmse_bound-N", "distributions._SUCCESS_TARGET_MAX",
         lambda: planner.rmse_bound(N_MAX + 1), N_LIMIT),
    case("asymptotic_ratio-N", "distributions._SUCCESS_TARGET_MAX",
         lambda: fixed_sample.asymptotic_ratio(N_MAX + 1), N_LIMIT),
    case("mae-N", "distributions._SUCCESS_TARGET_MAX",
         lambda: mae.exact_normalized_mae(N_MAX + 1, 0.5), N_LIMIT,
         ["mae", "--N", str(N_MAX + 1), "--p", "0.5"]),
    case("curve-N", "distributions._SUCCESS_TARGET_MAX",
         lambda: fixed_sample.matched_fixed_mae(N_MAX + 1, 0.5), N_LIMIT,
         ["curve", "--N", f"5,{N_MAX + 1}", "--grid", "0.25:0.5:2", "--include-fixed"]),
    case("simulate-N", "distributions._SUCCESS_TARGET_MAX",
         lambda: simulate.RunConfig(N_MAX + 1, 0.5, 10, 0), N_LIMIT,
         ["simulate", "--N", str(N_MAX + 1), "--p", "0.5", "--trials", "10"]),
    case("threshold_n0-n0", "numeric_core._KERNEL_N_MAX",
         lambda: mae.threshold_n0(2, 1.1e-308), r"n0 = .* " + KERNEL_LIMIT,
         ["mae", "--N", "2", "--p", "1.1e-308"]),
    case("series_sum-n0", "numeric_core._KERNEL_N_MAX",
         lambda: mae.series_sum(2, 1.1e-308, 3), r"n0 = .* " + KERNEL_LIMIT),
    # 2/p = 3.3e307 trials, past the limit, where n0 = 1/p is not
    case("matched_fixed_mae-n", "numeric_core._KERNEL_N_MAX",
         lambda: fixed_sample.matched_fixed_mae(2, 6e-308), KERNEL_LIMIT,
         ["curve", "--N", "2", "--grid", "6e-308:7e-308:1", "--include-fixed"]),
    case("fixed_normalized_mae-n", "numeric_core._KERNEL_N_MAX",
         lambda: fixed_sample.fixed_normalized_mae(numeric_core._KERNEL_N_MAX + 2, 0.5),
         KERNEL_LIMIT),
    case("nbin_cdf-npq", "distributions._TAIL_NPQ_MAX",
         lambda: distributions.nbin_cdf(2 * 10**10, 0.5, 4 * 10**10 + 1), r"<= 1e\+10"),
    case("coeffs-N", "mae._SERIES_N_MAX",
         lambda: mae.series_coefficients(mae._SERIES_N_MAX + 1, 3), SERIES_N_LIMIT,
         ["coeffs", "--N", str(mae._SERIES_N_MAX + 1), "--j-max", "3"]),
    case("coeffs-j_max", "mae._SERIES_J_MAX",
         lambda: mae.series_coefficients(5, mae._SERIES_J_MAX + 1), J_LIMIT,
         ["coeffs", "--N", "5", "--j-max", str(mae._SERIES_J_MAX + 1)]),
    # the refusal comes from series_coefficients, before any power sum
    case("series_sum-N", "mae._SERIES_N_MAX",
         lambda: mae.series_sum(mae._SERIES_N_MAX + 1, 0.5, 3), SERIES_N_LIMIT),
    case("series_sum-j_max", "mae._SERIES_J_MAX",
         lambda: mae.series_sum(10**7 + 1, 0.5, mae._SERIES_J_MAX + 1), J_LIMIT),
    case("plan_mae-target", "planner._MAE_TARGET_MIN",
         lambda: planner.plan_mae(MAE_TARGET), r"planner's limit of 1e-07",
         ["plan", "--target", repr(MAE_TARGET)]),
    case("plan_rmse-target", "planner._RMSE_TARGET_MIN",
         lambda: planner.plan_rmse(7e-155), r"planner's limit of about 7\.5e-155",
         ["plan", "--criterion", "rmse", "--target", "7e-155"]),
    case("simulate-p", "simulate._POISSON_LAM_MAX",
         lambda: simulate.RunConfig(65, 1.5e-17, 10, 0), r"sampler's limit of about 1\.579e-17",
         ["simulate", "--N", "65", "--p", "1.5e-17", "--trials", "10"]),
    case("simulate-trials", None, lambda: simulate.RunConfig(5, 0.2, 0, 0),
         r"trials must be >= 1", ["simulate", "--N", "5", "--p", "0.2", "--trials", "0"]),
    # 10**23 trials would run for ever; the refusal must come at once
    case("simulate-trials-max", "simulate._TRIALS_MAX",
         lambda: simulate.RunConfig(5, 0.2, simulate._TRIALS_MAX + 1, 0),
         r"trials must be <= 9\.445e\+21, the sampler's limit of 2\*\*60 blocks",
         ["simulate", "--N", "5", "--p", "0.2", "--trials", str(10**23)]),
    case("simulate-shards", None, lambda: simulate.RunConfig(5, 0.2, 10, 0, 0),
         r"shards must be >= 1",
         ["simulate", "--N", "5", "--p", "0.2", "--trials", "10", "--shards", "0"]),
    case("simulate-seed", None, lambda: simulate.RunConfig(5, 0.2, 10, 2**64),
         r"64-bit unsigned", ["simulate", "--N", "5", "--p", "0.2", "--trials", "10",
                              "--seed", str(2**64)]),
    case("brute_force-n0", "simulate._BRUTE_FORCE_N0_MAX",
         lambda: simulate.brute_force_normalized_mae(2, 1e-7, 1e-12), r"n0 <= 1000000"),
    case("brute_force-tail_epsilon", None,
         lambda: simulate.brute_force_normalized_mae(2, 0.5, 2e-6), r"\(0, 1e-6\]"),
]


@pytest.mark.parametrize("limit, call, match, argv", REFUSALS)
def test_refusal_names_its_limit_at_once(capsys, limit, call, match, argv):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call()
    assert time.perf_counter() - start < 1.0
    if argv is not None:
        start = time.perf_counter()
        code = main(argv)
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: ")
        assert re.search(match, captured.err), captured.err


def readme_domain_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Domain\n", 1)[1].split("\n## ", 1)[0]


def table_entry_points(section):
    # the backticked names in each row's first cell, less the CLI commands
    # in parentheses; [1:] drops the header, and the |---| rule never matches
    cells = re.findall(r"^\| (.+?) \|", section, flags=re.MULTILINE)[1:]
    cells = [re.sub(r"\(.*?\)", "", cell) for cell in cells]
    return {name for cell in cells for name in re.findall(r"`(\w+)`", cell)}


def test_every_entry_point_in_the_readme_table_is_exported():
    exported = set()
    for module in pkgutil.iter_modules(ibsmae.__path__):
        exported.update(importlib.import_module(f"ibsmae.{module.name}").__all__)
    named = table_entry_points(readme_domain_section())
    assert {"exact_normalized_mae", "log_dbinom", "RunConfig"} <= named
    assert named <= exported, sorted(named - exported)


def test_every_limit_in_the_readme_table_is_swept():
    section = readme_domain_section()
    named = set(re.findall(r"\b(\w+)\.(_[A-Z0-9_]+)\b", section))
    for module, constant in named:
        assert hasattr(importlib.import_module(f"ibsmae.{module}"), constant), (module, constant)
    assert {".".join(name) for name in named} == {param.values[0] for param in REFUSALS} - {None}
