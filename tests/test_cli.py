import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibsmae import cli, fixed_sample, mae, numeric_core, planner, simulate
from ibsmae.cli import build_parser, main, parse_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(output):
    return {key: value for key, value in (line.split("=", 1) for line in output.splitlines())}


def parse_csv(output):
    return list(csv.DictReader(io.StringIO(output)))


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# The largest double below 1, the highest stop a curve grid can take.
_BELOW_ONE = math.nextafter(1.0, 0.0)


@st.composite
def _grid_parts(draw):
    """start, stop, points and log of a valid grid, some spanning a few ulps."""
    stop = draw(st.one_of(
        st.just(_BELOW_ONE),
        st.floats(1e-300, _BELOW_ONE),
        st.floats(1.0, 1e12),
    ))
    if draw(st.booleans()):
        start = stop
        for _ in range(draw(st.integers(1, 8))):
            start = math.nextafter(start, -math.inf)
    else:
        start = draw(st.floats(-1e6, stop, exclude_max=True))
    log = draw(st.booleans()) and start > 0.0 and stop / start < 1e300
    return start, stop, draw(st.integers(1, 2000)), log


class TestGridSpec:
    """parse_grid, the --grid text start:stop:points[:log]."""

    def test_parse_linear(self):
        assert list(parse_grid("0.1:0.9:5")) == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])

    def test_parse_log(self):
        assert list(parse_grid("0.001:0.1:3:log")) == pytest.approx([0.001, 0.01, 0.1])

    def test_single_point(self):
        assert list(parse_grid("0.2:0.4:1")) == [0.2]
        assert list(parse_grid("0.2:0.4:1:log")) == [0.2]
        assert list(parse_grid("1e-300:0.5:1:log")) == [1e-300]
        # with two points this span overflows (see below); one point is start
        start = 1e-200
        assert list(parse_grid(f"{start!r}:{start * sys.float_info.max!r}:1:log")) == [start]
        # a start of -0.0 gives 0.0, on a one-point grid as on longer ones
        assert math.copysign(1.0, list(parse_grid("-0.0:0.5:1"))[0]) == 1.0
        assert math.copysign(1.0, list(parse_grid("-0.0:0.5:3"))[0]) == 1.0

    @pytest.mark.parametrize(
        "text",
        ["0.5", "1:2", "0.9:0.1:5", "0.1:0.9:0", "0:1:5:log", "0:1:1:log", "0.1:0.9:5:exp",
         "1e-320:0.5:3:log"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid(text)

    @pytest.mark.parametrize("text", ["2:inf:3", "-inf:1:3", "nan:0.5:3", "-1e308:1e308:3"])
    def test_rejects_non_finite_ends_and_span(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="must be finite"):
            parse_grid(text)

    @pytest.mark.parametrize("points", [10**7 + 1, 10**10, 10**100])
    def test_rejects_more_points_than_the_limit(self, points):
        # refused from the count alone, before any list is built
        assert cli._GRID_POINTS_MAX == 10**7
        message = f"grid takes at most 10000000 points, got {points}$"
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            parse_grid(f"0.1:0.5:{points}")

    def test_log_grid_at_the_edge_of_the_double_range(self):
        # stop / start is a double here, but exp(log(stop) - log(start))
        # rounds past the largest one
        start = 1e-200
        stop = start * sys.float_info.max
        assert math.isfinite(stop / start)
        with pytest.raises(OverflowError):
            math.exp(math.log(stop) - math.log(start))
        with pytest.raises(argparse.ArgumentTypeError, match="spans more than the double range"):
            parse_grid(f"{start!r}:{stop!r}:2:log")

    @settings(max_examples=300, deadline=None)
    @given(parts=_grid_parts())
    # the last point of each formula rounds past stop: to 1.0, to
    # 1.0000000000000002, and on a log grid three ulps wide, inner points too
    @example(parts=(0.2814415509179122, _BELOW_ONE, 35, False))
    @example(parts=(0.03283802209812205, _BELOW_ONE, 1943, True))
    @example(parts=(0.3, 0.30000000000000016, 10, True))
    def test_values_never_fall_nor_pass_stop(self, parts):
        start, stop, points, log = parts
        text = f"{start!r}:{stop!r}:{points}" + (":log" if log else "")
        grid = parse_grid(text)
        values = list(grid)
        assert len(values) == points
        # start + 0 * step, or start * exp(0 * step): start, and 0.0 for -0.0
        assert values[0] == start + 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= stop
        assert grid.ends == (values[0], values[-1])
        assert values == list(grid) == _reference_grid(text)


class TestUsageMessages:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["curve", "--N", "5", "--grid", "0.1:0.5:x"],
             "argument --grid: grid start and stop must be numbers and points an integer"),
            (["curve", "--N", "a,b", "--grid", "0.1:0.5:3"],
             "argument --N: expected a comma-separated integer list, got 'a,b'"),
            (["curve", "--N", "5,", "--grid", "0.1:0.5:3"],
             "argument --N: expected a comma-separated integer list, got '5,'"),
            (["curve", "--N", "2,,5", "--grid", "0.1:0.5:3"],
             "argument --N: expected a comma-separated integer list, got '2,,5'"),
            (["curve", "--N", ",", "--grid", "0.1:0.5:3"],
             "argument --N: expected a comma-separated integer list, got ','"),
            (["bounds", "--grid", "2:inf:3"],
             "argument --grid: grid start, stop and stop - start must be finite"),
            (["curve", "--N", "2", "--grid", "1e-320:0.5:3:log"],
             "argument --grid: log grid '1e-320:0.5:3:log' spans more than the double range"),
            (["curve", "--N", "5", "--grid", "0.1:0.5:10000000000"],
             "argument --grid: grid takes at most 10000000 points, got 10000000000"),
        ],
        ids=["grid-points", "N-list", "N-trailing-comma", "N-empty-item", "N-no-items",
             "grid-infinite-stop", "grid-log-span", "grid-too-many"],
    )
    def test_parser_prints_the_reason(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "invalid" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--grid", "-1.0:0.5:3", "success probability must lie strictly inside (0, 1), got -1.0"),
            ("--N", "-1,2", "success target N must be >= 2, got -1"),
        ],
    )
    def test_a_value_starting_with_a_dash_needs_the_equals_form(self, capsys, flag, value, message):
        # argparse reads a spaced value that starts with "-" and is not a plain
        # negative number as the next flag; --flag=VALUE reaches the domain check
        argv = {"--grid": ["--N", "2"], "--N": ["--grid", "0.1:0.5:3"]}[flag]
        with pytest.raises(SystemExit) as excinfo:
            main(["curve", *argv, flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        assert run_cli(capsys, "curve", *argv, f"{flag}={value}") == (1, "", f"error: {message}\n")


class TestMaeCommand:
    def test_text_record_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "mae", "--N", "2", "--p", "0.5")
        assert code == 0
        record = parse_records(out)
        assert float(record["normalized_mae"]) == 0.5
        assert record["n0"] == "3"
        assert float(record["alpha"]) == mae.alpha(2)
        assert float(record["slack"]) == mae.alpha(2) - 0.5

    def test_three_successes(self, capsys):
        _, out, _ = run_cli(capsys, "mae", "--N", "3", "--p", "0.5")
        reported = float(parse_records(out)["normalized_mae"])
        assert reported == mae.exact_normalized_mae(3, 0.5)
        assert reported == pytest.approx(0.375, rel=1e-13)

    def test_domain_error_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "mae", "--N", "2", "--p", "1.0")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mae", "--N", "2"])
        assert excinfo.value.code == 2

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "mae", "--N", "2", "--p", "0.5", "--format", "json")
        (record,) = json.loads(out)
        assert record["normalized_mae"] == 0.5
        assert record["n0"] == 3


class TestCurveCommand:
    def test_monotone_and_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--N", "2", "--grid", "0.01:0.99:50")
        assert code == 0
        rows = parse_csv(out)
        values = [float(row["normalized_mae"]) for row in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v < mae.alpha(2) for v in values)

    def test_fixed_column_only_on_integral_matched_sizes(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve", "--N", "2", "--grid", "0.25:0.75:3", "--include-fixed"
        )
        rows = parse_csv(out)
        assert [row["p"] for row in rows] == ["0.25", "0.5", "0.75"]
        # N/p = 8, 4, 8/3: the last has no matched fixed design
        assert float(rows[0]["fixed_normalized_mae"]) == fixed_sample.fixed_normalized_mae(8, 0.25)
        assert float(rows[1]["fixed_normalized_mae"]) == fixed_sample.fixed_normalized_mae(4, 0.5)
        assert rows[2]["fixed_normalized_mae"] == ""

    def test_multiple_targets(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "--N", "2,5", "--grid", "0.1:0.9:9")
        rows = parse_csv(out)
        assert {row["N"] for row in rows} == {"2", "5"}
        assert len(rows) == 18

    def test_grid_outside_unit_interval_rejected(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--N", "2", "--grid", "0.5:1.5:5")
        assert code == 1
        assert "error" in err

    def test_csv_round_trips_losslessly(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "--N", "7", "--grid", "0.13:0.77:7")
        for row in parse_csv(out):
            p = float(row["p"])
            want = mae.exact_normalized_mae(7, p)
            assert float(row["normalized_mae"]) == want

    def test_csv_shape(self, capsys):
        _, out, _ = run_cli(capsys, "curve", "--N", "2", "--grid", "0.2:0.8:4")
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "N,p,normalized_mae"
        assert len(lines) == 5


class TestBoundsCommand:
    def test_columns_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--grid", "2:102:101")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["N"] == "2"
        assert rows[0]["rmse_bound"] == ""
        assert float(rows[1]["rmse_bound"]) == 1.0
        assert float(rows[-1]["rmse_bound"]) == pytest.approx(0.1, rel=1e-15)
        n65 = next(row for row in rows if row["N"] == "65")
        assert float(n65["alpha_N"]) == pytest.approx(0.0996057916423839, rel=1e-12)
        for row in rows[1:]:
            assert float(row["alpha_N"]) < float(row["rmse_bound"])

    def test_alpha_stays_positive_up_to_the_double_limit(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--grid=2:1e308:3")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        assert all(float(row["alpha_N"]) > 0.0 for row in rows)
        assert float(rows[-1]["alpha_N"]) == mae.alpha(int(rows[-1]["N"]))

    def test_rejects_grid_below_two(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--grid", "1:10:10")
        assert code == 1
        assert "error" in err


class TestPlanCommand:
    def test_mae_plan(self, capsys):
        _, out, _ = run_cli(capsys, "plan", "--target", "0.1", "--criterion", "mae")
        record = parse_records(out)
        assert record["N"] == "65"
        assert float(record["achieved_bound"]) == mae.alpha(planner.plan_mae(0.1))

    def test_rmse_plan(self, capsys):
        _, out, _ = run_cli(capsys, "plan", "--target", "0.1", "--criterion", "rmse")
        record = parse_records(out)
        assert record["N"] == "102"
        assert float(record["achieved_bound"]) == planner.rmse_bound(planner.plan_rmse(0.1))

    def test_zero_target_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--target", "0", "--criterion", "mae")
        assert code == 1
        assert "error" in err

    def test_target_below_the_floor_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--target", "1e-9")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "1e-07" in err

    def test_rmse_target_beyond_the_double_range_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--target", "1e-300", "--criterion", "rmse")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "7.5e-155" in err

    def test_bad_criterion_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--target", "0.1", "--criterion", "mse"])
        assert excinfo.value.code == 2


class TestSimulateCommand:
    def test_reports_small_z_score(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--N", "2", "--p", "0.5",
            "--trials", "20000", "--seed", "3",
        )
        record = parse_records(out)
        assert abs(float(record["z_score"])) < 4
        assert float(record["exact_normalized_mae"]) == 0.5

    def test_zero_standard_error_gives_strict_json(self, capsys):
        # one run has no spread: z_score is null in JSON, empty in text
        argv = ["simulate", "--N", "2", "--p", "0.5", "--trials", "1"]

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert json.loads(out, parse_constant=refuse)[0]["z_score"] is None
        _, out, _ = run_cli(capsys, *argv)
        assert parse_records(out)["z_score"] == ""

    def test_repeatable_output(self, capsys):
        argv = ["simulate", "--N", "3", "--p", "0.4", "--trials", "5000",
                "--seed", "11", "--shards", "2"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_matches_library_call(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--N", "4", "--p", "0.3", "--trials", "3000", "--seed", "5"
        )
        record = parse_records(out)
        estimate = simulate.mc_normalized_mae(
            simulate.RunConfig(N=4, p=0.3, trials=3000, seed=5)
        )
        assert float(record["mean_normalized_abs_error"]) == estimate.mean_normalized_abs_error
        assert float(record["mean_sample_size"]) == estimate.mean_sample_size

    def test_zero_trials_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--N", "2", "--p", "0.5", "--trials", "0"
        )
        assert code == 1
        assert "error" in err

    def test_p_below_sampler_limit_exits_one(self):
        result = subprocess.run(
            [sys.executable, "-m", "ibsmae.cli", "simulate", "--N", "65", "--p", "1e-18",
             "--trials", "1000"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "limit" in result.stderr
        assert "Traceback" not in result.stderr


class TestOverflowIsADomainError:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mae", "--N", "65", "--p", "5e-324"],
            ["mae", "--N", str(10**400), "--p", "0.5"],
            ["simulate", "--N", str(10**400), "--p", "0.5", "--trials", "10"],
            ["curve", "--N", str(10**400), "--grid", "0.1:0.5:3"],
            ["coeffs", "--N", str(10**400), "--j-max", "3"],
            ["mae", "--N", str(10**300), "--p", "1e-10"],
        ],
        ids=["mae-tiny-p", "mae-huge-N", "simulate-huge-N", "curve-huge-N", "coeffs-huge-N",
             "mae-ratio-beyond-doubles"],
    )
    def test_exits_one_without_traceback(self, argv):
        result = subprocess.run(
            [sys.executable, "-m", "ibsmae.cli", *argv], capture_output=True, text=True
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_message_names_N_and_p(self, capsys):
        # (N-1)/p beyond the double range; N = 10**400 is refused before this
        code, out, err = run_cli(capsys, "mae", "--N", str(10**300), "--p", "1e-10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: n0 = floor((N-1)/p) + 1 must be <= 2.861e+307")
        assert f"N={10**300}, p=1e-10" in err


    def test_n0_beyond_the_kernel_limit_exits_one(self):
        # past the limit this command runs for ever
        result = subprocess.run(
            [sys.executable, "-m", "ibsmae.cli", "mae", "--N", "2", "--p", "1.1e-308"],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: n0 = floor((N-1)/p) + 1 must be <= 2.861e+307")

    def test_documented_corner_stays_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--N", "2,65", "--grid", "1e-300:1e-296:4:log", "--include-fixed"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        for row in rows:
            N, p = int(row["N"]), float(row["p"])
            assert float(row["normalized_mae"]) == mae.exact_normalized_mae(N, p)
            assert float(row["fixed_normalized_mae"]) == fixed_sample.matched_fixed_mae(N, p)


class TestCoeffsCommand:
    def test_reciprocal_rule_for_two_successes(self, capsys):
        _, out, _ = run_cli(capsys, "coeffs", "--N", "2", "--j-max", "10")
        rows = parse_csv(out)
        assert len(rows) == 11
        for row in rows:
            j = int(row["j"])
            assert float(row["x_j"]) == 1 / (j + 2)

    def test_all_positive(self, capsys):
        _, out, _ = run_cli(capsys, "coeffs", "--N", "17", "--j-max", "60")
        assert all(float(row["x_j"]) > 0 for row in parse_csv(out))

    def test_three_successes_leading_row(self, capsys):
        _, out, _ = run_cli(capsys, "coeffs", "--N", "3", "--j-max", "0")
        assert parse_csv(out) == [{"j": "0", "x_j": "0.5"}]

    def test_negative_j_max_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--N", "5", "--j-max", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "j_max" in err

    def test_huge_j_max_exits_one_at_once(self, capsys):
        argv = ["coeffs", "--N", "5", "--j-max", "100000"]
        # in a child first, so that a refusal that never comes times out
        result = subprocess.run(
            [sys.executable, "-m", "ibsmae.cli", *argv], capture_output=True, text=True,
            timeout=10,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and "[0, 500]" in result.stderr
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")

    def test_huge_N_exits_one_at_once(self, capsys):
        # 4299 digits, the most int() parses; the series would take seconds
        argv = ["coeffs", "--N", "9" * 4299, "--j-max", "100"]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "ibsmae.cli", *argv], capture_output=True, text=True,
            timeout=10,
        )
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "N must be <= 1.798e+308" in result.stderr


_RECORD_KEYS = {
    "mae": (["mae", "--N", "5", "--p", "0.2"],
            ["N", "p", "normalized_mae", "n0", "alpha", "slack"]),
    "plan": (["plan", "--target", "0.1"], ["criterion", "target", "N", "achieved_bound"]),
    "simulate": (
        ["simulate", "--N", "3", "--p", "0.5", "--trials", "100", "--seed", "2"],
        ["N", "p", "trials", "seed", "shards", "mean_normalized_abs_error", "std_error",
         "mean_sample_size", "mean_estimate", "std_error_estimate",
         "std_error_sample_size", "exact_normalized_mae", "z_score"],
    ),
}
_EVERY_COMMAND = [
    *(argv for argv, _ in _RECORD_KEYS.values()),
    ["curve", "--N", "2,5", "--grid", "0.2:0.6:3"],
    ["curve", "--N", "4", "--grid", "0.25:0.5:2", "--include-fixed"],
    ["bounds", "--grid", "2:10:5"],
    ["coeffs", "--N", "5", "--j-max", "3"],
]


def readme_commands():
    # each command of the README's CLI block, less the leading "ibsmae"
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv]


_README_COMMANDS = readme_commands()


class TestRecordKeys:
    @pytest.mark.parametrize("command", sorted(_RECORD_KEYS))
    def test_key_order_in_text_and_json(self, capsys, command):
        argv, keys = _RECORD_KEYS[command]
        _, text_out, _ = run_cli(capsys, *argv)
        assert [line.split("=", 1)[0] for line in text_out.splitlines()] == keys
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        (record,) = json.loads(json_out)
        assert list(record) == keys

    @pytest.mark.parametrize(
        "argv", [*_EVERY_COMMAND, *_README_COMMANDS],
        ids=["mae", "plan", "simulate", "curve", "curve-include-fixed", "bounds", "coeffs",
             *(f"readme{i}-{argv[0]}" for i, argv in enumerate(_README_COMMANDS))],
    )
    def test_json_keys_equal_csv_header(self, argv):
        # the JSON records, in the bytes json.dump writes, and the CSV and
        # default-format outputs of the same records in the documented format
        outputs = [_run_captured(lambda: main([*argv, *flags]))
                   for flags in (["--format", "json"], ["--format", "csv"], [])]
        records = json.loads(outputs[0][1])
        formats = ["json", "csv", build_parser().parse_args(argv).format]
        assert outputs == [(0, _reference_output(records, fmt), "") for fmt in formats]
        if argv[0] == "simulate":
            assert abs(records[0]["z_score"]) <= 4.0


class TestOutputPlumbing:
    def test_output_file_written_utf8_lf(self, tmp_path, capsys):
        target = tmp_path / "bounds.csv"
        code, out, _ = run_cli(
            capsys, "bounds", "--grid", "2:10:9", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "N,alpha_N,rmse_bound"

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unopenable_output_exits_one(self, tmp_path, capsys, where):
        target = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, "mae", "--N", "5", "--p", "0.2", "--output", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_json_mirrors_csv_fields(self, capsys):
        _, csv_out, _ = run_cli(capsys, "bounds", "--grid", "3:5:3")
        _, json_out, _ = run_cli(capsys, "bounds", "--grid", "3:5:3", "--format", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert [row["N"] for row in json_rows] == [int(r["N"]) for r in csv_rows]
        assert list(json_rows[0]) == list(csv_rows[0])
        assert json_rows[0]["alpha_N"] == float(csv_rows[0]["alpha_N"])

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "mae", "--N", "7", "--p", "0.3")
        value = parse_records(out)["normalized_mae"]
        assert float(value) == mae.exact_normalized_mae(7, 0.3)
        digits = value.replace("0.", "").lstrip("0")
        assert len(digits) >= 16  # shortened only by trailing-zero stripping

    @pytest.mark.parametrize("argv", [
        ["mae", "--N", "5", "--p", "0.2"],
        # None cells where N/p is not an integer
        ["curve", "--N", "2,5", "--grid", "0.1:0.5:5", "--include-fixed"],
        # a None cell at N = 2, int cells in the N column
        ["bounds", "--grid", "2:6:5"],
        # a str cell
        ["plan", "--target", "0.1", "--criterion", "rmse"],
        ["simulate", "--N", "3", "--p", "0.5", "--trials", "100"],
        ["coeffs", "--N", "5", "--j-max", "3"],
    ])
    def test_csv_bytes_match_csv_writer(self, tmp_path, argv):
        target = tmp_path / "out.csv"
        argv = [*argv, "--format", "csv", "--output", str(target)]
        args = build_parser().parse_args(argv)
        fieldnames, rows = args.func(args)
        reference = _reference_output([dict(zip(fieldnames, row)) for row in rows], "csv")
        assert main(argv) == 0
        assert target.read_bytes() == reference.encode("utf-8")

    @pytest.mark.parametrize("argv", [
        ["mae", "--N", "5", "--p", "0.2"],
        ["curve", "--N", "2,5", "--grid", "0.1:0.5:5", "--include-fixed"],
        ["bounds", "--grid", "2:6:5", "--format", "json"],
    ])
    def test_output_file_matches_stdout_and_stdout_stays_open(self, tmp_path, argv):
        # text, csv and json: the same bytes either way, and writing to
        # stdout leaves it open for the next command
        target = tmp_path / "out"
        assert main([*argv, "--output", str(target)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
            assert main(argv) == 0
        assert not stdout.closed
        assert stdout.getvalue().encode("utf-8") == 2 * target.read_bytes()

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "ibsmae.cli", "plan", "--target", "0.1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "N=65" in result.stdout

    @pytest.mark.parametrize("argv", [
        ["plan", "--target", "0.1"],
        ["curve", "--N", "65", "--grid", "1e-6:0.5:100000:log"],
    ], ids=["plan", "curve-1e5-points"])
    def test_closed_stdout_pipe_exits_one_with_one_error_line(self, argv):
        # block-buffered stdout: plan's one record reaches the pipe only at
        # the flush, the curve's rows while they are written
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "ibsmae.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    def test_back_to_back_commands_match_fresh_processes(self, capsys):
        commands = [
            ["bounds", "--grid", "2:6:5", "--format", "json"],
            ["mae", "--N", "5", "--p", "0.2"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in commands]
        for argv, outcome in zip(commands, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "ibsmae.cli", *argv], capture_output=True, text=True
            )
            assert outcome == (fresh.returncode, fresh.stdout, fresh.stderr)


# The list-based pipeline that the CLI ran before rows were streamed: the
# grid as a list, every record built before the first byte, and json.dump.
# The streamed output must match it byte for byte.
def _reference_grid(text):
    # each point is its formula's value, or stop where that rounds past stop
    start, stop, points, *log = text.split(":")
    start, stop, points = float(start), float(stop), int(points)
    if not log:
        step = (stop - start) / max(points - 1, 1)
        return [min(start + i * step, stop) for i in range(points)]
    step = (math.log(stop) - math.log(start)) / max(points - 1, 1)
    return [min(start * math.exp(i * step), stop) for i in range(points)]


def _reference_records(command, Ns, grid, include_fixed):
    if command == "bounds":
        return [
            {"N": N, "alpha_N": mae.alpha(N),
             "rmse_bound": planner.rmse_bound(N) if N >= 3 else None}
            for N in dict.fromkeys(round(value) for value in grid)
        ]
    records = []
    for N in Ns:
        for p in grid:
            record = {"N": N, "p": p, "normalized_mae": mae.exact_normalized_mae(N, p)}
            if include_fixed:
                record["fixed_normalized_mae"] = fixed_sample.matched_fixed_mae(N, p)
            records.append(record)
    return records


def _reference_output(records, fmt):
    def cell(value):
        if value is None:
            return ""
        return format(value, ".17g") if isinstance(value, float) else str(value)

    out = io.StringIO(newline="")
    if fmt == "json":
        json.dump(records, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows([cell(value) for value in record.values()] for record in records)
    else:
        for record in records:
            out.writelines(f"{name}={cell(value)}\n" for name, value in record.items())
    return out.getvalue()


def _grid_argv(command, Ns, grid, include_fixed):
    # --flag=VALUE, as argparse takes a value such as "-1,2" for a flag
    if command == "bounds":
        return ["bounds", f"--grid={grid}"]
    return ["curve", f"--N={','.join(map(str, Ns))}", f"--grid={grid}",
            *(["--include-fixed"] if include_fixed else [])]


def _run_captured(call):
    # the exit code, whether returned or raised by argparse, stdout and stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def _grid_text(draw, low, high):
    """A valid grid with low <= start < stop <= high, linear or log."""
    start, stop = sorted(draw(st.floats(low, high)) for _ in range(2))
    if not start < stop:
        # equal draws: stretch the grid up to high, or from low when both are high
        start, stop = (low, high) if start == high else (start, high)
    points = draw(st.integers(1, 30))
    log = draw(st.booleans()) and start > 0.0 and stop / start < 1e300
    return f"{start!r}:{stop!r}:{points}" + (":log" if log else "")


@st.composite
def _streamed_commands(draw):
    """curve (any --N list, with or without the fixed column) or bounds."""
    command = draw(st.sampled_from(["curve", "curve", "bounds"]))
    Ns = draw(st.lists(
        st.one_of(st.integers(2, 10**6), st.sampled_from([2, 3, 65, 10**18])),
        min_size=1, max_size=4,
    ))
    if command == "bounds":
        grid = draw(st.one_of(_grid_text(2.0, 1e12), st.sampled_from(["2:200:199", "2:10:5"])))
    else:
        grid = draw(st.one_of(
            _grid_text(1e-250, _BELOW_ONE),
            st.sampled_from(["0.01:0.99:99", "0.25:0.75:3", "1e-280:1e-276:4:log"]),
        ))
    return command, Ns, grid, draw(st.booleans())


@st.composite
def _refused_commands(draw):
    """A curve or bounds call that some grid point, or some N, refuses.

    A refused N goes anywhere in the --N list.  The grids touch p <= 0,
    p >= 1, an n0 beyond the density kernel's limit at every N, or (with
    --include-fixed) a matched size N/p beyond it where n0 is still inside.
    """
    kernel = numeric_core._KERNEL_N_MAX
    if not draw(st.integers(0, 5)):
        # round(start) < 2
        start, stop = draw(st.floats(-5.0, 1.49)), draw(st.floats(2.0, 1e6))
        return "bounds", [], f"{start!r}:{stop!r}:{draw(st.integers(1, 30))}", False
    Ns = draw(st.lists(st.integers(2, 1000), min_size=1, max_size=4))
    refused_N = draw(st.booleans())
    if refused_N:
        Ns.insert(draw(st.integers(0, len(Ns))), draw(st.sampled_from([-1, 0, 1, 10**400])))
    kinds = ["p<=0", "p>=1", "n0", "fixed"] + (["inside"] if refused_N else [])
    kind = draw(st.sampled_from(kinds))
    include_fixed = kind == "fixed" or draw(st.booleans())
    stop = draw(st.floats(1e-3, 0.5))
    points = draw(st.integers(1, 30))
    if kind == "inside":
        grid = draw(_grid_text(1e-6, 0.99))
    elif kind == "p<=0":
        grid = f"{draw(st.floats(-1.0, 0.0))!r}:{stop!r}:{points}"
    elif kind == "p>=1":
        # the last point is about stop
        stop = draw(st.floats(1.01, 2.0))
        grid = f"{draw(st.floats(1e-3, 0.99))!r}:{stop!r}:{max(points, 2)}"
    elif kind == "n0":
        # 1/p above twice the limit: n0 is beyond it for every N >= 2
        grid = f"{draw(st.floats(5e-324, 0.5 / kernel))!r}:{stop!r}:{points}"
    else:
        # (N-1)/p inside the limit and N/p beyond it, for one N of the list
        N = draw(st.sampled_from([N for N in Ns if 2 <= N <= 1000]))
        grid = f"{(N - 0.5) / kernel!r}:{stop!r}:{points}"
    return "curve", Ns, grid, include_fixed


class TestStreaming:
    """Rows are written as they are computed, with the list pipeline's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(case=_streamed_commands(), fmt=st.sampled_from(["csv", "json", "text"]))
    # the last point computes to 1.0, and to 1.0000000000000002: each is
    # written as the stop, 0.9999999999999999, where curve once refused it
    @example(case=("curve", [5], "0.2814415509179122:0.9999999999999999:35", False), fmt="csv")
    @example(case=("curve", [5], "0.03283802209812205:0.9999999999999999:1943:log", True),
             fmt="json")
    def test_streamed_output_matches_the_list_writer(self, case, fmt):
        command, Ns, grid, include_fixed = case
        argv = _grid_argv(command, Ns, grid, include_fixed)
        reference = _reference_output(
            _reference_records(command, Ns, _reference_grid(grid), include_fixed), fmt
        )
        if fmt == "text":
            # only the record commands default to text; _emit writes it for any
            args = build_parser().parse_args(argv)
            args.format = "text"
            outcome = _run_captured(lambda: cli._emit(args.func(args), args))
            assert outcome == (None, reference, "")
        else:
            assert _run_captured(lambda: main([*argv, "--format", fmt])) == (0, reference, "")

    @settings(max_examples=150, deadline=None)
    @given(case=_refused_commands(), fmt=st.sampled_from(["csv", "json"]),
           to_file=st.booleans())
    @example(case=("curve", [5], "0.5:1.5:3", False), fmt="csv", to_file=True)
    def test_a_refusal_anywhere_on_the_grid_writes_nothing(self, case, fmt, to_file):
        command, Ns, grid, include_fixed = case
        with pytest.raises(ValueError):  # the case is refused somewhere
            _reference_records(command, Ns, _reference_grid(grid), include_fixed)
        argv = [*_grid_argv(command, Ns, grid, include_fixed), "--format", fmt]
        with tempfile.TemporaryDirectory() as folder:
            target = os.path.join(folder, "out")
            if to_file:
                argv += ["--output", target]
            code, out, err = _run_captured(lambda: main(argv))
            assert (code, out) == (1, ""), (argv, err)
            assert err.startswith("error: ") and "Traceback" not in err
            assert not os.path.exists(target)

    def test_memory_stays_flat(self, tmp_path):
        # held whole, the records and the grid list of 1e5 rows raised the
        # peak by about 23 MB over 1e3 rows; streamed, the peaks are equal
        target = str(tmp_path / "curve.csv")

        def peak(points):
            argv = ["curve", "--N", "65", "--grid", f"1e-9:0.99:{points}:log",
                    "--output", target]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)
        assert abs(peak(10**5) - peak(10**3)) < 2**20


@st.composite
def _fixed_column_grids(draw):
    """curve --include-fixed on a grid of p near j/d, or bounds from N = 2 or above.

    N/p is an integer only where j divides N*d, so the None cells of the
    fixed column fall first, between floats, last, everywhere or nowhere.
    """
    if not draw(st.integers(0, 3)):
        start = draw(st.sampled_from([2.0, 2.4, 3.0, 7.5]))
        stop, points = start + draw(st.integers(1, 60)), draw(st.integers(1, 30))
        return "bounds", [], f"{start!r}:{stop!r}:{points}", False
    d = draw(st.integers(3, 40))
    j0 = draw(st.integers(1, d - 2))
    j1 = draw(st.integers(j0 + 1, d - 1))
    Ns = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    return "curve", Ns, f"{j0 / d!r}:{j1 / d!r}:{j1 - j0 + 1}", draw(st.booleans())


class TestCsvTemplate:
    """CSV rows go through one % template, built from the first row with no None."""

    @settings(max_examples=100, deadline=None)
    @given(case=_fixed_column_grids())
    # None cells first (p = 0.3 at N = 2), between floats (p = 0.375 at N = 4)
    # and nowhere, and bounds from N = 2, whose first rmse_bound is None, or above
    @example(case=("curve", [2], "0.3:0.5:3", True))
    @example(case=("curve", [4, 2], "0.25:0.5:3", True))
    @example(case=("curve", [4], "0.25:0.5:2", True))
    @example(case=("curve", [2, 65], "1e-10:0.99:40:log", False))
    @example(case=("bounds", [], "2:10:5", False))
    @example(case=("bounds", [], "3:1000:20:log", False))
    def test_grids_match_csv_writer(self, case):
        command, Ns, grid, include_fixed = case
        reference = _reference_output(
            _reference_records(command, Ns, _reference_grid(grid), include_fixed), "csv"
        )
        argv = [*_grid_argv(command, Ns, grid, include_fixed), "--format", "csv"]
        assert _run_captured(lambda: main(argv)) == (0, reference, "")

    @pytest.mark.parametrize("argv", [
        *_EVERY_COMMAND,
        ["curve", "--N", "2,4", "--grid", "0.25:0.5:3", "--include-fixed"],
        ["bounds", "--grid", "2:1000:50:log"],
        ["plan", "--target", "0.1", "--criterion", "rmse"],
        # one run: the standard error is 0 and z_score is None
        ["simulate", "--N", "3", "--p", "0.5", "--trials", "1"],
    ], ids=["mae", "plan", "simulate", "curve", "curve-include-fixed", "bounds", "coeffs",
            "curve-none-between", "bounds-log", "plan-rmse", "simulate-no-z"])
    def test_each_column_holds_one_class_apart_from_none(self, argv):
        args = build_parser().parse_args(argv)
        fieldnames, rows = args.func(args)
        rows = list(rows)
        assert all(len(row) == len(fieldnames) for row in rows)
        for name, column in zip(fieldnames, zip(*rows)):
            assert len({cell.__class__ for cell in column if cell is not None}) <= 1, name


# The closed-form commands, which need neither numpy nor the sampler.
_CLOSED_FORM_ARGVS = [
    ["mae", "--N", "5", "--p", "0.2"],
    ["curve", "--N", "2,4", "--grid", "0.25:0.5:2", "--include-fixed"],
    ["bounds", "--grid", "2:10:5"],
    ["plan", "--target", "0.1", "--criterion", "mae"],
    ["plan", "--target", "0.1", "--criterion", "rmse"],
    ["coeffs", "--N", "5", "--j-max", "3"],
]

IMPORT_PROBE = """
import contextlib, io, json, sys
import ibsmae
from ibsmae import cli

def loaded():
    return [name for name in ("numpy", "scipy") if name in sys.modules]

states = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in %r:
        assert cli.main(argv) == 0, argv
    states["closed_forms"] = loaded()
    ibsmae.brute_force_normalized_mae(5, 0.2, 1e-12)
    states["brute_force"] = loaded()
    ibsmae.distributions.nbin_cdf(5, 0.2, 30)
    ibsmae.distributions.nbin_sf(5, 0.2, 30)
    states["nbin_cdf_sf"] = loaded()
    assert cli.main(["simulate", "--N", "3", "--p", "0.5", "--trials", "10"]) == 0
    states["simulate"] = loaded()
print(json.dumps(states))
""" % (_CLOSED_FORM_ARGVS,)


def test_closed_forms_load_neither_numpy_nor_scipy():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "import": [],
        "closed_forms": [],
        "brute_force": [],
        "nbin_cdf_sf": [],
        "simulate": ["numpy"],
    }


COLD_START_PROBE = """
import contextlib, io, sys
preloaded = "dataclasses" in sys.modules
import ibsmae
from ibsmae import cli

with contextlib.redirect_stdout(io.StringIO()):
    for argv in %r:
        assert cli.main(argv) == 0, argv
ibsmae.series_sum(5, 0.5, 3)
assert "ibsmae.simulate" not in sys.modules, "the closed forms loaded the sampler"
assert preloaded or "dataclasses" not in sys.modules, "the closed forms loaded dataclasses"

# the sampler's names load it on first use, as package attributes and by *
assert ibsmae.RunConfig is ibsmae.simulate.RunConfig
namespace = {}
exec("from ibsmae import *", namespace)
assert len(ibsmae.__all__) == 13
assert all(namespace[name] is getattr(ibsmae, name) for name in ibsmae.__all__)
assert set(ibsmae.__all__) <= set(dir(ibsmae))
try:
    ibsmae.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("ibsmae.no_such_name raised no AttributeError")
""" % (_CLOSED_FORM_ARGVS,)


def test_closed_forms_load_neither_the_sampler_nor_dataclasses():
    result = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_format_or_exact_arithmetic_module():
    probe = (
        "import sys, ibsmae.cli; "
        "print(sorted({'csv', 'json', 'decimal', 'fractions'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# Argv fuzz.  Every value strategy is bounded: grids have at most 50 points,
# --j-max is at most 50, --trials at most 1e5, --shards at most 8 and junk
# tokens hold no digits, so no draw can ask for a long computation.  --output
# stays out.
_N_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=70).map(str),
    st.sampled_from(["1000", "1000000", str(10**18), str(10**400), "2.5", "nan", ""]),
)
_FLOATS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.floats(min_value=1.0, max_value=1e7).map(repr),
    st.floats().map(repr),
    st.sampled_from(["0", "1e-17", "5e-324", "-0.0", "1e999", "1e300", "p"]),
)
@st.composite
def _grids(draw):
    """Mostly start < stop, as a valid grid needs; sometimes junk."""
    if not draw(st.integers(0, 5)):
        return draw(st.sampled_from(["", ":", "::", "0.1:0.9", "0.1:0.9:x", "a:b:c:d:e"]))
    ends = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e7), st.floats())
    start, stop = sorted([draw(ends), draw(ends)])
    points = draw(st.integers(min_value=-2, max_value=50))
    return f"{start!r}:{stop!r}:{points}" + draw(st.sampled_from(["", "", ":log", ":lin"]))


_FLAG_VALUES = {
    "--N": _N_VALUES,
    "--p": _FLOATS,
    "--grid": _grids(),
    "--target": _FLOATS,
    "--criterion": st.sampled_from(["mae", "rmse", "MAE", ""]),
    "--j-max": st.one_of(
        st.integers(min_value=-3, max_value=50).map(str), st.sampled_from(["", "x", "1.5"])
    ),
    "--format": st.sampled_from(["csv", "json", "text", ""]),
    "--trials": st.one_of(
        st.integers(min_value=-3, max_value=10**5).map(str), st.sampled_from(["", "1e5"])
    ),
    "--seed": st.integers(min_value=-3, max_value=2**64 + 3).map(str),
    "--shards": st.integers(min_value=-2, max_value=8).map(str),
}
_COMMAND_FLAGS = {
    "mae": ["--N", "--p"],
    "curve": ["--N", "--grid"],
    "bounds": ["--grid"],
    "plan": ["--target", "--criterion"],
    "coeffs": ["--N", "--j-max"],
    "simulate": ["--N", "--p", "--trials", "--seed", "--shards"],
}
_JUNK = st.one_of(
    st.sampled_from(["--", "-", "-h", "--include-fixed", "--bogus", "=", *_FLAG_VALUES]),
    st.text(alphabet="abcxyz-=:,. \u00e9", max_size=6),
)


@st.composite
def _argv(draw):
    """A command's own flags, each kept or dropped, then stray flags and junk."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = [flag for flag in _COMMAND_FLAGS[command] if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 3)):
        flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    tokens = []
    for flag in flags:
        value = draw(_FLAG_VALUES[flag])
        if flag == "--N" and command == "curve":
            value += "".join("," + draw(_N_VALUES) for _ in range(draw(st.integers(0, 3))))
        tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if not draw(st.integers(0, 3)):
        tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))), draw(_JUNK))
    return [command, *tokens]


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_argv_fuzz_exits_cleanly(argv):
    code, _, err = _run_captured(lambda: main(argv))
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(
    N=st.one_of(st.integers(min_value=2, max_value=70), st.sampled_from([10**6, 10**18])),
    p=st.one_of(
        st.floats(min_value=1e-12, max_value=0.999),
        st.sampled_from([5e-324, 1e-17, 1e-16, 0.9999999999999999]),
    ),
    trials=st.integers(min_value=1, max_value=10**5),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    shards=st.integers(min_value=1, max_value=8),
)
def test_simulate_fuzz_exits_cleanly(N, p, trials, seed, shards):
    # well-formed flags, so that the sampler and its threads do run, here
    # up to the sampler's limits in p and N; the argv fuzz above covers
    # malformed ones
    argv = ["simulate", "--N", str(N), "--p", repr(p), "--trials", str(trials),
            "--seed", str(seed), "--shards", str(shards)]
    code, _, err = _run_captured(lambda: main(argv))
    assert code in (0, 1), (argv, code, err)
    assert "Traceback" not in err
