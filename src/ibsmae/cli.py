"""Command-line frontend for the library.

Every subcommand is a thin adapter around library calls, so identical
inputs through either surface yield identical values; the only columns the
CLI derives itself are mae's slack and simulate's z_score.  Grid commands
default to CSV (header row, 17 significant digits so doubles round-trip
losslessly, LF line endings, UTF-8); record commands default to key=value
lines.  ``--format json`` mirrors the CSV columns as an array of records
with identical field names.

Exit status: 0 on success, 2 on usage errors, 1 on domain errors and on an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass

from . import fixed_sample, mae, planner, simulate

__all__ = ["GridSpec", "main"]


def _log_span_is_finite(start: float, stop: float, points: int) -> bool:
    """Whether stop / start, and the largest factor of a log grid, are doubles.

    GridSpec.values multiplies start by exp(i * step) for i < points; when
    stop / start sits within rounding of the double limit, the last factor
    can overflow although the ratio itself does not.
    """
    if not math.isfinite(stop / start):
        return False
    if points > 1:
        step = (math.log(stop) - math.log(start)) / (points - 1)
        try:
            math.exp((points - 1) * step)
        except OverflowError:
            return False
    return True


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid parsed from start:stop:points[:log]."""

    start: float
    stop: float
    points: int
    scale: str = "linear"

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"grid must be start:stop:points[:log], got {text!r}")
        scale = "linear"
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError(f"grid scale must be 'log' when given, got {parts[3]!r}")
            scale = "log"
        try:
            start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(
                f"grid start and stop must be numbers and points an integer, got {text!r}"
            ) from None
        if not math.isfinite(stop - start):
            raise ValueError(
                f"grid start, stop and stop - start must be finite, got {start} and {stop}"
            )
        if points < 1:
            raise ValueError(f"grid needs at least one point, got {points}")
        if not start < stop:
            raise ValueError(f"grid start must be below stop, got {start} >= {stop}")
        if scale == "log" and start <= 0.0:
            raise ValueError("log grids need a positive start")
        if scale == "log" and not _log_span_is_finite(start, stop, points):
            raise ValueError(f"log grid {text!r} spans more than the double range")
        return cls(start, stop, points, scale)

    def values(self) -> list[float]:
        if self.points == 1:
            return [self.start]
        if self.scale == "log":
            step = (math.log(self.stop) - math.log(self.start)) / (self.points - 1)
            return [self.start * math.exp(i * step) for i in range(self.points)]
        step = (self.stop - self.start) / (self.points - 1)
        return [self.start + i * step for i in range(self.points)]


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(records, fieldnames, args, default_format: str) -> None:
    fmt = args.format or default_format
    needs_close = args.output is not None
    out = (
        open(args.output, "w", encoding="utf-8", newline="")
        if needs_close
        else sys.stdout
    )
    try:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(fieldnames)
            for record in records:
                writer.writerow(_format_value(record[name]) for name in fieldnames)
        elif fmt == "json":
            json.dump(records, out, indent=2)
            out.write("\n")
        else:
            for record in records:
                for name in fieldnames:
                    out.write(f"{name}={_format_value(record[name])}\n")
    finally:
        if needs_close:
            out.close()


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise ValueError("expected at least one integer")
    return values


def _arg_type(parse):
    """Wrap a parser type= callable so that usage errors show its message.

    argparse replaces a ValueError's text with "invalid <name> value"; an
    ArgumentTypeError's text is printed as is, still with exit status 2.
    """

    @functools.wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return checked


def cmd_mae(args) -> None:
    result = mae.exact_normalized_mae(args.N, args.p)
    bound = mae.alpha(args.N)
    record = {
        "N": args.N,
        "p": args.p,
        "normalized_mae": result.normalized_mae,
        "n0": result.n0,
        "alpha": bound,
        "slack": bound - result.normalized_mae,
    }
    _emit([record], list(record), args, "text")


def cmd_curve(args) -> None:
    grid = args.grid.values()
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise ValueError("curve grid must lie strictly inside (0, 1)")
    fieldnames = ["N", "p", "normalized_mae"]
    if args.include_fixed:
        fieldnames.append("fixed_normalized_mae")
    records = []
    for N in args.N:
        for p in grid:
            record = {
                "N": N,
                "p": p,
                "normalized_mae": mae.exact_normalized_mae(N, p).normalized_mae,
            }
            if args.include_fixed:
                record["fixed_normalized_mae"] = fixed_sample.matched_fixed_mae(N, p)
            records.append(record)
    _emit(records, fieldnames, args, "csv")


def cmd_bounds(args) -> None:
    targets = []
    for value in args.grid.values():
        N = round(value)
        if N not in targets:
            targets.append(N)
    if targets[0] < 2:
        raise ValueError("bounds grid must start at N >= 2")
    records = [
        {
            "N": N,
            "alpha_N": mae.alpha(N),
            "rmse_bound": planner.rmse_bound(N) if N >= 3 else None,
        }
        for N in targets
    ]
    _emit(records, ["N", "alpha_N", "rmse_bound"], args, "csv")


def cmd_plan(args) -> None:
    plan = planner.plan_mae(args.target) if args.criterion == "mae" else planner.plan_rmse(args.target)
    record = {
        "criterion": plan.criterion,
        "target": plan.target,
        "N": plan.N,
        "achieved_bound": plan.achieved_bound,
    }
    _emit([record], list(record), args, "text")


def cmd_simulate(args) -> None:
    cfg = simulate.RunConfig(
        N=args.N, p=args.p, trials=args.trials, seed=args.seed, shards=args.shards
    )
    estimate = simulate.mc_normalized_mae(cfg)
    reference = mae.exact_normalized_mae(cfg.N, cfg.p).normalized_mae
    z_score = (
        (estimate.mean_normalized_abs_error - reference) / estimate.std_error
        if estimate.std_error > 0.0
        else math.nan
    )
    record = {
        "N": cfg.N,
        "p": cfg.p,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "shards": cfg.shards,
        "mean_normalized_abs_error": estimate.mean_normalized_abs_error,
        "std_error": estimate.std_error,
        "mean_sample_size": estimate.mean_sample_size,
        "mean_estimate": estimate.mean_estimate,
        "std_error_estimate": estimate.std_error_estimate,
        "std_error_sample_size": estimate.std_error_sample_size,
        "exact_normalized_mae": reference,
        "z_score": z_score,
    }
    _emit([record], list(record), args, "text")


def cmd_coeffs(args) -> None:
    records = [
        {"j": c.j, "x_j": c.value}
        for c in mae.series_coefficients(args.N, args.j_max)
    ]
    _emit(records, ["j", "x_j"], args, "csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ibsmae argument parser, built once per process.

    Parsing leaves the parser unchanged, so every main() call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="ibsmae",
        description=(
            "Mean absolute error of probability estimation under inverse "
            "binomial sampling: exact values, uniform bounds, sample-size "
            "plans, and Monte-Carlo checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write to PATH instead of standard output")

    p_mae = sub.add_parser("mae", help="exact normalized MAE at one (N, p)")
    p_mae.add_argument("--N", type=int, required=True)
    p_mae.add_argument("--p", type=float, required=True)
    add_output_flags(p_mae)
    p_mae.set_defaults(func=cmd_mae)

    p_curve = sub.add_parser("curve", help="normalized MAE across a p grid")
    p_curve.add_argument("--N", type=_arg_type(_int_list), required=True, metavar="N[,N...]")
    p_curve.add_argument("--grid", type=_arg_type(GridSpec.parse), required=True,
                         metavar="START:STOP:POINTS[:log]")
    p_curve.add_argument("--include-fixed", action="store_true",
                         help="add the fixed-sample MAE column where N/p is integral")
    add_output_flags(p_curve)
    p_curve.set_defaults(func=cmd_curve)

    p_bounds = sub.add_parser("bounds", help="MAE and RMSE bounds across an N grid")
    p_bounds.add_argument("--grid", type=_arg_type(GridSpec.parse), required=True,
                          metavar="START:STOP:POINTS[:log]")
    add_output_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_plan = sub.add_parser(
        "plan",
        help="minimal N guaranteeing a target normalized error",
        description=(
            "Plans guarantee the stated bound irrespective of the unknown p; "
            "the realized error lies strictly below the bound."
        ),
    )
    p_plan.add_argument("--target", type=float, required=True)
    p_plan.add_argument("--criterion", choices=("mae", "rmse"), default="mae")
    add_output_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimate of the normalized MAE")
    p_sim.add_argument("--N", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--shards", type=int, default=1)
    add_output_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_coeffs = sub.add_parser("coeffs", help="gap-series coefficients x_j")
    p_coeffs.add_argument("--N", type=int, required=True)
    p_coeffs.add_argument("--j-max", type=int, required=True, dest="j_max")
    add_output_flags(p_coeffs)
    p_coeffs.set_defaults(func=cmd_coeffs)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
