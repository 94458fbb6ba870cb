"""Command-line frontend for the library.

Every subcommand is a thin adapter around library calls, which return plain
numbers, so identical inputs through either surface yield identical values;
the only columns the CLI derives itself are mae's slack and simulate's
z_score, which is empty (null in JSON) when the standard error is 0.  Each
command returns its records and main writes them in one place, with the
field names of the first record.  Grid commands default to CSV (header row,
17 significant digits so doubles round-trip losslessly, LF line endings,
UTF-8); record commands default to key=value lines.  ``--format json``
mirrors the CSV columns as an array of records with identical field names.
CSV rows stream to the output as one comma join each, without the csv
module: every cell is a number, an empty string or a bare word (mae, rmse)
holding no comma, quote or line break, so no field ever needs quoting and
the bytes are those csv.writer would write.

Exit status: 0 on success, 2 on usage errors, 1 on domain errors and on an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import asdict

from . import fixed_sample, mae, planner, simulate

__all__ = ["main", "parse_grid"]

# A grid is built as a list before any value is computed, so points are
# capped: 10**7 points take about 0.3 GB, and 10**10 would take 300 GB.
_GRID_POINTS_MAX = 10**7


def parse_grid(text: str) -> list[float]:
    """The values of the grid start:stop:points[:log], 1 <= points <= 10**7.

    Point i is start + i * step, or start * exp(i * step) on a log grid,
    with the span split into max(points - 1, 1) steps; a one-point grid is
    [start] (0.0 for a start of -0.0, as on every linear grid).  Malformed
    text, or more than _GRID_POINTS_MAX points, raises
    argparse.ArgumentTypeError before the list is built; argparse prints its
    message as the usage error.
    """
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"grid must be start:stop:points[:log], got {text!r}")
    log = len(parts) == 4
    if log and parts[3] != "log":
        raise argparse.ArgumentTypeError(f"grid scale must be 'log' when given, got {parts[3]!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid start and stop must be numbers and points an integer, got {text!r}"
        ) from None
    if not math.isfinite(stop - start):
        raise argparse.ArgumentTypeError(
            f"grid start, stop and stop - start must be finite, got {start} and {stop}"
        )
    if points < 1:
        raise argparse.ArgumentTypeError(f"grid needs at least one point, got {points}")
    if points > _GRID_POINTS_MAX:
        raise argparse.ArgumentTypeError(
            f"grid takes at most {_GRID_POINTS_MAX} points, got {points}"
        )
    if not start < stop:
        raise argparse.ArgumentTypeError(f"grid start must be below stop, got {start} >= {stop}")
    if log and start <= 0.0:
        raise argparse.ArgumentTypeError("log grids need a positive start")
    if not log:
        step = (stop - start) / max(points - 1, 1)
        return [start + i * step for i in range(points)]
    step = (math.log(stop) - math.log(start)) / max(points - 1, 1)
    try:
        return [start * math.exp(i * step) for i in range(points)]
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"log grid {text!r} spans more than the double range"
        ) from None


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(records: list[dict], args) -> None:
    """Write records as CSV, JSON or key=value lines, to args.output or stdout.

    Both go through one with block: the file is closed at its end, and
    stdout, wrapped in contextlib.nullcontext, is left open.
    """
    fieldnames = list(records[0])
    with (
        open(args.output, "w", encoding="utf-8", newline="")
        if args.output is not None
        else contextlib.nullcontext(sys.stdout)
    ) as out:
        if args.format == "csv":
            out.write(",".join(fieldnames) + "\n")
            out.writelines(
                ",".join([_format_value(record[name]) for name in fieldnames]) + "\n"
                for record in records
            )
        elif args.format == "json":
            import json

            json.dump(records, out, indent=2)
            out.write("\n")
        else:
            for record in records:
                for name in fieldnames:
                    out.write(f"{name}={_format_value(record[name])}\n")


def cmd_mae(args) -> list[dict]:
    value = mae.exact_normalized_mae(args.N, args.p)
    bound = mae.alpha(args.N)
    return [{
        "N": args.N,
        "p": args.p,
        "normalized_mae": value,
        "n0": mae.threshold_n0(args.N, args.p),
        "alpha": bound,
        "slack": bound - value,
    }]


def cmd_curve(args) -> list[dict]:
    records = []
    for N in args.N:
        for p in args.grid:
            record = {"N": N, "p": p, "normalized_mae": mae.exact_normalized_mae(N, p)}
            if args.include_fixed:
                record["fixed_normalized_mae"] = fixed_sample.matched_fixed_mae(N, p)
            records.append(record)
    return records


def cmd_bounds(args) -> list[dict]:
    return [
        {
            "N": N,
            "alpha_N": mae.alpha(N),
            "rmse_bound": planner.rmse_bound(N) if N >= 3 else None,
        }
        for N in dict.fromkeys(round(value) for value in args.grid)
    ]


def cmd_plan(args) -> list[dict]:
    plan, bound = (
        (planner.plan_mae, mae.alpha) if args.criterion == "mae"
        else (planner.plan_rmse, planner.rmse_bound)
    )
    N = plan(args.target)
    return [{
        "criterion": args.criterion,
        "target": args.target,
        "N": N,
        "achieved_bound": bound(N),
    }]


def cmd_simulate(args) -> list[dict]:
    cfg = simulate.RunConfig(
        N=args.N, p=args.p, trials=args.trials, seed=args.seed, shards=args.shards
    )
    estimate = simulate.mc_normalized_mae(cfg)
    reference = mae.exact_normalized_mae(cfg.N, cfg.p)
    z_score = (
        (estimate.mean_normalized_abs_error - reference) / estimate.std_error
        if estimate.std_error > 0.0
        else None
    )
    return [{
        **asdict(cfg),
        **asdict(estimate),
        "exact_normalized_mae": reference,
        "z_score": z_score,
    }]


def cmd_coeffs(args) -> list[dict]:
    return [{"j": j, "x_j": x} for j, x in enumerate(mae.series_coefficients(args.N, args.j_max))]


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
    grid_help = ("POINTS values from START to STOP, evenly spaced or log-spaced; "
                 f"at most {_GRID_POINTS_MAX} points")

    def add_output_flags(p: argparse.ArgumentParser, func, style: str) -> None:
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write to PATH instead of standard output")
        p.set_defaults(func=func, format=style)

    p_mae = sub.add_parser("mae", help="exact normalized MAE at one (N, p)")
    p_mae.add_argument("--N", type=int, required=True)
    p_mae.add_argument("--p", type=float, required=True)
    add_output_flags(p_mae, cmd_mae, "text")

    p_curve = sub.add_parser("curve", help="normalized MAE across a p grid")
    p_curve.add_argument("--N", type=_int_list, required=True, metavar="N[,N...]")
    p_curve.add_argument("--grid", type=parse_grid, required=True,
                         metavar="START:STOP:POINTS[:log]", help=grid_help)
    p_curve.add_argument("--include-fixed", action="store_true",
                         help="add the fixed-sample MAE column where N/p is integral")
    add_output_flags(p_curve, cmd_curve, "csv")

    p_bounds = sub.add_parser("bounds", help="MAE and RMSE bounds across an N grid")
    p_bounds.add_argument("--grid", type=parse_grid, required=True,
                          metavar="START:STOP:POINTS[:log]", help=grid_help)
    add_output_flags(p_bounds, cmd_bounds, "csv")

    p_plan = sub.add_parser(
        "plan",
        help="minimal N guaranteeing a target normalized error",
        description=(
            "Plans guarantee the stated bound irrespective of the unknown p; the realized "
            "error lies below it, but in doubles can round one ulp above (mae --N 2 --p 1e-17)."
        ),
    )
    p_plan.add_argument("--target", type=float, required=True)
    p_plan.add_argument("--criterion", choices=("mae", "rmse"), default="mae")
    add_output_flags(p_plan, cmd_plan, "text")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimate of the normalized MAE")
    p_sim.add_argument("--N", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--shards", type=int, default=1,
                       help="worker threads drawing the trial blocks, at most one per "
                            "core; the estimate is the same whatever the value")
    add_output_flags(p_sim, cmd_simulate, "text")

    p_coeffs = sub.add_parser("coeffs", help="gap-series coefficients x_j")
    p_coeffs.add_argument("--N", type=int, required=True)
    p_coeffs.add_argument("--j-max", type=int, required=True, dest="j_max")
    add_output_flags(p_coeffs, cmd_coeffs, "csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args)
    except (ValueError, RuntimeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
