"""Command-line frontend for the library.

Every subcommand is a thin adapter around library calls, which return plain
numbers, so identical inputs through either surface yield identical values;
the only columns the CLI derives itself are mae's slack and simulate's
z_score, which is empty (null in JSON) when the standard error is 0.  Each
command returns its field names once and its rows as plain tuples: mae,
plan and simulate one row, the grid commands and coeffs a lazy iterator.
main writes them in one place, as they arrive: no table is ever held whole,
so memory stays flat however long the grid.  A grid's point count is capped
(_GRID_POINTS_MAX) for time alone, at about 4 us per curve row (3.7 us in
process, 4.5 us to a file).  Grid commands default to CSV (header row, 17
significant digits so doubles round-trip losslessly, LF line endings,
UTF-8); record commands default to key=value lines.
``--format json`` mirrors the CSV columns as an array of records with
identical field names, in the bytes json.dump(records, indent=2) writes.
CSV rows stream to the output without the csv module, through one %
template per output (see _csv_lines): every cell is a number, an empty
string or a bare word (mae, rmse) holding no comma, quote or line break, so
no field ever needs quoting and the bytes are those csv.writer would write.

A domain error writes nothing.  The grid commands compute their rows at the
grid's two ends, for every N, through the public functions and their
checks, before they return their lazy rows, and main opens the output only
after the first row.  Along a rising p grid n0 and N/p only fall, and along
a rising N grid N only grows, so a grid whose ends pass passes at every
point, and curve computes its rows by mae's body for checked input.

Exit status: 0 on success, 2 on usage errors, 1 on domain errors and on an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
from dataclasses import asdict

from . import fixed_sample, mae, planner, simulate

__all__ = ["main", "parse_grid"]

# A grid's values are computed one at a time as its rows are written, so
# memory does not bound the point count; time does.  A curve row costs about
# 4 us (3.7 us in process on the benchmark's log grid, 4.5 us for --N 65 on
# a 1e6-point log grid written to a file), so 10**7 points take under a
# minute for each N, and a mistyped count of 10**10 would run for about half
# a day for each N.
_GRID_POINTS_MAX = 10**7


class _Grid:
    """A grid's values, computed afresh on each pass over it (see parse_grid).

    ends holds the first and the last value.
    """

    def __init__(self, start: float, step: float, points: int, log: bool) -> None:
        self.start, self.step, self.points, self.log = start, step, points, log
        self.ends = tuple(self._values((0, points - 1)))

    def _values(self, indices):
        start, step, exp = self.start, self.step, math.exp
        if self.log:
            return (start * exp(i * step) for i in indices)
        return (start + i * step for i in indices)

    def __iter__(self):
        return self._values(range(self.points))


def parse_grid(text: str) -> _Grid:
    """The values of the grid start:stop:points[:log], 1 <= points <= 10**7.

    Point i is start + i * step, or start * exp(i * step) on a log grid,
    with the span split into max(points - 1, 1) steps; a one-point grid is
    [start] (0.0 for a start of -0.0, as on every linear grid).  The values
    never fall.  They are computed lazily, on each pass, and never held as a
    list; only the two ends are computed here.  Malformed text, more than
    _GRID_POINTS_MAX points (the cap bounds a run's time), or a log grid
    whose last point overflows raises argparse.ArgumentTypeError; argparse
    prints its message as the usage error.
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
        return _Grid(start, (stop - start) / max(points - 1, 1), points, log)
    step = (math.log(stop) - math.log(start)) / max(points - 1, 1)
    # i * step rises with i, so only the last point's exp can overflow
    try:
        return _Grid(start, step, points, log)
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"log grid {text!r} spans more than the double range"
        ) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def _format_value(value) -> str:
    # one cell of a row tuple, for the text format and for a CSV row that
    # holds a None: "%.17g" % value is format(value, ".17g"), at less cost
    if value.__class__ is float:
        return "%.17g" % value
    return "" if value is None else str(value)


def _csv_lines(rows):
    """Each row as one CSV line, every cell as _format_value formats it.

    The rows go through one % template, built from the first row that holds
    no None: "%.17g" for a float cell and "%s" for any other.  Apart from
    None, each column of a command's rows holds one class, so the template
    fits every later row.  A row that holds a None is joined cell by cell.
    """
    template = None
    for row in rows:
        if None in row:
            yield ",".join(map(_format_value, row)) + "\n"
            continue
        if template is None:
            cells = ("%.17g" if value.__class__ is float else "%s" for value in row)
            template = ",".join(cells) + "\n"
        yield template % row


def _emit(output, args) -> None:
    """Write a command's (field names, rows) as CSV, JSON or key=value lines.

    The output goes to args.output or stdout.  Rows are written as they
    arrive, so none is held after its line.  The first is taken before the
    output opens: a command that fails before its first row creates no file
    and writes nothing.  Both outputs go through one with block: the file
    is closed at its end, and stdout, wrapped in contextlib.nullcontext, is
    left open.
    """
    fieldnames, rows = output
    rows = iter(rows)
    rows = itertools.chain((next(rows),), rows)
    with (
        open(args.output, "w", encoding="utf-8", newline="")
        if args.output is not None
        else contextlib.nullcontext(sys.stdout)
    ) as out:
        if args.format == "csv":
            out.write(",".join(fieldnames) + "\n")
            out.writelines(_csv_lines(rows))
        elif args.format == "json":
            import json

            # the bytes of json.dump(records, indent=2), one flat record at a
            # time; json spells an int or a finite float as its repr
            def value_text(value):
                if value.__class__ is int or (value.__class__ is float and math.isfinite(value)):
                    return repr(value)
                return json.dumps(value)

            keys = [f"\n    {json.dumps(name)}: " for name in fieldnames]

            def encode(row):
                pairs = [key + value_text(value) for key, value in zip(keys, row)]
                return "{" + ",".join(pairs) + "\n  }"

            out.write("[\n  " + encode(next(rows)))
            out.writelines(",\n  " + encode(row) for row in rows)
            out.write("\n]\n")
        else:
            for row in rows:
                for name, value in zip(fieldnames, row):
                    out.write(f"{name}={_format_value(value)}\n")


def _one_row(**fields):
    # a record command's field names and its one row
    return tuple(fields), [tuple(fields.values())]


def cmd_mae(args):
    value = mae.exact_normalized_mae(args.N, args.p)
    bound = mae.alpha(args.N)
    return _one_row(N=args.N, p=args.p, normalized_mae=value,
                    n0=mae.threshold_n0(args.N, args.p), alpha=bound, slack=bound - value)


def cmd_curve(args):
    def rows(grid, exact):
        fixed = fixed_sample.matched_fixed_mae
        for N in args.N:
            if args.include_fixed:
                yield from ((N, p, exact(N, p), fixed(N, p)) for p in grid)
            else:
                yield from ((N, p, exact(N, p)) for p in grid)

    # a domain error raises here, before the first row: n0 and N/p only fall
    # as p rises, so every N passes at every point if it passes at both ends,
    # and the rows need not check again
    for _ in rows(args.grid.ends, mae.exact_normalized_mae):
        pass
    fieldnames = ("N", "p", "normalized_mae") + (
        ("fixed_normalized_mae",) if args.include_fixed else ()
    )
    return fieldnames, rows(args.grid, mae._exact_normalized_mae)


def cmd_bounds(args):
    def rows(values):
        previous = None
        for value in values:
            N = round(value)
            if N != previous:
                previous = N
                yield N, mae.alpha(N), planner.rmse_bound(N) if N >= 3 else None

    # the grid rises and so does round, so a repeat follows its original, and
    # a domain error, at the smallest or the largest N, raises here
    for _ in rows(args.grid.ends):
        pass
    return ("N", "alpha_N", "rmse_bound"), rows(args.grid)


def cmd_plan(args):
    plan, bound = (
        (planner.plan_mae, mae.alpha) if args.criterion == "mae"
        else (planner.plan_rmse, planner.rmse_bound)
    )
    N = plan(args.target)
    return _one_row(criterion=args.criterion, target=args.target, N=N, achieved_bound=bound(N))


def cmd_simulate(args):
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
    return _one_row(**asdict(cfg), **asdict(estimate), exact_normalized_mae=reference,
                    z_score=z_score)


def cmd_coeffs(args):
    return ("j", "x_j"), enumerate(mae.series_coefficients(args.N, args.j_max))


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
    grid_help = ("POINTS values from START to STOP, evenly spaced or log-spaced, each "
                 f"computed as its row is written; at most {_GRID_POINTS_MAX} points, "
                 "close to a minute of curve rows per N; a value that starts with '-' "
                 "needs the --grid=VALUE form")

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
    p_curve.add_argument("--N", type=_int_list, required=True, metavar="N[,N...]",
                         help="a list that starts with '-' needs the --N=VALUE form")
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
