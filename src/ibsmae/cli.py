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
identical field names, in the bytes json.dump(records, indent=2) writes:
json's own encoder writes each record as its row arrives.
CSV rows stream to the output without the csv module, through one %
template per output (see _csv_lines): every cell is a number, an empty
string or a bare word (mae, rmse) holding no comma, quote or line break, so
no field ever needs quoting and the bytes are those csv.writer would write.

A domain error writes nothing: every command refuses its input before it
returns its rows, and main opens the output only after that.  mae, plan,
simulate and coeffs compute their rows at once.  The grid commands compute
their rows at the grid's two ends, for every N, through the public
functions and their checks, before they return their lazy rows.  Along a
rising p grid n0 and N/p only fall, and along a rising N grid N only
grows, so a grid whose ends pass passes at every point, and curve computes
its rows by mae's body for checked input.

Exit status: 0 on success, 2 on usage errors, 1 on domain errors, on an
output that cannot be written (a full device) and on an output pipe whose
reader has closed it (ibsmae coeffs ... | head -1).  A stderr that cannot
be written changes no status: the error line is lost and main still
returns 1, and usage errors and --help keep argparse's status, 2 and 0,
whether stdout or stderr is closed or full, on every supported Python.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from . import fixed_sample, mae, planner

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

    def __init__(self, start: float, stop: float, points: int, log: bool) -> None:
        step = (math.log(stop) - math.log(start) if log else stop - start) / max(points - 1, 1)
        self.start, self.stop, self.step, self.points, self.log = start, stop, step, points, log
        # i * step rises with i, so only the last point's exp can overflow
        self.ends = tuple(self._values((0, points - 1)))

    def _values(self, indices):
        # The formula never falls as i rises, so a point past stop is stop,
        # the last end.  Rounding can carry the last point past stop, and
        # inner points of a log grid a few ulps wide too, whose
        # log(stop) - log(start) can be off by an ulp of log(start).
        start, stop, step, exp = self.start, self.stop, self.step, math.exp
        if self.log:
            return (v if (v := start * exp(i * step)) <= stop else stop for i in indices)
        return (v if (v := start + i * step) <= stop else stop for i in indices)

    def __iter__(self):
        return self._values(range(self.points))


def parse_grid(text: str) -> _Grid:
    """The values of the grid start:stop:points[:log], 1 <= points <= 10**7.

    Point i is start + i * step, or start * exp(i * step) on a log grid,
    with the span split into max(points - 1, 1) steps, or stop where that
    rounds past stop: the last point can, and so can inner points of a log
    grid a few ulps wide.  A one-point grid is [start] (0.0 for a start of
    -0.0, as on every linear grid).  The values never fall and never pass
    stop.  They are computed lazily, on each pass, and never held as a
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
    try:
        return _Grid(start, stop, points, log)
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

    The output goes to args.output or stdout, opened at once: every command
    refuses its input before it returns its rows (see the module
    docstring), so a refused command never gets here and creates no file.
    Rows are written as they arrive, so none is held after its line.  Both
    outputs go through one with block: the file is closed at its end, and
    stdout, wrapped in contextlib.nullcontext, is left open.
    """
    fieldnames, rows = output
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

            # the bytes of json.dump(records, indent=2), one record at a
            # time: without indent, json's C encoder writes a record on one
            # line, and these separators break it where indent=2 would inside
            # the array.  [1:-1] drops exactly the record's two braces, as
            # every command has at least one field; the writes put them back
            # on their own lines.
            encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
            bodies = (encode(dict(zip(fieldnames, row)))[1:-1] for row in rows)
            out.write("[\n  {\n    " + next(bodies))
            out.writelines("\n  },\n  {\n    " + body for body in bodies)
            out.write("\n  }\n]\n")
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
    from dataclasses import asdict

    from . import simulate

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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that drops its own write errors, as argparse itself
    does in Python 3.11.7 and 3.12.  In 3.10 and 3.11.2 they leave
    parse_args, and main would turn a usage error into a closed or full
    stderr into status 1.  add_parser builds the subparsers from this class
    too.
    """

    def _print_message(self, message, file=None):
        with contextlib.suppress(OSError):
            super()._print_message(message, file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ibsmae argument parser, built once per process.

    Parsing leaves the parser unchanged, so every main() call shares it.
    """
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        _emit(args.func(args), args)
        sys.stdout.flush()
    except (ValueError, RuntimeError, OverflowError, OSError) as exc:
        with contextlib.suppress(OSError):
            print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                # the reader closed the pipe, or the device is full: what the
                # stream still buffers goes to devnull, so that the
                # interpreter's last flush at exit cannot fail (Python docs,
                # "Note on SIGPIPE")
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
