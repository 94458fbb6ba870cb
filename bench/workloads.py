"""Workload definitions: the calls each workload makes, generated from a seed.

A workload is a fixed batch of calls into ibsmae's public surface, built once
per run from the workload seed and then repeated round after round by one
closed-loop caller.  The program only ever sees the generated arguments.
Each call produces some number of work units (CSV rows, plans, simulated
runs or oracle evaluations); throughput counts those units.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Monte-Carlo configs (N, p, trials).  Trial counts are sized so that each
# config takes roughly the same wall time (~0.2 s on a 2-vCPU Xeon) with the
# Bernoulli-rectangle sampler of the initial code, and never fewer than 1000.
MC_CONFIGS = [
    (5, 0.2, 160_000),
    (65, 0.2, 16_000),
    (5, 0.01, 10_000),
    (65, 0.01, 1_000),
    (5, 0.001, 1_000),
]
MC_SHARDS = 2  # the benchmark machine has two cores

CURVE_NS = [2, 5, 65, 1000, 1_000_000]
BRUTE_FORCE_POINTS = [(2, 0.5), (5, 0.2), (65, 0.2), (5, 0.01), (65, 0.05)]
BRUTE_FORCE_TAIL = 1e-12
COEFF_NS = [65, 1000, 10_000]
COEFF_J_MAX = 100
SERIES_J_MAX = 60
PLAN_TARGET_RANGE = (1e-6, 0.3)
PLANS_PER_CRITERION = 20
IDENTITY_POINTS = 40


@dataclass(frozen=True)
class Call:
    """One call into ibsmae: ``module.func(*args)``.

    For ``cli.main`` the single argument is the argv list and the output is
    whatever the command writes to standard output.  ``units`` is the work
    the call is expected to produce; ``spec`` carries what the checker needs
    to know about the inputs.
    """

    kind: str
    module: str
    func: str
    args: tuple
    units: int
    spec: dict = field(default_factory=dict, compare=False)


def cli_call(kind: str, argv: list, units: int, **spec) -> Call:
    return Call(kind, "cli", "main", (argv,), units, spec)


def log_grid(start: float, stop: float, points: int) -> list[float]:
    """Reference log grid, written independently of ``GridSpec.values``."""
    if points == 1:
        return [start]
    ratio = stop / start
    return [start * ratio ** (i / (points - 1)) for i in range(points)]


def lin_grid(start: float, stop: float, points: int) -> list[float]:
    if points == 1:
        return [start]
    return [start + (stop - start) * i / (points - 1) for i in range(points)]


def _fmt(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _curve(ns, grid_text, grid, include_fixed=False) -> Call:
    argv = ["curve", "--N", ",".join(map(str, ns)), "--grid", grid_text]
    if include_fixed:
        argv.append("--include-fixed")
    return cli_call("curve", argv, len(ns) * len(grid), ns=ns, grid=grid,
                    include_fixed=include_fixed)


def _bounds(start: float, stop: float, points: int, scale: str) -> Call:
    values = log_grid(start, stop, points) if scale == "log" else lin_grid(start, stop, points)
    ns = list(dict.fromkeys(round(v) for v in values))
    grid_text = f"{_fmt(start)}:{_fmt(stop)}:{points}" + (":log" if scale == "log" else "")
    return cli_call("bounds", ["bounds", "--grid", grid_text], len(ns), ns=ns)


def curve_sweep(rng: random.Random) -> list[Call]:
    calls = [_curve(CURVE_NS, "1e-10:0.99:1000:log", log_grid(1e-10, 0.99, 1000))]
    for _ in range(4):
        start = _log_uniform(rng, 1e-10, 1e-3)
        stop = _log_uniform(rng, start * 10.0, 0.99)
        text = f"{_fmt(start)}:{_fmt(stop)}:250:log"
        calls.append(_curve(CURVE_NS, text, log_grid(start, stop, 250)))
    # p = k/100 puts N/p on an integer for many (N, k): the fixed column is
    # filled exactly there.
    calls.append(_curve([2, 5, 65, 1000], "0.01:0.99:99", lin_grid(0.01, 0.99, 99),
                        include_fixed=True))
    calls.append(_bounds(2, 1_000_000, 2000, "log"))
    lo = rng.randint(2, 500_000)
    calls.append(_bounds(lo, lo + rng.randint(1000, 500_000), 500, "linear"))
    for criterion in ("mae", "rmse"):
        for _ in range(PLANS_PER_CRITERION):
            target = _log_uniform(rng, *PLAN_TARGET_RANGE)
            argv = ["plan", "--target", _fmt(target), "--criterion", criterion]
            calls.append(cli_call("plan", argv, 1, target=target, criterion=criterion))
    return calls


def monte_carlo(rng: random.Random) -> list[Call]:
    calls = []
    for N, p, trials in MC_CONFIGS:
        seed = rng.getrandbits(63)
        argv = ["simulate", "--N", str(N), "--p", _fmt(p), "--trials", str(trials),
                "--seed", str(seed), "--shards", str(MC_SHARDS)]
        calls.append(cli_call("simulate", argv, trials, N=N, p=p, trials=trials,
                              seed=seed, shards=MC_SHARDS))
    return calls


def oracle(rng: random.Random) -> list[Call]:
    calls = [
        Call("brute_force", "simulate", "brute_force_normalized_mae",
             (N, p, BRUTE_FORCE_TAIL), 1, {"N": N, "p": p})
        for N, p in BRUTE_FORCE_POINTS
    ]
    for N in COEFF_NS:
        argv = ["coeffs", "--N", str(N), "--j-max", str(COEFF_J_MAX)]
        calls.append(cli_call("coeffs", argv, COEFF_J_MAX + 1, N=N, j_max=COEFF_J_MAX))
    # knots: p = (N-1)/m with integer m, so the closed form is defined
    for N in (5, 65):
        for _ in range(3):
            m = rng.randint(2 * (N - 1), 50 * (N - 1))
            p = (N - 1) / m
            calls.append(Call("series_sum", "mae", "series_sum", (N, p, SERIES_J_MAX), 1,
                              {"N": N, "p": p, "m": m, "j_max": SERIES_J_MAX}))
    # threshold identity F_{N-1}(n0-1) - F_N(n0) = (1-p) b(N-1; n0-1, p)
    for _ in range(IDENTITY_POINTS):
        N = rng.choice((2, 5, 65))
        p = _log_uniform(rng, 1e-3, 0.5)
        n0 = math.floor((N - 1) / p) + 1
        for func, order, n in (("nbin_cdf", N - 1, n0 - 1), ("nbin_cdf", N, n0),
                               ("nbin_sf", N - 1, n0 - 1), ("nbin_sf", N, n0)):
            calls.append(Call(func, "distributions", func, (order, p, n), 1,
                              {"N": order, "p": p, "n": n}))
    return calls


BUILDERS = {"curve_sweep": curve_sweep, "monte_carlo": monte_carlo, "oracle": oracle}

# One untimed call of each kind, made before timing (and counted in setup_s).
WARMUP = {
    "curve_sweep": [
        cli_call("curve", ["curve", "--N", "2,5", "--grid", "0.01:0.5:4:log"], 8),
        cli_call("curve", ["curve", "--N", "5", "--grid", "0.1:0.5:5", "--include-fixed"], 5),
        cli_call("bounds", ["bounds", "--grid", "2:100:5"], 5),
        cli_call("plan", ["plan", "--target", "0.1", "--criterion", "mae"], 1),
        cli_call("plan", ["plan", "--target", "0.1", "--criterion", "rmse"], 1),
    ],
    "monte_carlo": [
        cli_call("simulate", ["simulate", "--N", "5", "--p", "0.2", "--trials", "1000",
                              "--seed", "1", "--shards", str(MC_SHARDS)], 1000),
    ],
    "oracle": [
        Call("brute_force", "simulate", "brute_force_normalized_mae", (2, 0.5, 1e-12), 1),
        cli_call("coeffs", ["coeffs", "--N", "5", "--j-max", "3"], 4),
        Call("series_sum", "mae", "series_sum", (5, 0.5, 3), 1),
        Call("nbin_cdf", "distributions", "nbin_cdf", (2, 0.5, 3), 1),
        Call("nbin_sf", "distributions", "nbin_sf", (2, 0.5, 3), 1),
    ],
}

# What one work unit is called in reports, per workload.
UNIT_NAMES = {"curve_sweep": "points_per_s", "monte_carlo": "runs_per_s",
              "oracle": "evals_per_s"}


def build(workload: str, seed: int) -> list[Call]:
    return BUILDERS[workload](random.Random(seed))
