"""Summarise run records from bench/out into one JSON document.

    python3 bench/summarize.py [bench/out] > bench/baseline.json

For each workload and each metric of the untraced runs it gives the median,
the quartiles and the spread (interquartile distance over the median) across
seeds, and per seed the failure rate and the largest relative error.  Traced
runs contribute their per-layer metrics as medians across seeds.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def summarize(folder: str) -> dict:
    runs: dict = {}
    env = None
    for path in sorted(glob.glob(os.path.join(folder, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        env = env or record["env"]
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    summary = {"env": env, "workloads": {}}
    for (workload, trace), records in sorted(runs.items()):
        entry = summary["workloads"].setdefault(workload, {})
        names = records[0]["metrics"]
        if trace:
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in records)
                for name in names}
            continue
        entry["seeds"] = [r["seed"] for r in records]
        entry["end_to_end"] = {}
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                         else [values[0]] * 3)
            entry["end_to_end"][name] = {
                "unit": first["unit"], "median": median, "quartiles": quartiles,
                "spread": (quartiles[2] - quartiles[0]) / median}
        entry["fail_rate"] = [r["fail_rate"] for r in records]
        entry["max_rel_err"] = [r["max_rel_err"] for r in records]
    return summary


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1] if len(sys.argv) > 1 else os.path.join("bench", "out")),
              sys.stdout, indent=1)
    sys.stdout.write("\n")
