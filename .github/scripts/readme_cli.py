"""Run every command in the README's CLI block through the ibsmae on PATH.

A doc that uses a removed command or flag fails here.  Each command runs
again with --format json and --format csv, whose first record's keys must
equal the CSV header.  The CLI writes CSV rows without the csv module, so
the CSV bytes must also equal csv.writer's rewrite of its own rows: no
field may need quoting.  That round trip passes a float written as its
repr, so each CSV cell must also be its JSON value in the documented
format: a float as format(v, ".17g"), an int or a str as str(v), and null
as an empty cell.  It streams JSON records one at a time, so the JSON
bytes must equal json.dumps(records, indent=2) plus a newline, as json.dump
wrote them when the CLI held every record.  A simulate command must also land within 4
standard errors of the exact MAE, |z_score| <= 4, in all three formats, so
a broken random stream fails here too.

Run from the repository root, with the package installed:
python .github/scripts/readme_cli.py
"""

import csv
import io
import json
import shlex
import subprocess
import sys

text = open("README.md", encoding="utf-8").read()
section = text.split("\n## CLI\n", 1)[1]
block = section.split("```sh\n", 1)[1].split("```", 1)[0]
failed = []
for line in block.splitlines():
    argv = shlex.split(line, comments=True)
    if not argv:
        continue
    runs = {fmt: subprocess.run([*argv, *fmt], capture_output=True)
            for fmt in ((), ("--format", "json"), ("--format", "csv"))}
    codes = [run.returncode for run in runs.values()]
    print(f"exit {codes}: {shlex.join(argv)}")
    if any(codes):
        failed.append(line)
        continue
    json_out = runs[("--format", "json")].stdout.decode("utf-8")
    records = json.loads(json_out)
    if json_out != json.dumps(records, indent=2) + "\n":
        print("  JSON output differs from json.dumps(records, indent=2)")
        failed.append(line)
    stdout = runs[("--format", "csv")].stdout.decode("utf-8")
    rows = list(csv.reader(io.StringIO(stdout, newline="")))
    if argv[1] == "simulate":
        text = dict(line.split("=", 1) for line in runs[()].stdout.decode("utf-8").splitlines())
        z_scores = {"text": text.get("z_score"), "json": records[0].get("z_score"),
                    "csv": dict(zip(*rows)).get("z_score")}
        print(f"  z_score: {z_scores}")
        if not all(z not in (None, "") and abs(float(z)) <= 4.0 for z in z_scores.values()):
            print("  a z_score is missing or above 4 in magnitude")
            failed.append(line)
    if not (isinstance(records, list) and records and list(records[0]) == rows[0]):
        print(f"  JSON keys do not match the CSV header {rows[0]}")
        failed.append(line)
    cells = [["" if value is None else format(value, ".17g") if isinstance(value, float)
              else str(value) for value in record.values()] for record in records]
    if rows[1:] != cells:
        print("  CSV cells differ from the JSON values in the documented format")
        failed.append(line)
    rewritten = io.StringIO(newline="")
    csv.writer(rewritten, lineterminator="\n").writerows(rows)
    if rewritten.getvalue() != stdout:
        print("  CSV output differs from csv.writer's rewrite of its rows")
        failed.append(line)
sys.exit(f"README CLI commands failed: {failed}" if failed else 0)
