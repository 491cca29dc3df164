"""Print the benchmark's results, or compare two sets of them.

    python3 perfbench/report.py [RUNS.jsonl]
    python3 perfbench/report.py --compare OLD.jsonl NEW.jsonl

RUNS defaults to .perfbench/runs.jsonl, where run.py appends every run.
The table has one row per workload and metric: unit, sample count,
median and quartiles (statistics.quantiles, n=4), with failed_frac, the
failed operations over those attempted, for each workload; layers a
workload never reaches (all zero) are left out.  --compare
puts the two medians side by side with the change and the bound from
BENCHMARK.json: "worse" past the bound, "unresolved" when either side's
quartile spread is wider than the bound.  Nothing here is a test gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict:
    """{(workload, metric): [values]}, {metric: unit}, {workload: [att, fail]}"""
    values: dict = defaultdict(list)
    units: dict = {}
    ops: dict = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            w = run["workload"]
            ops[w][0] += run["attempted"]
            ops[w][1] += run["failed"]
            for name, m in run["metrics"].items():
                values[(w, name)].append(m["value"])
                units[name] = m["unit"]
    return values, units, ops


def stats(vals: list) -> tuple:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def bounds() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def show(path: str) -> None:
    values, units, ops = load_runs(path)
    print("%-9s %-44s %-6s %3s %14s %14s %14s"
          % ("workload", "metric", "unit", "n", "median", "q1", "q3"))
    for w in sorted(ops):
        att, fail = ops[w]
        print("%-9s %-44s %-6s %3s %14.6g" % (w, "failed_frac", "ratio", "",
                                              fail / att if att else 0.0))
        for (wl, name), vals in sorted(values.items()):
            if wl != w or not any(vals):   # a layer this workload never reaches
                continue
            q1, med, q3 = stats(vals)
            print("%-9s %-44s %-6s %3d %14.6g %14.6g %14.6g"
                  % (w, name, units[name], len(vals), med, q1, q3))


def compare(old_path: str, new_path: str) -> None:
    old, units, _ = load_runs(old_path)
    new, _, _ = load_runs(new_path)
    limits = bounds()
    print("%-9s %-44s %-6s %14s %14s %9s %6s  %s"
          % ("workload", "metric", "unit", "old median", "new median",
             "change", "bound", "verdict"))
    for key in sorted(set(old) & set(new)):
        w, name = key
        if not any(old[key]) and not any(new[key]):
            continue
        oq1, omed, oq3 = stats(old[key])
        nq1, nmed, nq3 = stats(new[key])
        change = (nmed - omed) / omed if omed else 0.0
        bound, better = limits.get(name, (None, None))
        verdict = ""
        if bound is not None:
            worse = change if better == "lower" else -change
            spread = max((oq3 - oq1) / omed if omed else 0.0,
                         (nq3 - nq1) / nmed if nmed else 0.0)
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -spread:
                verdict = "better"
            else:
                verdict = "within bound"
        print("%-9s %-44s %-6s %14.6g %14.6g %+8.1f%% %6s  %s"
              % (w, name, units[name], omed, nmed, 100 * change,
                 "" if bound is None else "%.2f" % bound, verdict))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("runs", nargs="?", default=str(ROOT / ".perfbench"
                                                   / "runs.jsonl"))
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    else:
        show(args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
