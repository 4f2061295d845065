#!/usr/bin/env python3
"""Compare two sets of benchmark results written by ``perfbench/run.py``.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are result files or directories of them (run.py writes
``.perfbench/results/<workload>-seed<n>-trace<t>.json``).  The comparison is
refused (exit 2) when any two environment blocks differ -- for example a run
with numba against one without.  Otherwise it prints, per workload and metric,
each side's median over its runs and the change, and marks an end-to-end
metric that got worse by more than its BENCHMARK.json bound.  It also prints
each side's median ``failed_frac`` and marks MORE FAILURES when, over the runs
of one workload and seed found on both sides, the AFTER runs failed more of
the passes they share (same seed and pass, so the same inputs).  Exit code 1
means at least one regression of either kind.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) | {"file": str(f)} for f in files]


def medians(runs):
    """{(workload, trace): {metric: median value}}."""
    values = {}
    for run in runs:
        key = (run["detail"]["workload"], run["detail"]["trace"])
        for name, m in run["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return {key: {name: statistics.median(v) for name, v in ms.items()}
            for key, ms in values.items()}


def failures_on_shared_passes(before, after):
    """{(workload, trace): (before, after) failed ops} over the passes both sides ran."""
    runs = {(r["detail"]["workload"], r["detail"]["trace"], r["detail"]["seed"]):
            r["detail"]["failed_per_pass"] for r in before}
    totals = {}
    for run in after:
        d = run["detail"]
        old = runs.get((d["workload"], d["trace"], d["seed"]))
        if old is None:
            continue
        shared = min(len(old), len(d["failed_per_pass"]))
        x, y = totals.get((d["workload"], d["trace"]), (0, 0))
        totals[d["workload"], d["trace"]] = (x + sum(old[:shared]),
                                             y + sum(d["failed_per_pass"][:shared]))
    return totals


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("compare: no result files found", file=sys.stderr)
        return 2
    reference = before[0]
    for run in before + after:
        if run["environment"] != reference["environment"]:
            diff = sorted(k for k in run["environment"].keys() | reference["environment"].keys()
                          if run["environment"].get(k) != reference["environment"].get(k))
            print(f"compare: refused, environment of {run['file']} differs from "
                  f"{reference['file']} in {diff}", file=sys.stderr)
            return 2
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    a, b = medians(before), medians(after)
    failures = failures_on_shared_passes(before, after)
    regressed = False
    for key in sorted(a.keys() & b.keys()):
        print(f"{key[0]} (trace {key[1]})")
        frac = [statistics.median(r["detail"]["failed_frac"] for r in runs
                                  if (r["detail"]["workload"], r["detail"]["trace"]) == key)
                for runs in (before, after)]
        if key in failures:
            x, y = failures[key]
            mark = f"  shared passes {x} -> {y} failed" + ("  MORE FAILURES" if y > x else "")
            regressed |= y > x
        else:
            mark = "  no shared seeds"
        print(f"  {'failed_frac':32s} {frac[0]:14.6g} -> {frac[1]:14.6g}{mark}")
        for name in sorted(a[key].keys() & b[key].keys()):
            x, y = a[key][name], b[key][name]
            change = (y - x) / x if x else float("nan")
            mark = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                mark = f"  bound {bound:.0%}" + ("  REGRESSION" if worse > bound else "")
                regressed |= worse > bound
            print(f"  {name:32s} {x:14.6g} -> {y:14.6g}  {change:+8.2%}{mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
