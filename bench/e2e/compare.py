#!/usr/bin/env python3
"""Compare two end-to-end benchmark reports against BENCHMARK.json bounds.

  python3 bench/e2e/compare.py BASE.json CHANGE.json

BASE and CHANGE are reports written by run.py (bench-e2e.json). For every
workload in both and every end-to-end metric of BENCHMARK.json, one row:
the two medians, the change, the allowed worsening and the run-to-run
spread (distance between the quartiles), and a verdict:

  regressed   the change's median is worse than the base's by more than
              the allowed amount: bound x base median, or the metric's
              absolute floor where that is larger
  improved    better by more than the allowed amount (when the spread is
              wider than that, only if every run of the change is better
              than every run of the base)
  unresolved  the spread of either side is wider than the allowed amount,
              so the bound cannot separate a change from noise
  unchanged   otherwise

A workload whose change report has more failed runs (as a share of runs
attempted) than its base is a regression too. Exits 1 on any regression.
"""

import argparse
import json
import os
import sys

import analysis

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Smallest change that counts, in the metric's unit: below it the clock
# and the process start dominate, whatever the relative bound says.
ABSOLUTE_FLOOR = {"setup_s": 0.002}


def verdict(base, change, bound, better, floor=0.0):
    """Classify one metric. `base` and `change` are the per-run samples.
    Returns (verdict, relative change where positive is worse, allowed
    worsening relative to the base median, larger relative spread)."""
    a = analysis.quartiles(base)[1]
    b = analysis.quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b - a) / a
    allowed = max(bound, floor / a)
    spread = max(analysis.relative_iqr(base), analysis.relative_iqr(change))
    if worse > allowed:
        return "regressed", worse, allowed, spread
    if spread > allowed:
        separated = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
        return ("improved" if separated else "unresolved"), worse, allowed, spread
    if -worse > allowed:
        return "improved", worse, allowed, spread
    return "unchanged", worse, allowed, spread


def compare(base, change, spec):
    """Rows of (workload, metric, base median, change median, verdict,
    relative worsening, allowed, spread) for every shared workload."""
    rows = []
    for workload, b_entry in base["workloads"].items():
        c_entry = change["workloads"].get(workload)
        if c_entry is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_runs = b_entry.get("end_to_end", {}).get(name)
            c_runs = c_entry.get("end_to_end", {}).get(name)
            if not b_runs or not c_runs:
                rows.append((workload, name, None, None, "missing", 0.0, 0.0, 0.0))
                continue
            result = verdict(b_runs["values"], c_runs["values"], metric["bound"],
                             metric["better"], ABSOLUTE_FLOOR.get(name, 0.0))
            rows.append((workload, name, b_runs["median"], c_runs["median"]) + result)
        b_ratio = b_entry["failed"] / max(1, b_entry["attempted"])
        c_ratio = c_entry["failed"] / max(1, c_entry["attempted"])
        rows.append((workload, "failed_runs_ratio", b_ratio, c_ratio,
                     "regressed" if c_ratio > b_ratio else "unchanged",
                     c_ratio - b_ratio, 0.0, 0.0))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.change) as f:
        change = json.load(f)

    rows = compare(base, change, spec)
    print(f"{'workload':<20} {'metric':<22} {'base':>12} {'change':>12} "
          f"{'worse':>8} {'allowed':>8} {'spread':>8}  verdict")
    for workload, name, a, b, status, worse, allowed, spread in rows:
        a_text = "-" if a is None else f"{a:.6g}"
        b_text = "-" if b is None else f"{b:.6g}"
        print(f"{workload:<20} {name:<22} {a_text:>12} {b_text:>12} "
              f"{worse:>+8.1%} {allowed:>8.1%} {spread:>8.1%}  {status}")
    failed = [r for r in rows if r[4] in ("regressed", "missing")]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
