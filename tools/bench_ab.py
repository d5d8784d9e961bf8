#!/usr/bin/env python3
"""The performance gate: a same-runner A/B of the end-to-end benchmark.

  python3 tools/bench_ab.py BASE_TREE HEAD_TREE

BASE_TREE and HEAD_TREE are two checkouts of this repository, typically
the merge base (`git worktree add ../base $(git merge-base HEAD main)`)
and the change under review. For every workload below the script runs

  python3 TREE/bench/e2e/run.py --workload W --seconds S --trace 0

in each tree, alternating between the two and flipping which tree goes
first each round, so drift of the host's speed lands on both sides
alike. Each run.py builds into its own tree's build-bench/; S is
BENCHMARK.json's run_seconds. The rounds of each side are merged into one
report (every metric's per-run values pooled and re-summarised, failed
and attempted runs summed), and BASE_TREE's bench/e2e/compare.py, with
BASE_TREE's BENCHMARK.json bounds, judges HEAD against BASE: a change
cannot widen the bound it is judged by. The exit status is compare.py's
(1 on any regressed or missing row), or 2 when a run left no report.

The merged reports and the verdict table go to HEAD_TREE/build-bench/ab/
(base.json, head.json, compare.txt).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench", "e2e"))

import analysis  # noqa: E402  (bench/e2e, on the path above)

# One workload per part of the pipeline a change can slow: the compute
# sweep (gd-small), the fast tier's FMA tables and spectral elision
# (gd-small-fast), sync and receive waits (gd-tiny-sync), the
# multi-process path over loopback TCP (gd-small-socket), and checkpoint
# I/O with no fabric (serial-small-ckpt). That is every workload
# BENCHMARK.json declares.
WORKLOADS = ("gd-small", "gd-small-fast", "gd-tiny-sync", "gd-small-socket",
             "serial-small-ckpt")

# Two rounds: each tree runs first once per workload, so neither side
# always gets the warmer (or the quieter) slot.
ROUNDS = 2


def merge(reports):
    """One report from several run.py reports of the same tree: per
    workload, each end-to-end metric's values concatenated and summarised
    again, and the failed and attempted run counts summed."""
    pooled = {}
    for report in reports:
        for name, entry in report["workloads"].items():
            out = pooled.setdefault(name, {"values": {}, "failures": [],
                                           "failed": 0, "attempted": 0})
            for metric, summary in entry.get("end_to_end", {}).items():
                out["values"].setdefault(metric, []).extend(summary["values"])
            out["failures"] += entry["failures"]
            out["failed"] += entry["failed"]
            out["attempted"] += entry["attempted"]
    workloads = {}
    for name, out in pooled.items():
        entry = {"failures": out["failures"], "failed": out["failed"],
                 "attempted": out["attempted"]}
        if out["values"]:
            entry["end_to_end"] = {metric: analysis.summary(values)
                                   for metric, values in out["values"].items()}
        workloads[name] = entry
    return {"schema": "ptycho.bench-e2e.v1",
            "provenance": [r.get("provenance") for r in reports],
            "workloads": workloads}


def run_once(tree, workload, seconds, out):
    """One run.py of `tree`; returns its report."""
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, os.path.join(tree, "bench", "e2e", "run.py"),
            "--workload", workload, "--seconds", str(seconds), "--trace", "0", "--out", out]
    print(f"bench_ab: {' '.join(argv)}", flush=True)
    # Exit 1 means some runs failed their checks; the report still counts
    # them, and compare.py turns a higher failure share into a regression.
    code = subprocess.run(argv, stdin=subprocess.DEVNULL, check=False).returncode
    if not os.path.isfile(out):
        raise RuntimeError(f"run.py in {tree} exited {code} without a report")
    with open(out) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    trees = {"base": os.path.abspath(argv[1]), "head": os.path.abspath(argv[2])}
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    out_dir = os.path.join(trees["head"], "build-bench", "ab")
    os.makedirs(out_dir, exist_ok=True)

    reports = {"base": [], "head": []}
    try:
        for r in range(ROUNDS):
            order = ("base", "head") if r % 2 == 0 else ("head", "base")
            for workload in WORKLOADS:
                for side in order:
                    out = os.path.join(out_dir, f"{side}-{workload}-{r}.json")
                    reports[side].append(run_once(trees[side], workload, seconds, out))
    except (RuntimeError, OSError, ValueError) as e:
        print(f"bench_ab: {e}", file=sys.stderr)
        return 2

    paths = {}
    for side, side_reports in reports.items():
        paths[side] = os.path.join(out_dir, f"{side}.json")
        with open(paths[side], "w") as f:
            json.dump(merge(side_reports), f, indent=1)
    result = subprocess.run([sys.executable,
                             os.path.join(trees["base"], "bench", "e2e", "compare.py"),
                             paths["base"], paths["head"]],
                            stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    with open(os.path.join(out_dir, "compare.txt"), "w") as f:
        f.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
