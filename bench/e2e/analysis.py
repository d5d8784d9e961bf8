"""Statistics and trace analysis for the end-to-end benchmark (stdlib only).

Summary statistics follow one rule set: medians and quartiles as
statistics.quantiles(n=4) gives them, and a tail reported only at a
percentile that has at least ten samples beyond it.

The trace analysis reads the Chrome trace_event JSON that
`ptycho reconstruct --trace-out` writes. A span's self time is its
duration minus the part covered by its direct children on the same
thread lane. The pipeline's rank lane is one `chunk` span per chunk and
one `iteration-hooks` span per iteration; everything timed inside those
two is the step time the pipeline shares divide up.
"""

import json
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "tools"))

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) of the samples; a single sample is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, p):
    """Linear-interpolation percentile, p in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n sorted samples lie strictly beyond percentile p."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail(values):
    """(percentile, value) at the highest of TAIL_PERCENTILES that has at
    least TAIL_MIN_BEYOND samples beyond it. With too few samples for any
    of them the median stands in, labelled 50."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(values), p) >= TAIL_MIN_BEYOND:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def summary(values):
    """Median, quartiles and n of a sample set, as reported for every
    end-to-end metric."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


# ---- traces ---------------------------------------------------------------

# Which pipeline share a span's self time counts toward. Names are the
# program's span names (pipeline passes, fabric and checkpoint spans);
# any other span inside a step (the step containers themselves, fault
# points, probe refinement, progress) is unattributed.
CATEGORY = {
    "sweep": "sweep",
    "sweep-batch": "sweep",
    "sync": "sync",
    "isend": "sync",
    "recv-wait": "recv_wait",
    "barrier": "recv_wait",
    "update": "update",
    "sgd-undo": "update",
    "cost-record": "cost",
    "allreduce": "cost",
    "checkpoint": "checkpoint",
    "checkpoint-finalize": "checkpoint",
    "snapshot-write": "checkpoint",
    "snapshot-finalize": "checkpoint",
    "pass-wait": "checkpoint",
}
SHARES = ("sweep", "sync", "recv_wait", "update", "cost", "checkpoint", "unattributed")
STEP_ROOTS = ("chunk", "iteration-hooks")


def load_spans(path):
    """Complete ("X") events of a trace file as dicts with name, start,
    end (microseconds), pid and tid."""
    with open(path, "r", encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    return [
        {
            "name": e["name"],
            "start": float(e["ts"]),
            "end": float(e["ts"]) + float(e["dur"]),
            "pid": e["pid"],
            "tid": e["tid"],
        }
        for e in events
        if e.get("ph") == "X"
    ]


def nest(spans):
    """Give every span a `parent` (index into spans, or None) and a `self`
    time, per (pid, tid) lane. The parent is the innermost span open at
    the child's start; it loses only the part of the child inside its own
    interval. A child that runs past its parent's end therefore adds more
    self time than its parent lost, which step_breakdown() reports as a
    conservation error instead of hiding it."""
    lanes = {}
    for i, s in enumerate(spans):
        s["parent"] = None
        s["self"] = s["end"] - s["start"]
        lanes.setdefault((s["pid"], s["tid"]), []).append(i)
    for members in lanes.values():
        members.sort(key=lambda i: (spans[i]["start"], -spans[i]["end"]))
        stack = []
        for i in members:
            s = spans[i]
            while stack and s["start"] >= spans[stack[-1]]["end"]:
                stack.pop()
            if stack:
                parent = spans[stack[-1]]
                s["parent"] = stack[-1]
                parent["self"] -= min(s["end"], parent["end"]) - s["start"]
            stack.append(i)
    return spans


def _root(spans, i):
    while spans[i]["parent"] is not None:
        i = spans[i]["parent"]
    return i


def step_breakdown(spans):
    """Self time inside the pipeline's step spans, by share category.

    Returns (totals, step_us, self_sum_us, chunks): totals maps each of
    SHARES to microseconds, step_us is the summed duration of every
    `chunk` and `iteration-hooks` span, self_sum_us the summed self time
    of every span under them (equal to step_us when every child lies
    inside its parent), and chunks maps pid to its chunk durations.
    """
    nest(spans)
    totals = dict.fromkeys(SHARES, 0.0)
    step_us = 0.0
    self_sum = 0.0
    chunks = {}
    for i, s in enumerate(spans):
        if s["parent"] is None and s["name"] in STEP_ROOTS:
            step_us += s["end"] - s["start"]
            if s["name"] == "chunk":
                chunks.setdefault(s["pid"], []).append(s["end"] - s["start"])
        if spans[_root(spans, i)]["name"] not in STEP_ROOTS:
            continue
        totals[CATEGORY.get(s["name"], "unattributed")] += s["self"]
        self_sum += s["self"]
    return totals, step_us, self_sum, chunks


def hidden_io_ratio(spans):
    """Share of snapshot-write time that ran while the same rank was busy
    with other work, or None when nothing was written."""
    # The statistic tools/validate_trace.py gates in CI: its span set and
    # interval helpers are shared, not copied. Imported here, on use, so
    # that without the source tree run.py still starts and reports that.
    from validate_trace import BUSY_SPANS, IO_SPAN, interval_union, intersection_measure

    per_pid = {}
    for s in spans:
        if s["name"] == IO_SPAN:
            bucket = 1
        elif s["name"] in BUSY_SPANS:
            bucket = 0
        else:
            continue
        per_pid.setdefault(s["pid"], ([], []))[bucket].append((s["start"], s["end"]))
    io = hidden = 0.0
    for busy, writes in per_pid.values():
        writes = interval_union(writes)
        io += sum(end - start for start, end in writes)
        hidden += intersection_measure(interval_union(busy), writes)
    return hidden / io if io > 0 else None
