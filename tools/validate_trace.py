#!/usr/bin/env python3
"""Validate the observability artifacts a reconstruction emits.

Checks that --trace-out produced well-formed Chrome trace_event JSON
(loadable in Perfetto / chrome://tracing) with the expected span names on
every rank, and that --metrics-out produced a ptycho.metrics.v1 snapshot
with the documented keys. Run by the release-bench CI job on a smoke
reconstruction; exits nonzero with a message on the first violation.

With --expect-overlap, also computes a span-derived hidden-I/O ratio:
the fraction of background snapshot-write time that ran while the rank
lane was busy with other work (sweeps, gradient sync, updates, manifest
finalization) instead of extending the critical path. The rank lane's
pass-wait stalls — where it fenced on the very write being measured —
deliberately do NOT count as busy, so a "background" write the pipeline
immediately blocks on scores zero, and so would one that wrote every
shard inline on the rank lane; the gate fails when the
ratio is below the given minimum or when no snapshot-write span exists.
Busy means rank-lane activity of any phase, not compute alone: on the
1-2 core runners CI uses, a background writer only gets CPU while the
rank lane blocks in fabric waits, so intersecting with compute spans
would measure OS scheduling luck, while time hidden under rank-lane
activity is the invariant the pipeline executor guarantees.

Usage:
  python3 tools/validate_trace.py --trace trace.json --metrics metrics.json \
      --require-spans sweep,sync,update,checkpoint --ranks 2 \
      [--expect-overlap 0.05]
"""

import argparse
import json
import numbers
import sys

REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")

# Counters every instrumented reconstruction must report (gauges vary by
# solver, so only the universally set ones are required).
REQUIRED_METRIC_COUNTERS = (
    "sweep_probes_total",
    "fft2d_transforms_total",
    "fft2d_bytes_total",
)
REQUIRED_METRIC_GAUGES = ("wall_seconds",)
# Gauges that must also be positive: the process's own peak RSS, written
# when the session ends.
POSITIVE_METRIC_GAUGES = ("process_peak_rss_bytes",)


def fail(message):
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {what} {path!r}: {e}")


def validate_trace(path, require_spans, ranks):
    trace = load_json(path, "trace")
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail(f"{path}: not a trace_event JSON object (missing 'traceEvents')")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents is empty")

    spans_by_pid = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"{path}: traceEvents[{i}] is not an object")
        if event.get("ph") == "M":
            # Metadata events (process_name) carry no timestamp.
            if "name" not in event or "pid" not in event:
                fail(f"{path}: traceEvents[{i}] metadata missing name/pid")
            continue
        for field in REQUIRED_EVENT_FIELDS:
            if field not in event:
                fail(f"{path}: traceEvents[{i}] missing field {field!r}")
        if not isinstance(event["ts"], numbers.Number) or event["ts"] < 0:
            fail(f"{path}: traceEvents[{i}] has invalid ts {event['ts']!r}")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, numbers.Number) or dur < 0:
                fail(f"{path}: traceEvents[{i}] ('{event['name']}') has invalid dur {dur!r}")
            spans_by_pid.setdefault(event["pid"], set()).add(event["name"])
        elif event["ph"] != "i":
            fail(f"{path}: traceEvents[{i}] has unexpected ph {event['ph']!r}")

    if len(spans_by_pid) < ranks:
        fail(
            f"{path}: spans cover {len(spans_by_pid)} rank lane(s), expected >= {ranks} "
            f"(pids seen: {sorted(spans_by_pid)})"
        )
    for pid in sorted(spans_by_pid)[:ranks]:
        missing = [name for name in require_spans if name not in spans_by_pid[pid]]
        if missing:
            fail(
                f"{path}: rank {pid} is missing required span(s) {missing} "
                f"(has: {sorted(spans_by_pid[pid])})"
            )

    dropped = trace.get("otherData", {}).get("dropped_spans")
    if not isinstance(dropped, int):
        fail(f"{path}: otherData.dropped_spans missing or non-integer")
    n_spans = sum(len(v) for v in spans_by_pid.values())
    print(
        f"validate_trace: trace OK: {len(events)} events, "
        f"{len(spans_by_pid)} rank lane(s), {dropped} dropped"
    )


# Rank-lane spans that count as "busy" when measuring how much background
# snapshot I/O was hidden. Container spans (chunk, iteration-hooks,
# checkpoint-finalize) are excluded — they enclose the pass-wait stalls a
# fenced write causes, and counting them would hide the stall itself.
# pass-wait is the rank lane blocking ON the background write, so it is
# exactly the time that must NOT count as hidden.
BUSY_SPANS = frozenset(
    (
        "sweep",
        "sync",
        "update",
        "probe-refine",
        "cost-record",
        "fault-point",
        "progress",
        "snapshot-finalize",
        "allreduce",
    )
)
IO_SPAN = "snapshot-write"


def interval_union(intervals):
    """Sorted merge of [start, end) intervals into disjoint ones."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def intersection_measure(a, b):
    """Total length of the intersection of two disjoint-sorted interval sets."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def validate_overlap(path, minimum):
    """Gate the fraction of snapshot-write time hidden under rank-lane work."""
    trace = load_json(path, "trace")
    per_rank = {}  # pid -> (busy intervals, snapshot-write intervals)
    for event in trace.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        name = event.get("name")
        if name == IO_SPAN:
            bucket = 1
        elif name in BUSY_SPANS:
            bucket = 0
        else:
            continue
        start = float(event["ts"])
        per_rank.setdefault(event["pid"], ([], []))[bucket].append(
            (start, start + float(event["dur"]))
        )
    io = 0.0
    hidden = 0.0
    for busy_iv, io_iv in per_rank.values():
        busy_u = interval_union(busy_iv)
        io_u = interval_union(io_iv)
        io += sum(end - start for start, end in io_u)
        hidden += intersection_measure(busy_u, io_u)
    if io <= 0.0:
        fail(f"{path}: no '{IO_SPAN}' span found — nothing checkpointed, overlap gate is vacuous")
    ratio = hidden / io
    if ratio < minimum:
        fail(
            f"{path}: hidden-I/O ratio {ratio:.3f} below required {minimum:.3f} "
            f"(snapshot-write {io:.0f} us, hidden {hidden:.0f} us) — "
            "the async pipeline did not keep checkpoint I/O off the critical path"
        )
    print(
        f"validate_trace: overlap OK: {hidden:.0f} of {io:.0f} us snapshot-write "
        f"hidden under rank-lane work (ratio {ratio:.3f} >= {minimum:.3f})"
    )


def validate_recovery(path):
    """Gate the self-healing instrumentation: a run that recovered from a
    rank failure must have counted the failure, counted the restart, and
    timed the recovery."""
    metrics = load_json(path, "metrics")
    counters = metrics.get("counters", {})
    for key in (
        "runtime.recovery.rank_failures_total",
        "runtime.recovery.restarts_total",
    ):
        value = counters.get(key)
        if not isinstance(value, int) or value < 1:
            fail(f"{path}: counter {key!r} is {value!r}, expected >= 1 for a recovered run")
    latency = metrics.get("histograms", {}).get("runtime.recovery.latency_seconds")
    if not isinstance(latency, dict) or not isinstance(latency.get("count"), int):
        fail(f"{path}: histogram 'runtime.recovery.latency_seconds' missing for a recovered run")
    if latency["count"] < 1:
        fail(f"{path}: recovery latency histogram is empty — recovery was never timed")
    generation = metrics.get("gauges", {}).get("runtime.recovery.generation")
    if not isinstance(generation, numbers.Number) or generation < 1:
        fail(
            f"{path}: gauge 'runtime.recovery.generation' is {generation!r}, "
            "expected >= 1 after a restart"
        )
    print(
        "validate_trace: recovery OK: "
        f"{counters['runtime.recovery.rank_failures_total']} failure(s), "
        f"{counters['runtime.recovery.restarts_total']} restart(s), "
        f"latency count {latency['count']}, generation {generation:g}"
    )


def validate_metrics(path):
    metrics = load_json(path, "metrics")
    if metrics.get("schema") != "ptycho.metrics.v1":
        fail(f"{path}: schema is {metrics.get('schema')!r}, expected 'ptycho.metrics.v1'")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f"{path}: missing section {section!r}")
    counters = metrics["counters"]
    for key in REQUIRED_METRIC_COUNTERS:
        value = counters.get(key)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {key!r} missing or invalid ({value!r})")
        if value == 0:
            fail(f"{path}: counter {key!r} is zero — instrumentation did not fire")
    for key in REQUIRED_METRIC_GAUGES + POSITIVE_METRIC_GAUGES:
        value = metrics["gauges"].get(key)
        if not isinstance(value, numbers.Number):
            fail(f"{path}: gauge {key!r} missing or non-numeric ({value!r})")
        if key in POSITIVE_METRIC_GAUGES and not value > 0:
            fail(f"{path}: gauge {key!r} is {value!r}, expected > 0")
    for name, summary in metrics["histograms"].items():
        for field in ("count", "sum", "min", "max"):
            if not isinstance(summary.get(field), numbers.Number):
                fail(f"{path}: histogram {name!r} missing field {field!r}")
    print(
        f"validate_trace: metrics OK: {len(counters)} counters, "
        f"{len(metrics['gauges'])} gauges, {len(metrics['histograms'])} histograms"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace_event JSON to validate")
    parser.add_argument("--metrics", help="ptycho.metrics.v1 JSON to validate")
    parser.add_argument(
        "--require-spans",
        default="",
        help="comma-separated span names required on every rank lane",
    )
    parser.add_argument(
        "--ranks", type=int, default=1, help="minimum number of rank lanes expected"
    )
    parser.add_argument(
        "--expect-overlap",
        type=float,
        default=None,
        metavar="MIN",
        help="require the fraction of snapshot-write time hidden under rank-lane work >= MIN",
    )
    parser.add_argument(
        "--expect-recovery",
        action="store_true",
        help="require runtime.recovery.* metrics showing at least one healed rank failure",
    )
    args = parser.parse_args()
    if not args.trace and not args.metrics:
        parser.error("nothing to validate: pass --trace and/or --metrics")
    if args.expect_overlap is not None and not args.trace:
        parser.error("--expect-overlap requires --trace")
    if args.expect_recovery and not args.metrics:
        parser.error("--expect-recovery requires --metrics")

    require_spans = [s for s in args.require_spans.split(",") if s]
    if args.trace:
        validate_trace(args.trace, require_spans, args.ranks)
        if args.expect_overlap is not None:
            validate_overlap(args.trace, args.expect_overlap)
    if args.metrics:
        validate_metrics(args.metrics)
        if args.expect_recovery:
            validate_recovery(args.metrics)
    print("validate_trace: all checks passed")


if __name__ == "__main__":
    main()
