#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench_sweep JSON against the
committed baseline and fail when a guarded metric regressed by more than
the tolerance.

    check_bench_regression.py --baseline BENCH_sweep.json --fresh fresh.json \
        [--tolerance 0.25] [--keys sweep_probes_per_sec_1t,fft2d_256_mb_per_sec]

The guarded metrics default to the least noisy numbers bench_sweep
emits, each a warmed best-of-N measurement, so a tolerance as tight as
25% is meaningful on shared CI runners:

  sweep_probes_per_sec_1t, fft2d_256_mb_per_sec
      the single-thread gradient sweep and 256x256 FFT pair: the hot path;
  sweep_probes_per_sec_ws
      the work-stealing scheduler (at 1 thread it must stay within noise
      of the static path);
  sweep_probes_per_sec_1t_traced
      the telemetry-on sweep, so span tracing + metrics cannot silently
      become expensive;
  sweep_probes_per_sec_{sync_ckpt,async}
      the checkpointed end-to-end pipeline in both scheduling modes (async
      regressing toward or below sync means the background slot stopped
      hiding the shard I/O);
  sweep_speedup
      the N-thread sweep over the 1-thread one (see below);
  sweep_probes_per_sec_1t_fast, cmul_mb_per_sec_fma, transmittance_cache_mb
      the --precision fast path: the end-to-end FMA + compact-storage
      sweep, the FMA kernel table directly, and a lower-is-better
      footprint (the compact cache growing back toward f32 size is a
      regression even if throughput holds).

Multi-thread speedup columns (sweep_speedup and friends) are guarded
only when neither run was produced on a 1-core host: there
(provenance.hardware_concurrency == 1) the "speedup" is pure scheduling
noise around 1.0, so those keys are skipped with an annotation instead
of being silently compared.

A guarded key missing from the fresh file fails the gate: a column that
bench_sweep stopped emitting must not read as a pass. A key missing only
from the baseline is reported and skipped, so adding a metric to
bench_sweep never breaks an older baseline.

Exit status: 0 when every guarded metric is within tolerance, 1 otherwise.
"""

import argparse
import json
import sys

DEFAULT_KEYS = (
    "sweep_probes_per_sec_1t,fft2d_256_mb_per_sec,"
    "sweep_probes_per_sec_ws,sweep_probes_per_sec_1t_traced,"
    "sweep_probes_per_sec_sync_ckpt,sweep_probes_per_sec_async,"
    "sweep_speedup,"
    "sweep_probes_per_sec_1t_fast,cmul_mb_per_sec_fma,transmittance_cache_mb"
)

# Metrics that only mean anything when more than one core was available to
# the run that produced the baseline.
MULTITHREAD_SPEEDUP_KEYS = {
    "sweep_speedup",
    "sweep_probes_per_sec_nt",
    "sweep_probes_per_sec_ws_nt",
    "sweep_ws_vs_static_nt",
}

# Metrics where smaller is better (footprints); the gate fails when they
# GROW by more than the tolerance.
LOWER_IS_BETTER_KEYS = {"transmittance_cache_mb"}


def cores(doc: dict) -> int:
    try:
        return int(doc.get("provenance", {}).get("hardware_concurrency", 0))
    except (TypeError, ValueError):
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_sweep.json")
    parser.add_argument("--fresh", required=True, help="JSON from the CI bench run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="maximum allowed fractional regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--keys",
        default=DEFAULT_KEYS,
        help="comma-separated metrics to guard (higher-is-better unless known otherwise)",
    )
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)

    # Either side having been produced on a 1-core host makes a thread
    # speedup comparison meaningless.
    single_core = cores(baseline) == 1 or cores(fresh) == 1

    failed = False
    compared = 0
    missing = []
    for key in [k for k in args.keys.split(",") if k]:
        if key in MULTITHREAD_SPEEDUP_KEYS and single_core:
            print(
                f"  SKIP {key}: provenance records a 1-core host — the multi-thread "
                "speedup is scheduling noise there, not a guarded metric"
            )
            continue
        if key not in fresh:
            print(f"  FAIL {key}: missing from fresh")
            missing.append(key)
            continue
        if key not in baseline:
            print(f"  SKIP {key}: missing from baseline")
            continue
        base, now = float(baseline[key]), float(fresh[key])
        if base <= 0:
            print(f"  SKIP {key}: non-positive baseline {base}")
            continue
        ratio = now / base
        if key in LOWER_IS_BETTER_KEYS:
            verdict = "OK" if ratio <= 1.0 + args.tolerance else "FAIL"
            direction = "(lower is better)"
        else:
            verdict = "OK" if ratio >= 1.0 - args.tolerance else "FAIL"
            direction = ""
        failed |= verdict == "FAIL"
        compared += 1
        print(f"  {verdict:4} {key}: baseline {base:.6g} -> fresh {now:.6g} ({ratio:.2f}x){direction}")

    if missing:
        print(
            f"bench regression gate FAILED: guarded metric(s) {', '.join(missing)} missing\n"
            "from the fresh JSON. If a column was deliberately retired, drop it from\n"
            "DEFAULT_KEYS (and from BENCH_sweep.json) in the same change."
        )
        return 1
    if compared == 0:
        # All-skip means the gate compared nothing — a renamed metric or a
        # truncated JSON must not read as a pass.
        print("bench regression gate FAILED: no guarded metric present in both files")
        return 1
    if failed:
        print(
            f"bench regression gate FAILED (> {args.tolerance:.0%} drop). If the slowdown is\n"
            "intentional or the baseline hardware changed, regenerate BENCH_sweep.json with\n"
            "a Release build of bench_sweep and commit it alongside the change."
        )
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
