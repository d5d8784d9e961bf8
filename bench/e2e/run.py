#!/usr/bin/env python3
"""End-to-end reconstruction benchmark for the ptycho CLI.

Builds the repository in Release mode into build-bench/ (from
bench/e2e/CMakeLists.txt), generates each workload's inputs with
`ptycho simulate --seed N`, and drives `ptycho reconstruct` as one
closed-loop client: one reconstruction at a time, never more than four
threads or processes. Tracing stays off while the end-to-end metrics are
measured; a separate traced run and the isolated `bench_layers` timer
give the per-layer metrics. `bench_calibrate`, a fixed piece of 4-thread
FFT work that links nothing from the repository, runs between timed
reconstructions; the scaled metrics divide the host's speed drift out of
each run with the two calibrations around it. Every run's output is
checked (exit status, cost convergence, probe-update count, bitwise
determinism of the strict tier, transport parity, the fast tier's
tolerance against strict, and the recorded per-seed references in
references.json).

  python3 bench/e2e/run.py [--seed 42]            all workloads: warm-up,
                                                  10 timed runs each
                                                  (round-robin), 1 traced run
  python3 bench/e2e/run.py --quick                1 run per workload,
                                                  correctness only
  python3 bench/e2e/run.py --workload gd-small --seed 7 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --workload, metrics holds
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
of BENCHMARK.json; otherwise it holds every workload's end-to-end
medians as "<workload>/<metric>". The full report, with quartiles, n,
per-layer metrics and correctness details, goes to --out.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import time

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
WORK = os.path.join(BUILD, "work")
PTYCHO = os.path.join(BUILD, "ptycho", "ptycho")
BENCH_LAYERS = os.path.join(BUILD, "bench_layers")
BENCH_SPAWN = os.path.join(BUILD, "bench_spawn")
BENCH_CALIBRATE = os.path.join(BUILD, "bench_calibrate")

NPROC = 4
RUN_TIMEOUT_S = 60
MIN_TIMED_RUNS = 3
FULL_REPEATS = 10
REFERENCE_TOLERANCE = 1e-4  # final cost vs a recorded per-seed reference
FAST_TOLERANCE = 1e-3  # fast tier vs strict: the repository's tolerance gate
MIB = 1024.0 * 1024.0

GD = ["--method", "gd", "--ranks", "4", "--threads", "1"]
WARM_GD_SMALL = GD + ["--iterations", "16", "--resume", "warm.bin"]
SERIAL_CKPT = ["--method", "serial", "--mode", "full-batch", "--threads", "4",
               "--passes", "4", "--pipeline", "async", "--checkpoint-dir", "ckpt",
               "--checkpoint-every", "4"]

# Why each workload exists is documented in README.md. Keys:
#   spec        dataset spec passed to `ptycho simulate`
#   prep        "warm": a 1-iteration strict GD volume (warm.bin) to resume
#               from; "snapshot": an iteration-2 serial checkpoint tree
#               (ckpt0/), copied to ckpt/ before every run, plus its volume
#   args        reconstruct arguments after the dataset path
#   iterations  iterations each run performs (probe updates = probes x this)
#   twin        arguments of a strict in-process run of the same problem,
#               run once as the reference this workload is checked against
WORKLOADS = {
    "gd-small": {"spec": "small", "prep": "warm", "args": WARM_GD_SMALL, "iterations": 16},
    "gd-small-fast": {
        "spec": "small", "prep": "warm", "args": WARM_GD_SMALL + ["--precision", "fast"],
        "iterations": 16, "twin": WARM_GD_SMALL,
    },
    "gd-tiny-sync": {
        "spec": "tiny", "prep": None,
        "args": GD + ["--iterations", "1000", "--passes", "4"], "iterations": 1000,
    },
    "gd-small-socket": {
        "spec": "small", "prep": "warm",
        "args": ["--method", "gd", "--launch", "4", "--threads", "1", "--iterations", "16",
                 "--resume", "warm.bin"],
        "iterations": 16, "twin": WARM_GD_SMALL,
    },
    "serial-small-ckpt": {
        "spec": "small", "prep": "snapshot",
        "args": SERIAL_CKPT + ["--restore", "latest", "--iterations", "14"], "iterations": 12,
    },
}

# End-to-end summaries in the report that BENCHMARK.json does not gate.
REPORT_ONLY_UNITS = {"time_to_solution_s": "s", "unscaled_setup_s": "s",
                     "probe_updates_per_s": "1/s", "host_speed": "ratio"}

COST_LINE = re.compile(r"^cost (\S+) -> (\S+) \(", re.MULTILINE)


class BenchError(Exception):
    """A failure that leaves nothing to report (no build, no inputs)."""


# ---- processes ------------------------------------------------------------


def spawn(argv, cwd, log_path):
    """Run argv to completion through bench_spawn, stdout+stderr to
    log_path. Returns (exit_code, wall_seconds, max_rss_mib); the RSS is
    the largest of the process and every descendant it waited for."""
    out = subprocess.run([BENCH_SPAWN, str(RUN_TIMEOUT_S), log_path] + argv, cwd=cwd,
                         stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S + 30, check=False)
    if out.returncode != 0:
        raise BenchError(f"bench_spawn failed: {out.stderr.strip()}")
    code, seconds, rss_kib = out.stdout.split()
    return int(code), float(seconds), int(rss_kib) / 1024.0


def check_call(argv, cwd, what):
    code, _, _ = spawn(argv, cwd, os.path.join(cwd, "prep.log"))
    if code != 0:
        with open(os.path.join(cwd, "prep.log"), "r", errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        raise BenchError(f"{what} failed (exit {code}): {' '.join(argv)}")


def calibrate():
    """Seconds bench_calibrate's fixed work takes on the host right now."""
    out = subprocess.run([BENCH_CALIBRATE], stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise BenchError(f"bench_calibrate failed (exit {out.returncode}): {out.stderr.strip()}")
    return float(out.stdout.split()[0])


def free_port_block(count):
    """First port of `count` consecutive free loopback ports."""
    rng = random.Random(os.getpid() ^ time.time_ns())
    for _ in range(200):
        base = rng.randrange(20000, 60000 - count)
        socks = []
        try:
            for port in range(base, base + count):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise BenchError("no free block of loopback ports")


# ---- build ----------------------------------------------------------------


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no ptycho source tree at {ROOT}")
    # Compilers and the programs run later keep their temporary files in
    # the build tree too.
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC)])
    with open(log_path, "w") as log:
        for argv in steps:
            if subprocess.run(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, check=False).returncode != 0:
                log.flush()
                with open(log_path, "r", errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build failed: {' '.join(argv)}")


def provenance():
    compiler = "unknown"
    for entry in os.listdir(os.path.join(BUILD, "CMakeFiles")):
        path = os.path.join(BUILD, "CMakeFiles", entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                text = f.read()
            ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            compiler = f"{ident.group(1) if ident else '?'} {version.group(1) if version else '?'}"
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        rev = out.stdout.strip() or rev
    return {"host": os.uname().nodename, "nproc": os.cpu_count(), "compiler": compiler,
            "git_rev": rev}


# ---- one workload ---------------------------------------------------------


class Workload:
    """One workload's inputs, runs and checks for one seed."""

    def __init__(self, name, seed, references):
        self.name = name
        self.seed = seed
        self.config = WORKLOADS[name]
        self.work = os.path.join(WORK, name)
        self.reference = references.get(name, {}).get(str(seed))
        self.timed = []  # successful timed runs
        self.attempted = 0
        self.failures = []  # (run label, problem)
        self.expect_sha = None  # strict tier: every run must reproduce it
        self.expect_cost = None  # fast tier: the run-to-run cost
        self.twin_cost = None
        self.probes = 0

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        cfg = self.config
        check_call([PTYCHO, "simulate", "--spec", cfg["spec"], "--seed", str(self.seed),
                    "--out", "data.ptyd"], self.work, "simulate")
        check_call([PTYCHO, "info", "data.ptyd"], self.work, "info")
        with open(os.path.join(self.work, "prep.log")) as f:
            self.probes = int(re.search(r"^probes:\s+(\d+)", f.read(), re.MULTILINE).group(1))
        if cfg["prep"] == "warm":
            check_call([PTYCHO, "reconstruct", "data.ptyd"] + GD +
                       ["--iterations", "1", "--save-volume", "warm.bin"], self.work, "warm start")
        elif cfg["prep"] == "snapshot":
            check_call([PTYCHO, "reconstruct", "data.ptyd"] + SERIAL_CKPT +
                       ["--iterations", "2", "--save-volume", "warm.bin"], self.work,
                       "checkpoint prep")
            os.rename(os.path.join(self.work, "ckpt"), os.path.join(self.work, "ckpt0"))
        if "twin" in cfg:
            twin = self.run(cfg["twin"], "twin")
            if twin is not None:
                self.twin_cost = twin["final_cost"]
                if self.strict:
                    self.expect_sha = twin["sha256"]

    @property
    def strict(self):
        return "--precision" not in self.config["args"]

    def run(self, args, label, trace=False):
        """One reconstruction; returns its record, or None when it failed
        (the failure is recorded)."""
        self.attempted += 1
        if self.config["prep"] == "snapshot":
            shutil.rmtree(os.path.join(self.work, "ckpt"), ignore_errors=True)
            shutil.copytree(os.path.join(self.work, "ckpt0"), os.path.join(self.work, "ckpt"))
        argv = [PTYCHO, "reconstruct", "data.ptyd"] + args + [
            "--metrics-out", "metrics.json", "--save-volume", "out.bin"]
        if "--launch" in args:
            argv += ["--port-base", str(free_port_block(4))]
        if trace:
            argv += ["--trace-out", "trace.json"]
        for stale in ("metrics.json", "out.bin"):
            if os.path.exists(os.path.join(self.work, stale)):
                os.remove(os.path.join(self.work, stale))
        code, seconds, rss = spawn(argv, self.work, os.path.join(self.work, f"{label}.log"))
        record, problem = self.collect(code, seconds, rss, label, "--launch" in args)
        if problem is None and label != "twin":
            problem = self.compare(record["final_cost"], record["sha256"])
        if problem is not None:
            self.failures.append((label, problem))
            return None
        return record

    def collect(self, code, seconds, rss, label, launched):
        """The run's record, or the reason it is not a valid run."""
        if code != 0:
            return None, f"exit code {code}"
        with open(os.path.join(self.work, f"{label}.log"), "r", errors="replace") as f:
            match = COST_LINE.search(f.read())
        try:
            with open(os.path.join(self.work, "metrics.json")) as f:
                metrics = json.load(f)
            with open(os.path.join(self.work, "out.bin"), "rb") as f:
                sha = hashlib.sha256(f.read()).hexdigest()
        except (OSError, ValueError) as e:
            return None, f"missing output: {e}"
        if match is None:
            return None, "no cost line in the output"
        first, final = float(match.group(1)), float(match.group(2))
        counters, gauges = metrics["counters"], metrics["gauges"]
        wall = gauges.get("wall_seconds", 0.0)
        iterations = self.config["iterations"]
        updates = self.probes * iterations
        swept = counters.get("sweep_probes_total", 0)
        if not (math.isfinite(final) and final < first):
            return None, f"cost did not decrease ({first} -> {final})"
        if not 0 < wall < seconds:
            return None, f"implausible solve wall {wall} s"
        if launched:
            # Only rank 0 writes metrics under --launch: its count must be
            # whole iterations over a share of the probes.
            if swept % iterations != 0 or not 0 < swept <= updates:
                return None, f"rank-0 sweep_probes_total {swept} is not a share of {updates}"
        elif swept != updates:
            return None, f"sweep_probes_total {swept}, expected {updates}"
        return {
            "tts": seconds, "wall": wall, "rss": rss, "updates": updates,
            "final_cost": final, "sha256": sha,
            "counters": counters, "gauges": gauges,
        }, None

    def compare(self, final, sha):
        """Check a run against this workload's references; returns the
        problem or None. The first run of a set becomes the reference for
        the ones after it."""
        if self.strict:
            if self.expect_sha is None:
                self.expect_sha = sha
            elif sha != self.expect_sha:
                return "strict-tier volume is not bitwise equal to the reference run"
        else:
            if self.twin_cost is not None and \
                    abs(final - self.twin_cost) > FAST_TOLERANCE * self.twin_cost:
                return f"fast cost {final} outside {FAST_TOLERANCE} of strict {self.twin_cost}"
            if self.expect_cost is None:
                self.expect_cost = final
            elif abs(final - self.expect_cost) > REFERENCE_TOLERANCE * self.expect_cost:
                return f"fast cost {final} drifted from {self.expect_cost}"
        if self.reference:
            ref = self.reference["final_cost"]
            if abs(final - ref) > REFERENCE_TOLERANCE * ref:
                return f"final cost {final} vs reference {ref} for seed {self.seed}"
        return None

    def timed_run(self):
        """One timed reconstruction; its record (kept in self.timed) or
        None when it failed."""
        record = self.run(self.config["args"], f"run{self.attempted}")
        if record is not None:
            self.timed.append(record)
        return record

    # -- reporting ----------------------------------------------------------

    def end_to_end(self):
        """Summaries of every timed run: the BENCHMARK.json metrics, whose
        times are scaled to the reference host's speed (setup_s too), then
        the unscaled times and the host speed they were scaled by."""
        runs = self.timed
        return {
            "scaled_time_to_solution_s": analysis.summary([r["tts"] * r["speed"] for r in runs]),
            "setup_s": analysis.summary([(r["tts"] - r["wall"]) * r["speed"] for r in runs]),
            "scaled_probe_updates_per_s": analysis.summary(
                [r["updates"] / r["wall"] / r["speed"] for r in runs]),
            "peak_rss_mib": analysis.summary([r["rss"] for r in runs]),
            "time_to_solution_s": analysis.summary([r["tts"] for r in runs]),
            "unscaled_setup_s": analysis.summary([r["tts"] - r["wall"] for r in runs]),
            "probe_updates_per_s": analysis.summary([r["updates"] / r["wall"] for r in runs]),
            "host_speed": analysis.summary([r["speed"] for r in runs]),
        }

    def extras(self):
        runs = self.timed
        out = {"failed_runs_ratio": len(self.failures) / max(1, self.attempted)}
        if runs:
            final = [r["final_cost"] for r in runs]
            out["final_cost"] = analysis.quartiles(final)[1]
            mem = [r["gauges"]["mem_peak_bytes_mean"] / MIB for r in runs
                   if "mem_peak_bytes_mean" in r["gauges"]]
            if mem:
                out["peak_mem_mib_per_rank"] = analysis.quartiles(mem)[1]
        if self.reference and runs:
            ref = self.reference
            out["reference_final_cost"] = ref["final_cost"]
            out["final_cost_rel_dev"] = max(
                abs(r["final_cost"] - ref["final_cost"]) / ref["final_cost"] for r in runs)
            out["bitwise_matches"] = sum(r["sha256"] == ref.get("volume_sha256") for r in runs)
        if runs:
            out["volume_sha256"] = runs[0]["sha256"]
        return out

    def layers(self):
        """Per-layer metrics: one traced run for the in-situ numbers, then
        bench_layers on the same inputs for the isolated ones. Returns
        (metrics, extras) or None when either failed."""
        untraced_wall = analysis.quartiles([r["wall"] for r in self.timed])[1]
        record = self.run(self.config["args"], "traced", trace=True)
        if record is None:
            return None
        trace_path = os.path.join(self.work, "trace.json")
        spans = analysis.load_spans(trace_path)
        totals, step_us, self_sum, chunks = analysis.step_breakdown(spans)
        counters = record["counters"]
        wall_us = record["wall"] * 1e6
        n_chunks = sum(len(c) for c in chunks.values())
        all_chunks = [d for c in chunks.values() for d in c]
        tail_p, tail_us = analysis.tail(all_chunks)
        swept = counters["sweep_probes_total"]
        messages = counters.get("fabric_messages_total", 0)

        argv = [BENCH_LAYERS, "--dataset", "data.ptyd", "--scratch", "layers-scratch",
                "--trace-out", "layers-trace.json", "--precision", "strict" if self.strict else "fast"]
        if self.config["prep"]:
            argv += ["--volume", "warm.bin"]
        if messages:
            argv += ["--message-bytes", str(counters["fabric_bytes_total"] // messages)]
        code, _, _ = spawn(argv, self.work, os.path.join(self.work, "layers.log"))
        with open(os.path.join(self.work, "layers.log"), "r", errors="replace") as f:
            lines = f.read().strip().splitlines()
        if code != 0 or not lines:
            self.failures.append(("bench_layers", f"exit code {code}"))
            return None
        metrics = json.loads(lines[-1])

        # The isolated path the ranks actually run: the threaded full-batch
        # sweep, or the sequential SGD loop.
        isolated = ("sweep.ns_per_probe_nt" if "full-batch" in self.config["args"]
                    else "sweep.sgd_ns_per_probe")
        metrics.update({
            "fft.transforms_per_probe": counters["fft2d_transforms_total"] / swept,
            "sweep.insitu_over_isolated": totals["sweep"] * 1e3 / swept / metrics[isolated],
            "pipeline.coverage":
                sum(sum(c) for c in chunks.values()) / len(chunks) / wall_us,
            "pipeline.step_ms_p50": analysis.percentile(all_chunks, 50.0) / 1e3,
            "pipeline.step_ms_tail": tail_us / 1e3,
            "runtime.messages_per_step": messages / n_chunks,
            "runtime.kib_per_step": counters.get("fabric_bytes_total", 0) / 1024.0 / n_chunks,
            "obs.trace_overhead": record["wall"] / untraced_wall,
            "obs.trace_mib": os.path.getsize(trace_path) / MIB,
        })
        for share in analysis.SHARES:
            metrics[f"pipeline.{share}_share"] = totals[share] / step_us
        extras = {
            "pipeline.step_tail_percentile": tail_p,
            "pipeline.conservation_error": abs(self_sum - step_us) / step_us,
        }
        hidden = analysis.hidden_io_ratio(spans)
        if hidden is not None:
            extras["ckpt.hidden_ratio"] = hidden
        if counters.get("checkpoint_snapshots_total"):
            extras["ckpt.insitu_mib_per_snapshot"] = (
                counters["checkpoint_shard_bytes_total"]
                / counters["checkpoint_snapshots_total"] / MIB)
        return metrics, extras

    def cleanup(self):
        for big in ("ckpt", "ckpt0", "layers-scratch"):
            shutil.rmtree(os.path.join(self.work, big), ignore_errors=True)


# ---- the benchmark --------------------------------------------------------


def measure(names, seed, seconds, repeats, trace, warmup):
    """Prepare, warm up and run the named workloads round-robin. Stops after
    `repeats` rounds or, when repeats is None, once `seconds` have passed
    and every workload has MIN_TIMED_RUNS timed runs. A calibration runs
    before the first timed run and after each one; a run's host speed is
    the reference calibration time over the mean of the two around it."""
    with open(os.path.join(HERE, "references.json")) as f:
        references = json.load(f)
    reference_calibration = references["calibration"]["seconds"]
    workloads = [Workload(name, seed, references["correctness"]) for name in names]
    for w in workloads:
        w.prepare()
        if warmup:
            w.run(w.config["args"], "warmup")
    start = time.perf_counter()
    rounds = 0
    before = calibrate()
    while True:
        for w in workloads:
            record = w.timed_run()
            after = calibrate()
            if record is not None:
                record["speed"] = reference_calibration / ((before + after) / 2)
            before = after
        rounds += 1
        if repeats is not None and rounds >= repeats:
            break
        if repeats is None and rounds >= MIN_TIMED_RUNS and \
                time.perf_counter() - start >= seconds:
            break
    report = {}
    for w in workloads:
        entry = {"seed": seed, "failures": w.failures}
        if w.timed:
            entry["end_to_end"] = w.end_to_end()
            if trace:
                layers = w.layers()
                if layers is not None:
                    entry["per_layer"], layer_extras = layers
                    entry["extras"] = layer_extras
        entry.setdefault("extras", {}).update(w.extras())
        entry["failed"] = len(w.failures)
        entry["attempted"] = w.attempted
        report[w.name] = entry
        w.cleanup()
    return report


def print_report(report, spec):
    units = dict(REPORT_ONLY_UNITS)
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    for name, entry in report.items():
        print(f"{name} (seed {entry['seed']}): {entry['attempted']} runs attempted, "
              f"{entry['failed']} failed")
        for label, problem in entry["failures"]:
            print(f"  FAILED {label}: {problem}")
        for metric, s in entry.get("end_to_end", {}).items():
            print(f"  {metric:<28} {s['median']:>12.6g} {units[metric]:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
        for metric, value in sorted(entry.get("per_layer", {}).items()):
            print(f"  {metric:<34} {value:>12.6g} {units.get(metric, '')}")
        for key, value in sorted(entry.get("extras", {}).items()):
            print(f"  ({key}: {value if isinstance(value, str) else f'{value:.6g}'})")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds (default: all, 10 runs each)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed-run budget with --workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics too, and "
                             "they are what the summary line holds with --workload "
                             "(default: 1, or 0 with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="one run per workload, correctness checks only")
    parser.add_argument("--out", default=os.path.join(BUILD, "bench-e2e.json"))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        names = [args.workload] if args.workload else list(WORKLOADS)
        trace = args.trace == 1 if args.trace is not None else not args.quick
        repeats = 1 if args.quick else None if args.workload else FULL_REPEATS
        report = measure(names, args.seed, args.seconds, repeats, trace, not args.quick)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    with open(args.out, "w") as f:
        json.dump({"schema": "ptycho.bench-e2e.v1", "provenance": provenance(),
                   "workloads": report}, f, indent=1)
    print_report(report, spec)
    print(f"report written to {args.out}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for name, entry in report.items():
        if args.workload and trace:
            chosen = {m["name"]: entry.get("per_layer", {}).get(m["name"])
                      for m in spec["per_layer"]}
        else:
            chosen = {m["name"]: entry.get("end_to_end", {}).get(m["name"], {}).get("median")
                      for m in spec["end_to_end"]}
        for metric, value in chosen.items():
            if value is None:
                print(f"run.py: {name}: no value for {metric}", file=sys.stderr)
                return 1
            key = metric if args.workload else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    failed = sum(e["failed"] for e in report.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(e["attempted"] for e in report.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
