// bench_sweep — the perf-trajectory baseline for the intra-rank hot path.
//
// Measures (1) full-batch gradient-sweep throughput (probes/sec) at one
// thread and at N threads through the BatchSweeper, and (2) single-thread
// Fft2D 256x256 forward+inverse throughput, then writes BENCH_sweep.json
// so successive PRs can be compared on the same machine.
//
// Every gate metric is a warmed best-of-N measurement (see
// bench::best_of_seconds): on shared runners interference only adds time,
// so the fastest repeat is the comparable number.
//
// A/B columns quantify per-backend numbers (scalar vs SIMD kernel
// tables), the work-stealing scheduler, tracing overhead, the sync vs
// async checkpoint pipeline, and the strict-vs-fast precision tier (FMA
// tables + f16-compact measurement storage, self-gated by the
// cost-trajectory comparator). A `provenance` object (host, cores, compiler) records
// where the JSON was produced — numbers are only comparable within one
// host.
//
//   bench_sweep [--spec tiny|small] [--threads N] [--repeat R]
//               [--fft-iters N] [--backend scalar|simd|auto]
//               [--out BENCH_sweep.json]
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "backend/kernels.hpp"
#include "bench_util.hpp"
#include "ckpt/snapshot.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/precision.hpp"
#include "core/serial_solver.hpp"
#include "core/sweep.hpp"
#include "data/simulate.hpp"
#include "data/synthetic.hpp"
#include "fft/fft2d.hpp"
#include "physics/multislice.hpp"
#include "tensor/compact.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace ptycho;

namespace {

/// Probes/sec sweeping every probe of `dataset`: best of `repeat` full
/// sweeps on `threads` through `schedule`, after one untimed warm-up
/// sweep.
double sweep_rate(const Dataset& dataset, int threads, int repeat,
                  SweepSchedule schedule = SweepSchedule::kStatic) {
  GradientEngine engine(dataset);
  ThreadPool pool(threads);
  const std::unique_ptr<SweepScheduler> scheduler = make_sweep_scheduler(schedule, pool);
  BatchSweeper sweeper(engine, *scheduler);
  FramedVolume volume = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  AccumulationBuffer accbuf(dataset.spec.slices, volume.frame);
  Probe probe = dataset.probe.clone();
  const index_t probes = dataset.probe_count();
  const auto id_of = [](index_t item) { return item; };
  const auto meas_of = [&](index_t item) {
    return dataset.measurements[static_cast<usize>(item)].view();
  };
  double cost = 0.0;
  const double seconds = bench::best_of_seconds(/*warmup=*/1, repeat, [&] {
    sweeper.sweep(0, probes, probe, volume, accbuf, cost, nullptr, id_of, meas_of);
    accbuf.reset();
  });
  return static_cast<double>(probes) / seconds;
}

/// End-to-end checkpointed reconstruction throughput (probes/sec) under
/// the given pipeline mode: a short full-batch serial run snapshotting at
/// every chunk boundary, so the sync column pays the shard I/O inline and
/// the async column overlaps it with the next chunks' sweeps. Best of
/// `repeat` after one warm-up; the checkpoint tree is wiped before every
/// run so each one writes the same bytes.
double pipeline_rate(const Dataset& dataset, int threads, int repeat, PipelineMode mode,
                     const std::string& ckpt_dir) {
  SerialConfig config;
  config.iterations = 2;
  config.chunks_per_iteration = 4;
  config.mode = UpdateMode::kFullBatch;
  config.exec.threads = threads;
  config.exec.schedule = SweepSchedule::kStatic;
  config.exec.pipeline = mode;
  config.record_cost = false;
  config.exec.checkpoint = ckpt::Policy{ckpt_dir, 1};
  const index_t probes = dataset.probe_count() * config.iterations;
  const double seconds = bench::best_of_seconds(/*warmup=*/1, repeat, [&] {
    std::filesystem::remove_all(ckpt_dir);
    (void)reconstruct_serial(dataset, config);
  });
  std::filesystem::remove_all(ckpt_dir);
  return static_cast<double>(probes) / seconds;
}

/// Span-derived comm/IO overlap ratio of one traced async checkpointed
/// run (obs::comm_overlap over the tracer snapshot): the fraction of
/// checkpoint/comm/wait time hidden under compute. ~0 for sync pipelines.
double async_overlap_ratio(const Dataset& dataset, int threads, const std::string& ckpt_dir) {
  SerialConfig config;
  config.iterations = 2;
  config.chunks_per_iteration = 4;
  config.mode = UpdateMode::kFullBatch;
  config.exec.threads = threads;
  config.exec.schedule = SweepSchedule::kStatic;
  config.exec.pipeline = PipelineMode::kAsync;
  config.record_cost = false;
  config.exec.checkpoint = ckpt::Policy{ckpt_dir, 1};
  std::filesystem::remove_all(ckpt_dir);
  obs::Tracer::instance().clear();
  obs::set_tracing_enabled(true);
  (void)reconstruct_serial(dataset, config);
  obs::set_tracing_enabled(false);
  const obs::OverlapStats stats = obs::comm_overlap(obs::Tracer::instance().snapshot());
  obs::Tracer::instance().clear();
  std::filesystem::remove_all(ckpt_dir);
  return stats.ratio();
}

/// Fast-tier sweep rate: the same full-batch sweep as sweep_rate but with
/// the FMA dispatch column active and the measurement stack held f16
/// compact (decoded per item into workspace scratch) — the
/// `--precision fast` hot path. Restores the strict tier on exit.
double sweep_rate_fast(const Dataset& dataset, int threads, int repeat) {
  backend::set_precision(backend::Precision::kFast);
  GradientEngine engine(dataset);
  ThreadPool pool(threads);
  const std::unique_ptr<SweepScheduler> scheduler =
      make_sweep_scheduler(SweepSchedule::kStatic, pool);
  BatchSweeper sweeper(engine, *scheduler, compact::Format::kF16);
  const compact::FrameStack compact_meas(dataset.measurements, compact::Format::kF16);
  sweeper.set_compact_measurements(&compact_meas);
  FramedVolume volume = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  AccumulationBuffer accbuf(dataset.spec.slices, volume.frame);
  Probe probe = dataset.probe.clone();
  const index_t probes = dataset.probe_count();
  const auto id_of = [](index_t item) { return item; };
  const auto meas_of = [&](index_t item) {
    return dataset.measurements[static_cast<usize>(item)].view();
  };
  double cost = 0.0;
  const double seconds = bench::best_of_seconds(/*warmup=*/1, repeat, [&] {
    sweeper.sweep(0, probes, probe, volume, accbuf, cost, nullptr, id_of, meas_of);
    accbuf.reset();
  });
  backend::set_precision(backend::Precision::kStrict);
  return static_cast<double>(probes) / seconds;
}

/// The fast-tier tolerance comparator, run as a self-gating A/B: max
/// per-iteration relative cost deviation of a `--precision fast` serial
/// reconstruction against the strict trajectory, both continued from one
/// strict warm-up iteration (cold starts gate gradient chaos, not
/// numerics — see tests/test_precision.cpp). Aborts the bench when the
/// deviation exceeds the documented 1e-3 gate.
double fast_cost_deviation(const Dataset& dataset) {
  const auto run = [&](const PrecisionPolicy& policy, int iterations,
                       const FramedVolume* initial) {
    SerialConfig config;
    config.iterations = iterations;
    config.step = real(0.1);
    config.mode = UpdateMode::kFullBatch;
    config.exec.precision = policy;
    apply_precision(policy);
    return reconstruct_serial(dataset, config, initial);
  };
  const SerialResult head = run(PrecisionPolicy{}, 1, nullptr);
  const SerialResult strict = run(PrecisionPolicy{}, 4, &head.volume);
  const SerialResult fast = run(parse_precision("fast"), 4, &head.volume);
  apply_precision(PrecisionPolicy{});
  const TrajectoryDeviation dev =
      compare_cost_trajectories(fast.cost.values(), strict.cost.values());
  PTYCHO_CHECK(dev.within(1e-3), "--precision fast failed the tolerance gate: deviation "
                                     << dev.max_relative << " at iteration "
                                     << dev.worst_iteration << " (gate 1e-3)");
  return dev.max_relative;
}

/// Resident MB of the compact (f16) transmittance cache after one cached
/// potential-model evaluation: the encoded per-slice planes plus the one
/// shared decode scratch plane. The strict f32 cache for the same
/// geometry is 2x the plane payload with no scratch.
double transmittance_cache_mb() {
  DatasetSpec spec = repro_tiny_spec();
  spec.model.model = ObjectModel::kPotential;
  const Dataset potential = make_synthetic_dataset(spec, SpecimenParams{}, AcquisitionParams{});
  GradientEngine engine(potential);
  MultisliceWorkspace ws = engine.make_workspace(compact::Format::kF16);
  ws.cache_transmittance = true;
  const FramedVolume volume = make_vacuum_volume(potential.field(), potential.spec.slices);
  (void)engine.probe_cost(0, volume, ws);
  double bytes = static_cast<double>(ws.trans_scratch.rows()) *
                 static_cast<double>(ws.trans_scratch.cols()) * sizeof(cplx);
  for (const auto& plane : ws.trans_c) {
    bytes += static_cast<double>(plane.size()) * sizeof(std::uint16_t);
  }
  PTYCHO_CHECK(!ws.trans_c.empty() && !ws.trans_c.front().empty(),
               "compact transmittance cache did not engage");
  return bytes / 1e6;
}

struct FftResult {
  double us_per_pair = 0.0;
  double mb_per_sec = 0.0;
};

/// Single-thread 256x256 forward+inverse pairs (best of `repeat` blocks of
/// `iters` pairs); MB/s counts bytes touched (2 passes over the field per
/// pair). The transforms dispatch through the active kernel table.
FftResult fft_rate(int iters, int repeat) {
  const index_t n = 256;
  fft::Fft2D plan(static_cast<usize>(n), static_cast<usize>(n));
  CArray2D field(n, n);
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < n; ++x) {
      field(y, x) = cplx(real(0.5) + static_cast<real>(x % 7), static_cast<real>(y % 5));
    }
  }
  const auto pairs = [&] {
    for (int i = 0; i < iters; ++i) {
      plan.forward(field.view());
      plan.inverse(field.view());
    }
  };
  // One warm-up block covers first-touch scratch allocation; dividing the
  // 10-pair legacy warmup out keeps run time comparable.
  for (int i = 0; i < 10; ++i) {
    plan.forward(field.view());
    plan.inverse(field.view());
  }
  const double seconds = bench::best_of_seconds(/*warmup=*/0, repeat, pairs);
  FftResult out;
  out.us_per_pair = seconds / iters * 1e6;
  out.mb_per_sec = 2.0 * iters * static_cast<double>(n) * static_cast<double>(n) *
                   sizeof(cplx) / seconds / 1e6;
  return out;
}

struct KernelRates {
  double cmul_mb_per_sec = 0.0;
  double butterfly4_mb_per_sec = 0.0;
};

/// Throughput of the two hottest backend primitives on one table, MB/s of
/// bytes moved (reads + writes). 4096 lanes fits L1/L2 so this measures
/// the kernel, not DRAM.
KernelRates kernel_rates(const backend::Kernels& kern, int repeat) {
  const usize n = 4096;
  const int iters = 20000;
  std::vector<cplx> a(n), b(n), c(n), d(n), dst(n);
  for (usize i = 0; i < n; ++i) {
    a[i] = cplx(real(0.25) + static_cast<real>(i % 7), static_cast<real>(i % 5) - real(2));
    b[i] = cplx(static_cast<real>(i % 3) - real(1), real(0.5));
    c[i] = cplx(real(0.5), static_cast<real>(i % 11) - real(5));
    d[i] = cplx(static_cast<real>(i % 13) - real(6), real(-0.75));
  }
  KernelRates out;
  {
    const double seconds = bench::best_of_seconds(/*warmup=*/1, repeat, [&] {
      for (int i = 0; i < iters; ++i) kern.cmul_lanes(dst.data(), a.data(), b.data(), n);
    });
    out.cmul_mb_per_sec =
        3.0 * iters * static_cast<double>(n) * sizeof(cplx) / seconds / 1e6;
  }
  {
    // The strided FFT's butterfly (butterfly4_lanes, unit-magnitude
    // twiddles) at most quadruples signal energy per application (amplitude
    // x 2), so run it in blocks of 50 from a pristine copy — the resets stay
    // outside the timed regions and values stay finite.
    const cplx w1(real(0.92387953), real(-0.38268343));
    const cplx w2(real(0.98078528), real(-0.19509032));
    const cplx w3(real(0.83146961), real(-0.55557023));
    const std::vector<cplx> a0 = a;
    const std::vector<cplx> b0 = b;
    const std::vector<cplx> c0 = c;
    const std::vector<cplx> d0 = d;
    const int block = 50;
    const int blocks = iters / block;
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < std::max(1, repeat); ++rep) {
      double seconds = 0.0;
      for (int blk = 0; blk < blocks; ++blk) {
        a = a0;
        b = b0;
        c = c0;
        d = d0;
        WallTimer timer;
        for (int i = 0; i < block; ++i) {
          kern.butterfly4_lanes(a.data(), b.data(), c.data(), d.data(), w1, w2, w3, false, n);
        }
        seconds += timer.seconds();
      }
      best = std::min(best, seconds);
    }
    out.butterfly4_mb_per_sec =
        8.0 * blocks * block * static_cast<double>(n) * sizeof(cplx) / best / 1e6;
  }
  return out;
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string hostname_string() {
  char host[256] = {0};
  if (gethostname(host, sizeof host - 1) != 0) return "unknown";
  return host;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);  // argv[0] is skipped by parse
  const std::string spec = opts.get_string("spec", "tiny");
  const int hw = ThreadPool::hardware_threads();
  // --threads/--backend (and the rest of the execution flags) go through
  // the same parser as the CLI, so the two front-ends cannot drift.
  const ExecOptions exec = parse_exec_options(opts);
  const int threads = exec.threads != 0 ? exec.threads : std::max(4, hw);
  const int repeat = static_cast<int>(opts.get_int("repeat", 3));
  const int fft_iters = static_cast<int>(opts.get_int("fft-iters", 200));
  const std::string out = opts.get_string("out", "BENCH_sweep.json");
  const std::string backend_flag = exec.backend;
  if (!backend_flag.empty()) {
    PTYCHO_CHECK(backend::select(backend_flag),
                 "--backend " << backend_flag << " is not available on this machine");
  }
  const std::string active_backend = backend::active_name();
  std::printf("kernel backend: %s (simd %savailable)\n", active_backend.c_str(),
              backend::simd_available() ? "" : "un");

  std::printf("building %s dataset...\n", spec.c_str());
  const Dataset dataset = bench::build_repro_dataset(spec);
  std::printf("sweep: %lld probes, best of %d\n",
              static_cast<long long>(dataset.probe_count()), repeat);

  const double rate_1t = sweep_rate(dataset, 1, repeat);
  std::printf("  1 thread : %8.1f probes/s\n", rate_1t);
  const double rate_nt = sweep_rate(dataset, threads, repeat);
  std::printf("  %d threads: %8.1f probes/s (%.2fx)\n", threads, rate_nt, rate_nt / rate_1t);

  // Static-vs-work-stealing A/B on the same pool sizes. At 1 thread the
  // schedulers run the identical sequential fast path, so `ws` doubles as
  // a sanity column (within noise of static); at N threads the delta is
  // the stealing overhead vs the load-balance win.
  const double rate_1t_ws = sweep_rate(dataset, 1, repeat, SweepSchedule::kWorkStealing);
  std::printf("  1 thread ws: %8.1f probes/s (vs static %.2fx)\n", rate_1t_ws,
              rate_1t_ws / rate_1t);
  const double rate_nt_ws = sweep_rate(dataset, threads, repeat, SweepSchedule::kWorkStealing);
  std::printf("  %d threads ws: %8.1f probes/s (vs static %.2fx)\n", threads, rate_nt_ws,
              rate_nt_ws / rate_nt);

  // Traced-vs-untraced A/B: the same 1-thread sweep with the telemetry
  // flags on (spans + counters live). The untraced column above is the
  // regression-gated number; this one bounds what --trace-out costs and
  // guards the "disabled instrumentation is a cached-flag branch" claim.
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  const double rate_1t_traced = sweep_rate(dataset, 1, repeat);
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  obs::Tracer::instance().clear();
  obs::registry().reset();
  std::printf("  1 thread traced: %8.1f probes/s (overhead %.1f%%)\n", rate_1t_traced,
              (rate_1t / rate_1t_traced - 1.0) * 100.0);

  // Sync-vs-async pipeline A/B: the same checkpoint-every-chunk serial
  // reconstruction with shard writes inline (sync) or on the background
  // slot (async — bitwise-identical output, see test_async_pipeline). The
  // overlap ratio is the span-derived fraction of checkpoint/comm time
  // hidden under compute during the async run.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "ptycho_bench_sweep_ckpt").string();
  const double rate_sync_ckpt = pipeline_rate(dataset, threads, repeat,
                                              PipelineMode::kSync, ckpt_dir);
  const double rate_async = pipeline_rate(dataset, threads, repeat,
                                          PipelineMode::kAsync, ckpt_dir);
  const double overlap_ratio = async_overlap_ratio(dataset, threads, ckpt_dir);
  std::printf("pipeline ckpt sync %8.1f probes/s vs async %8.1f probes/s (%.2fx, overlap %.2f)\n",
              rate_sync_ckpt, rate_async, rate_async / rate_sync_ckpt, overlap_ratio);

  // Strict-vs-fast tier A/B: the same 1-thread sweep with the FMA
  // dispatch column active and f16-compact measurement frames (the
  // `--precision fast` hot path), self-gated by the warm-started cost
  // trajectory comparator so a fast number that drifted past the 1e-3
  // tolerance can never be published. The footprint column records the
  // compact transmittance cache so it cannot silently grow back to f32.
  const double rate_1t_fast = sweep_rate_fast(dataset, 1, repeat);
  std::printf("  1 thread fast: %8.1f probes/s (vs strict %.2fx)\n", rate_1t_fast,
              rate_1t_fast / rate_1t);
  const double fast_dev = fast_cost_deviation(dataset);
  std::printf("  fast cost deviation: %.2e (gate 1e-3)\n", fast_dev);
  const double trans_cache_mb = transmittance_cache_mb();
  std::printf("  compact transmittance cache: %.3f MB\n", trans_cache_mb);
  KernelRates kr_fma;
  const bool have_fma = backend::fma_available();
  if (have_fma) {
    kr_fma = kernel_rates(*backend::fma_kernels(), repeat);
    std::printf("kernels (%s): cmul %.0f MB/s, butterfly4 %.0f MB/s\n",
                backend::fma_kernels()->name, kr_fma.cmul_mb_per_sec,
                kr_fma.butterfly4_mb_per_sec);
  }

  const FftResult fft = fft_rate(fft_iters, repeat);
  std::printf("fft 256x256 fwd+inv (%s): %.1f us/pair, %.1f MB/s\n", active_backend.c_str(),
              fft.us_per_pair, fft.mb_per_sec);

  // Per-backend comparison: kernel primitives against each table directly,
  // plus the full 2-D FFT with the dispatch temporarily forced. Restore
  // the requested backend afterwards so the numbers above stay honest.
  const KernelRates kr_scalar = kernel_rates(backend::scalar_kernels(), repeat);
  std::printf("kernels (scalar): cmul %.0f MB/s, butterfly4 %.0f MB/s\n",
              kr_scalar.cmul_mb_per_sec, kr_scalar.butterfly4_mb_per_sec);
  KernelRates kr_simd;
  FftResult fft_scalar;
  FftResult fft_simd;
  const bool have_simd = backend::simd_available();
  // The top-level FFT number already covers whichever backend was active;
  // only the other table needs a fresh measurement.
  if (active_backend == "scalar") {
    fft_scalar = fft;
  } else {
    backend::select("scalar");
    fft_scalar = fft_rate(fft_iters, repeat);
  }
  if (have_simd) {
    kr_simd = kernel_rates(*backend::simd_kernels(), repeat);
    std::printf("kernels (%s)  : cmul %.0f MB/s (%.2fx), butterfly4 %.0f MB/s (%.2fx)\n",
                backend::simd_kernels()->name, kr_simd.cmul_mb_per_sec,
                kr_simd.cmul_mb_per_sec / kr_scalar.cmul_mb_per_sec,
                kr_simd.butterfly4_mb_per_sec,
                kr_simd.butterfly4_mb_per_sec / kr_scalar.butterfly4_mb_per_sec);
    if (active_backend == backend::simd_kernels()->name) {
      fft_simd = fft;
    } else {
      backend::select("simd");
      fft_simd = fft_rate(fft_iters, repeat);
    }
    std::printf("fft 256x256 scalar %.1f MB/s vs simd %.1f MB/s (%.2fx)\n",
                fft_scalar.mb_per_sec, fft_simd.mb_per_sec,
                fft_simd.mb_per_sec / fft_scalar.mb_per_sec);
  }
  backend::select(backend_flag.empty() ? "auto" : backend_flag);

  std::ofstream json(out);
  PTYCHO_CHECK(json.good(), "cannot open " << out);
  json << "{\n"
       << "  \"bench\": \"bench_sweep\",\n"
       << "  \"spec\": \"" << spec << "\",\n"
       << "  \"provenance\": {\n"
       << "    \"host\": \"" << hostname_string() << "\",\n"
       << "    \"hardware_concurrency\": " << hw << ",\n"
       << "    \"compiler\": \"" << compiler_string() << "\",\n"
       << "    \"timing\": \"warmed best-of-" << repeat << "\"\n"
       << "  },\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"backend\": \"" << active_backend << "\",\n"
       << "  \"simd_backend\": \"" << (have_simd ? backend::simd_kernels()->name : "none")
       << "\",\n"
       << "  \"sweep_probes_per_sec_1t\": " << rate_1t << ",\n"
       << "  \"sweep_probes_per_sec_1t_traced\": " << rate_1t_traced << ",\n"
       << "  \"sweep_trace_overhead\": " << rate_1t / rate_1t_traced << ",\n"
       << "  \"sweep_probes_per_sec_nt\": " << rate_nt << ",\n"
       << "  \"sweep_speedup\": " << rate_nt / rate_1t << ",\n"
       << "  \"sweep_probes_per_sec_ws\": " << rate_1t_ws << ",\n"
       << "  \"sweep_probes_per_sec_ws_nt\": " << rate_nt_ws << ",\n"
       << "  \"sweep_ws_vs_static_1t\": " << rate_1t_ws / rate_1t << ",\n"
       << "  \"sweep_ws_vs_static_nt\": " << rate_nt_ws / rate_nt << ",\n"
       << "  \"sweep_probes_per_sec_1t_fast\": " << rate_1t_fast << ",\n"
       << "  \"sweep_fast_speedup\": " << rate_1t_fast / rate_1t << ",\n"
       << "  \"sweep_fast_cost_dev\": " << fast_dev << ",\n"
       << "  \"transmittance_cache_mb\": " << trans_cache_mb << ",\n"
       << "  \"cmul_mb_per_sec_fma\": " << (have_fma ? kr_fma.cmul_mb_per_sec : 0.0) << ",\n"
       << "  \"butterfly4_mb_per_sec_fma\": "
       << (have_fma ? kr_fma.butterfly4_mb_per_sec : 0.0) << ",\n"
       << "  \"sweep_probes_per_sec_sync_ckpt\": " << rate_sync_ckpt << ",\n"
       << "  \"sweep_probes_per_sec_async\": " << rate_async << ",\n"
       << "  \"sweep_async_vs_sync_ckpt\": " << rate_async / rate_sync_ckpt << ",\n"
       << "  \"sweep_async_overlap_ratio\": " << overlap_ratio << ",\n"
       << "  \"fft2d_256_us_per_pair\": " << fft.us_per_pair << ",\n"
       << "  \"fft2d_256_mb_per_sec\": " << fft.mb_per_sec << ",\n"
       << "  \"fft2d_256_mb_per_sec_scalar\": " << fft_scalar.mb_per_sec << ",\n"
       << "  \"fft2d_256_mb_per_sec_simd\": " << (have_simd ? fft_simd.mb_per_sec : 0.0)
       << ",\n"
       << "  \"cmul_mb_per_sec_scalar\": " << kr_scalar.cmul_mb_per_sec << ",\n"
       << "  \"cmul_mb_per_sec_simd\": " << (have_simd ? kr_simd.cmul_mb_per_sec : 0.0)
       << ",\n"
       << "  \"butterfly4_mb_per_sec_scalar\": " << kr_scalar.butterfly4_mb_per_sec << ",\n"
       << "  \"butterfly4_mb_per_sec_simd\": "
       << (have_simd ? kr_simd.butterfly4_mb_per_sec : 0.0) << "\n"
       << "}\n";
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
