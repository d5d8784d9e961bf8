// bench_layers — isolated per-layer timings for the end-to-end benchmark.
//
// Loads one workload's generated inputs and times calls into each layer's
// public functions: dataset load (data), snapshot write/read (ckpt), the
// active table's complex multiply (backend), a 2-D FFT pair at the
// workload's probe size (fft), the per-probe gradient (physics), the sweep
// pass at 1 and 4 threads and on the SGD path (core), the f16 frame decode
// (compact), and a ring exchange plus a scalar allreduce over 4 ranks,
// in-process and over loopback sockets (runtime). Every number is the
// median of several timed repeats.
//
// The timer is its own span log: each repeat is a span (name, start, end,
// parent) kept in memory and written to --trace-out at exit, so every
// reported number can be traced back to the intervals it came from.
// Prints one JSON object of metrics as the last line of stdout.
//
//   bench_layers --dataset FILE [--volume FILE] [--precision strict|fast]
//                [--message-bytes B] --scratch DIR
//                [--trace-out layers-trace.json]
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ptycho.hpp"

using namespace ptycho;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// The benchmark's parallelism: 4 ranks, or 4 sweep threads in one process.
constexpr int kRanks = 4;
constexpr int kThreads = 4;

/// Spans of this process's own measurements, kept in memory until exit.
class SpanLog {
 public:
  /// RAII span, parented to the innermost open one.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] usize index() const { return index_; }

   private:
    SpanLog& log_;
    usize index_;
  };

  /// Run `fn` inside a span named `name`; returns its duration in seconds.
  template <class Fn>
  double time(const char* name, Fn&& fn) {
    usize index = 0;
    {
      const Scope scope(*this, name);
      index = scope.index();
      fn();
    }
    return spans_[index].seconds();
  }

  /// Chrome trace_event JSON (ts/dur in microseconds); args carry each
  /// span's index and its parent's (-1 for a root).
  void write(const std::string& path) const {
    std::ofstream out(path);
    PTYCHO_CHECK(out.good(), "cannot open " << path);
    out.precision(3);
    out << std::fixed << "{\"traceEvents\":[";
    for (usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":"
          << static_cast<double>(s.start_ns) / 1000.0
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
          << ",\"pid\":0,\"tid\":0,\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    PTYCHO_CHECK(out.good(), "failed writing " << path);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  static std::int64_t now_ns() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }

  usize open(std::string name) {
    const std::int64_t parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    stack_.push_back(spans_.size() - 1);
    return stack_.back();
  }
  void close(usize index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<usize> stack_;
};

/// Linear-interpolation percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> v, double p) {
  PTYCHO_CHECK(!v.empty(), "percentile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = static_cast<double>(v.size() - 1) * p / 100.0;
  const auto lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Median seconds of `repeats` timed calls of `fn`, each its own span
/// under one group span named `layer`.
template <class Fn>
double median_seconds(SpanLog& log, const char* layer, int repeats, Fn&& fn) {
  SpanLog::Scope group(log, layer);
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) seconds.push_back(log.time("repeat", fn));
  return median(std::move(seconds));
}

struct Metric {
  const char* name;
  double value;
};

// ---- ckpt -------------------------------------------------------------------

/// One single-rank snapshot of `volume` per repeat (write_shard + manifest,
/// the protocol the serial solver's checkpoint pass follows), then the
/// newest one read back through load_newest_valid, as --restore does.
void measure_ckpt(SpanLog& log, const Dataset& dataset, const FramedVolume& volume,
                  const std::string& root, std::vector<Metric>& out) {
  constexpr int kRepeats = 5;
  std::filesystem::remove_all(root);
  const AccumulationBuffer accbuf(volume.slices(), volume.frame);
  const Probe probe = dataset.probe.clone();
  const CArray2D probe_grad(probe.n(), probe.n());
  ckpt::RunInfo run;
  run.dataset_name = dataset.spec.name;
  run.probe_count = dataset.probe_count();
  run.slices = dataset.spec.slices;
  ckpt::TileInfo tile;
  tile.owned = dataset.field();
  tile.extended = volume.frame;
  tile.own_probes.resize(static_cast<usize>(dataset.probe_count()));
  std::iota(tile.own_probes.begin(), tile.own_probes.end(), index_t{0});
  run.tiles.push_back(std::move(tile));

  std::uint64_t step = 0;
  std::uint64_t snapshot_bytes = 0;
  const double write_s = median_seconds(log, "ckpt.write", kRepeats, [&] {
    const std::string dir = ckpt::step_dir(root, ++step);
    std::filesystem::create_directories(dir);
    snapshot_bytes = ckpt::write_shard(
        dir, ckpt::ShardView{0, 0.0, RngState{}, &volume, &accbuf.volume(), &probe.field(),
                             &probe_grad});
    ckpt::write_manifest(dir, ckpt::make_manifest(run, 1, 0, {}));
  });
  snapshot_bytes += std::filesystem::file_size(ckpt::step_dir(root, step) + "/manifest.ckpt");
  const double read_s = median_seconds(log, "ckpt.read", kRepeats, [&] {
    PTYCHO_CHECK(ckpt::load_newest_valid(root, ckpt::RestoreFilter{}).has_value(),
                 "snapshot written by this benchmark did not read back");
  });
  std::filesystem::remove_all(root);
  out.push_back({"ckpt.write_ms", write_s * 1e3});
  out.push_back({"ckpt.write_mib_per_s", static_cast<double>(snapshot_bytes) / kMiB / write_s});
  out.push_back({"ckpt.read_ms", read_s * 1e3});
  out.push_back({"ckpt.mib_per_snapshot", static_cast<double>(snapshot_bytes) / kMiB});
}

// ---- backend, fft, compact ----------------------------------------------------

void measure_kernels(SpanLog& log, const Dataset& dataset, std::vector<Metric>& out) {
  constexpr int kRepeats = 7;
  const auto n = static_cast<usize>(dataset.spec.grid.probe_n);
  const usize lanes = n * n;
  // Calls per repeat: 64 MiB of operand per repeat (milliseconds of work)
  // over probe-sized arrays that stay cache-resident, as in a probe update.
  const usize calls = std::max<usize>(1, (usize{1} << 26) / (lanes * sizeof(cplx)));
  std::vector<cplx> a(lanes);
  std::vector<cplx> b(lanes);
  std::vector<cplx> dst(lanes);
  for (usize i = 0; i < lanes; ++i) {
    a[i] = cplx(real(0.25) + static_cast<real>(i % 7), static_cast<real>(i % 5) - real(2));
    b[i] = cplx(static_cast<real>(i % 3) - real(1), real(0.5));
  }
  const backend::Kernels& kern = backend::kernels();
  const double cmul_s = median_seconds(log, "backend.cmul", kRepeats, [&] {
    for (usize c = 0; c < calls; ++c) kern.cmul_lanes(dst.data(), a.data(), b.data(), lanes);
  });
  // Bytes computed: two operands read and one result written per lane.
  out.push_back({"backend.cmul_mib_per_s",
                 3.0 * static_cast<double>(calls * lanes * sizeof(cplx)) / kMiB / cmul_s});

  fft::Fft2D plan(n, n);
  CArray2D field(static_cast<index_t>(n), static_cast<index_t>(n));
  std::copy(a.begin(), a.end(), field.data());
  const double fft_s = median_seconds(log, "fft.pair", kRepeats, [&] {
    for (usize c = 0; c < calls; ++c) {
      plan.forward(field.view());
      plan.inverse(field.view());
    }
  });
  out.push_back({"fft.pair_us", fft_s / static_cast<double>(calls) * 1e6});
  // Two passes over the field per pair, as bench_sweep counts them.
  out.push_back({"fft.mib_per_s",
                 2.0 * static_cast<double>(calls * lanes * sizeof(cplx)) / kMiB / fft_s});

  const compact::FrameStack frames(dataset.measurements, compact::Format::kF16);
  RArray2D decoded(frames.rows(), frames.cols());
  const double frame_bytes =
      static_cast<double>(frames.count()) * static_cast<double>(lanes) * sizeof(real);
  const auto passes =
      static_cast<usize>(std::max(1.0, static_cast<double>(usize{1} << 24) / frame_bytes));
  const double decode_s = median_seconds(log, "compact.decode", kRepeats, [&] {
    for (usize p = 0; p < passes; ++p) {
      for (usize f = 0; f < frames.count(); ++f) frames.decode_into(f, decoded.view());
    }
  });
  // Bytes produced: the decoded f32 frames.
  out.push_back({"compact.decode_mib_per_s",
                 static_cast<double>(passes) * frame_bytes / kMiB / decode_s});
}

// ---- physics, core ------------------------------------------------------------

void measure_compute(SpanLog& log, const Dataset& dataset, const FramedVolume& volume,
                     const PrecisionPolicy& precision, std::vector<Metric>& out) {
  const GradientEngine engine(dataset);
  const index_t probes = dataset.probe_count();
  const Probe probe = dataset.probe.clone();
  const auto n = static_cast<index_t>(dataset.spec.grid.probe_n);

  {
    // Every probe, three passes, each call its own sample.
    constexpr int kPasses = 3;
    MultisliceWorkspace ws = engine.make_workspace(precision.storage);
    ws.cache_transmittance = true;
    FramedVolume grad(dataset.spec.slices, Rect{0, 0, n, n});
    std::vector<double> us;
    SpanLog::Scope group(log, "physics.probe_gradient");
    for (int pass = 0; pass < kPasses; ++pass) {
      for (index_t id = 0; id < probes; ++id) {
        grad.frame = engine.window(id);
        grad.data.fill(cplx{});
        us.push_back(1e6 * log.time("probe", [&] {
          (void)engine.probe_gradient_joint(
              id, probe, dataset.measurements[static_cast<usize>(id)].view(), volume, grad, ws);
        }));
      }
    }
    out.push_back({"physics.probe_gradient_us_p50", percentile(us, 50.0)});
    out.push_back({"physics.probe_gradient_us_p99", percentile(us, 99.0)});
  }

  // The sweep pass exactly as the solvers build it: full-batch dispatches
  // through BatchSweeper on the auto scheduler, SGD runs the sequential
  // per-probe update loop the GD ranks use.
  const auto ns_per_probe = [&](const char* layer, UpdateMode mode, int pass_threads) {
    constexpr int kRepeats = 3;
    SweepPass pass(engine, mode, pass_threads, SweepSchedule::kAuto, SweepPass::Items{},
                   RefineSchedule{}, precision);
    FramedVolume work = volume.clone();
    Probe work_probe = probe.clone();
    AccumulationBuffer accbuf(work.slices(), work.frame);
    CArray2D probe_grad(n, n);
    SolverState state;
    state.volume = &work;
    state.probe = &work_probe;
    state.accbuf = &accbuf;
    state.probe_grad_field = &probe_grad;
    state.step = real(0.1) * engine.step_scale();
    StepPoint point;
    point.end = probes;
    SpanLog::Scope group(log, layer);
    std::vector<double> seconds;
    for (int r = 0; r < kRepeats; ++r) {
      // SGD descends the volume in place: every repeat starts from the input.
      copy_region(volume, work, work.frame);
      accbuf.reset();
      state.sweep_cost = 0.0;
      seconds.push_back(log.time("repeat", [&] { pass.on_chunk(state, point); }));
    }
    return median(std::move(seconds)) / static_cast<double>(probes) * 1e9;
  };
  const double ns_1t = ns_per_probe("sweep.full_batch_1t", UpdateMode::kFullBatch, 1);
  const double ns_nt = ns_per_probe("sweep.full_batch_nt", UpdateMode::kFullBatch, kThreads);
  out.push_back({"sweep.ns_per_probe_1t", ns_1t});
  out.push_back({"sweep.ns_per_probe_nt", ns_nt});
  out.push_back({"sweep.parallel_eff", ns_1t / (kThreads * ns_nt)});
  out.push_back({"sweep.sgd_ns_per_probe", ns_per_probe("sweep.sgd", UpdateMode::kSgd, 1)});
}

// ---- runtime ------------------------------------------------------------------

constexpr int kRounds = 200;

/// Per-round rank-0 timings of one ring exchange (every rank sends
/// `elems` to its right neighbour and receives from its left) followed by
/// a scalar allreduce, on one rank body. Appends to the two sample sets.
void exchange_rounds(rt::RankContext& ctx, usize elems, std::vector<double>* exchange_us,
                     std::vector<double>* allreduce_us) {
  const int right = (ctx.rank() + 1) % ctx.nranks();
  const int left = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
  const std::vector<cplx> payload(elems, cplx(1, 0));
  for (int round = 0; round < kRounds; ++round) {
    ctx.barrier();
    WallTimer exchange;
    ctx.isend(right, rt::make_tag(rt::Phase::kTest, round), payload);
    (void)ctx.recv(left, rt::make_tag(rt::Phase::kTest, round));
    const double exchange_s = exchange.seconds();
    double allreduce_s = 0.0;
    if (allreduce_us != nullptr) {
      WallTimer allreduce;
      (void)rt::allreduce_sum_scalar(ctx, 1.0, rt::Phase::kCost, round);
      allreduce_s = allreduce.seconds();
    }
    if (ctx.rank() != 0) continue;
    exchange_us->push_back(exchange_s * 1e6);
    if (allreduce_us != nullptr) allreduce_us->push_back(allreduce_s * 1e6);
  }
}

/// Reserve `n` loopback ports: bind ephemeral listeners, read the ports
/// back, close them (the transport rebinds with SO_REUSEADDR).
std::vector<int> reserve_ports(int n) {
  std::vector<int> fds;
  std::vector<int> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    PTYCHO_CHECK(fd >= 0, "socket() failed");
    fds.push_back(fd);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(sa);
    PTYCHO_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0 &&
                     ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) == 0,
                 "cannot reserve a loopback port");
    ports.push_back(static_cast<int>(ntohs(sa.sin_port)));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

void measure_runtime(SpanLog& log, usize message_bytes, std::vector<Metric>& out) {
  const usize elems = std::max<usize>(1, message_bytes / sizeof(cplx));
  std::vector<double> exchange_us;
  std::vector<double> allreduce_us;
  {
    SpanLog::Scope span(log, "runtime.inproc");
    rt::VirtualCluster cluster(kRanks);
    cluster.run([&](rt::RankContext& ctx) {
      exchange_rounds(ctx, elems, &exchange_us, &allreduce_us);
    });
  }
  out.push_back({"runtime.exchange_us", median(exchange_us)});
  out.push_back({"runtime.allreduce_us", median(allreduce_us)});

  // The same exchange with each rank in its own VirtualCluster over the
  // socket transport: a thread per rank stands in for a process per rank.
  std::vector<double> socket_us;
  {
    SpanLog::Scope span(log, "runtime.socket");
    const std::vector<int> ports = reserve_ports(kRanks);
    std::vector<std::exception_ptr> errors(kRanks);
    {
      std::vector<std::jthread> ranks;  // joined when the block ends
      for (int r = 0; r < kRanks; ++r) {
        ranks.emplace_back([&, r] {
          try {
            rt::ClusterSpec spec;
            spec.nranks = kRanks;
            spec.transport.kind = rt::TransportKind::kSocket;
            spec.transport.rank = r;
            for (const int port : ports) {
              spec.transport.peers.push_back("127.0.0.1:" + std::to_string(port));
            }
            rt::VirtualCluster cluster(spec);
            cluster.run([&](rt::RankContext& ctx) {
              exchange_rounds(ctx, elems, &socket_us, nullptr);
            });
          } catch (...) {
            errors[static_cast<usize>(r)] = std::current_exception();
          }
        });
      }
    }
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
  out.push_back({"runtime.socket_exchange_us", median(socket_us)});
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = Options::parse(argc, argv);
    const std::string dataset_path = opts.get_string("dataset", "");
    const std::string scratch = opts.get_string("scratch", "");
    PTYCHO_CHECK(!dataset_path.empty() && !scratch.empty(), "need --dataset and --scratch");
    const std::string volume_path = opts.get_string("volume", "");
    const PrecisionPolicy precision = parse_precision(opts.get_string("precision", "strict"));
    apply_precision(precision);

    SpanLog log;
    std::vector<Metric> metrics;
    std::optional<Dataset> dataset;
    {
      constexpr int kRepeats = 5;
      const double load_s = median_seconds(log, "data.load", kRepeats, [&] {
        dataset.emplace(io::load_dataset(dataset_path));
      });
      metrics.push_back({"data.load_ms", load_s * 1e3});
    }
    const FramedVolume volume =
        volume_path.empty() ? make_vacuum_volume(dataset->field(), dataset->spec.slices)
                            : io::load_volume(volume_path);
    // Default message: one probe window of the volume, all slices.
    const auto n = static_cast<long long>(dataset->spec.grid.probe_n);
    const long long message_bytes = opts.get_int(
        "message-bytes", n * n * static_cast<long long>(dataset->spec.slices) *
                             static_cast<long long>(sizeof(cplx)));
    PTYCHO_CHECK(message_bytes >= 1, "--message-bytes must be >= 1");

    measure_ckpt(log, *dataset, volume, scratch + "/ckpt", metrics);
    measure_kernels(log, *dataset, metrics);
    measure_compute(log, *dataset, volume, precision, metrics);
    measure_runtime(log, static_cast<usize>(message_bytes), metrics);

    const std::string trace_out = opts.get_string("trace-out", "");
    if (!trace_out.empty()) log.write(trace_out);
    std::printf("{");
    for (usize i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": %.9g", i == 0 ? "" : ", ", metrics[i].name, metrics[i].value);
    }
    std::printf("}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_layers: %s\n", e.what());
    return 1;
  }
}
