// ptycho — command-line driver for the library.
//
// Subcommands:
//   simulate     build a synthetic dataset and save it
//   info         describe a dataset file
//   reconstruct  run a solver over a dataset (fresh or resumed)
//
// Examples:
//   ptycho simulate --spec small --dose 1e6 --out acquisition.ptyd
//   ptycho info acquisition.ptyd
//   ptycho reconstruct acquisition.ptyd --method gd --ranks 6
//          --iterations 12 --save-volume recon.bin --image recon.pgm
//   # checkpoint every 2 chunks, then restore after a crash — possibly on
//   # a different rank count (elastic restore):
//   ptycho reconstruct acquisition.ptyd --ranks 6 --checkpoint-dir ckpt
//          --checkpoint-every 2 --iterations 12
//   ptycho reconstruct acquisition.ptyd --ranks 4 --restore ckpt --iterations 12
//   # resume from a previous volume (or pass a checkpoint dir to --resume):
//   ptycho reconstruct acquisition.ptyd --resume recon.bin --iterations 6
//   # self-healing multi-process run: kill a rank mid-iteration, the
//   # parent respawns the survivors from the newest checkpoint:
//   ptycho reconstruct acquisition.ptyd --launch 3 --checkpoint-dir ckpt
//          --checkpoint-every 1 --max-restarts 2 --heartbeat-ms 100
//          --liveness-timeout-ms 2000
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "ptycho.hpp"

using namespace ptycho;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ptycho <simulate|info|reconstruct> [options]\n"
               "  simulate   --spec tiny|small|large [--dose E] [--seed N] --out FILE\n"
               "  info       FILE\n"
               "  reconstruct FILE [--method serial|gd|hve] [--ranks N]\n"
               "             [--iterations N] [--step A] [--passes T]\n"
               "             [--mode sgd|full-batch] [--no-appp] [--refine-probe]\n"
               "             [--resume VOLUME|CKPT_DIR] [--save-volume FILE] [--image FILE]\n"
               "             [--restore CKPT_DIR|latest]\n"
               "             [--launch K] [--port-base P]\n"
               "             [--fault-rank R] [--fault-step S] [--fault-kind throw|exit]\n"
               "  execution options (shared with the benches):\n"
               "%s"
               "  --iterations is the TOTAL target; a restored run continues from the\n"
               "  snapshot's iteration. --ranks may differ from the checkpointed run\n"
               "  (elastic restore re-tiles and redistributes the shards).\n"
               "  Results are bitwise identical across backends, thread counts,\n"
               "  transports and checkpointing on or off.\n"
               "  Multi-process: either run one process per rank with\n"
               "  --transport socket --rank N --peers host:port,... (one entry per\n"
               "  rank, same roster everywhere), or let --launch K fork K local rank\n"
               "  processes wired over loopback ports [--port-base P, default 38400].\n",
               exec_options_help().c_str());
  return 2;
}

DatasetSpec spec_by_name(const std::string& name) {
  if (name == "tiny") return repro_tiny_spec();
  if (name == "large") return repro_large_spec();
  PTYCHO_CHECK(name == "small", "unknown spec '" << name << "' (tiny|small|large)");
  return repro_small_spec();
}

// Each subcommand rejects any key it does not read, so a typo'd or retired
// flag fails instead of being silently ignored. Only reconstruct takes
// --precision: simulate always runs the strict kernels, so a dataset is a
// pure function of its spec and seed.

int cmd_simulate(const Options& opts) {
  opts.reject_unknown({"spec", "seed", "dose", "out"});
  const DatasetSpec spec = spec_by_name(opts.get_string("spec", "small"));
  SpecimenParams specimen;
  specimen.seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  AcquisitionParams acq;
  acq.dose_electrons = opts.get_double("dose", 0.0);
  const std::string out = opts.get_string("out", "dataset.ptyd");

  std::printf("simulating %s (%lldx%lld scan, dose %s)...\n", spec.name.c_str(),
              static_cast<long long>(spec.scan.rows), static_cast<long long>(spec.scan.cols),
              acq.dose_electrons > 0 ? "finite" : "none");
  const Dataset dataset = make_synthetic_dataset(spec, specimen, acq);
  io::save_dataset(out, dataset);
  std::printf("wrote %s (%lld measurements, %.1f MiB)\n", out.c_str(),
              static_cast<long long>(dataset.probe_count()),
              static_cast<double>(dataset.measurement_bytes()) / kMiB);
  return 0;
}

int cmd_info(const Options& opts) {
  opts.reject_unknown({});
  PTYCHO_CHECK(!opts.positional().empty(), "info needs a dataset file");
  const Dataset dataset = io::load_dataset(opts.positional().front());
  const Rect field = dataset.field();
  std::printf("name:          %s\n", dataset.spec.name.c_str());
  std::printf("probes:        %lld (%lldx%lld raster, %.0f%% overlap)\n",
              static_cast<long long>(dataset.probe_count()),
              static_cast<long long>(dataset.spec.scan.rows),
              static_cast<long long>(dataset.spec.scan.cols),
              dataset.scan.overlap_ratio() * 100.0);
  std::printf("diffraction:   %llu x %llu\n",
              static_cast<unsigned long long>(dataset.spec.grid.probe_n),
              static_cast<unsigned long long>(dataset.spec.grid.probe_n));
  std::printf("field:         %lld x %lld px, %lld slices (%.1f x %.1f x %.1f pm voxels)\n",
              static_cast<long long>(field.h), static_cast<long long>(field.w),
              static_cast<long long>(dataset.spec.slices), dataset.spec.grid.dx_pm,
              dataset.spec.grid.dx_pm, dataset.spec.grid.dz_pm);
  std::printf("optics:        %.1f mrad aperture, %.0f pm defocus, lambda %.4f pm\n",
              dataset.spec.probe.aperture_mrad, dataset.spec.probe.defocus_pm,
              dataset.spec.grid.wavelength_pm);
  std::printf("measurements:  %.1f MiB; full volume %.1f MiB\n",
              static_cast<double>(dataset.measurement_bytes()) / kMiB,
              static_cast<double>(dataset.volume_bytes()) / kMiB);
  return 0;
}

// --launch K: fork one child per rank, each re-entering cmd_reconstruct
// with an explicit socket-transport roster over loopback ports. The parent
// only waits; the children do all the work (including loading their share
// of the dataset — the fork happens before any heavy allocation).
int cmd_launch(const Options& opts, int nprocs);

int cmd_reconstruct(const Options& opts) {
  // The shared execution flags (which include --precision) plus this
  // function's and cmd_launch's own; the keys cmd_launch injects into its
  // children are all among them.
  std::vector<std::string> known = exec_option_keys();
  known.insert(known.end(), {"method", "ranks", "iterations", "step", "passes", "mode", "no-appp",
                             "refine-probe", "fault-rank", "fault-step", "fault-kind", "restore",
                             "resume", "save-volume", "image", "launch", "port-base"});
  opts.reject_unknown(known);
  const int launch = static_cast<int>(opts.get_int("launch", 0));
  if (launch > 0) return cmd_launch(opts, launch);

  PTYCHO_CHECK(!opts.positional().empty(), "reconstruct needs a dataset file");

  ReconstructionRequest request;
  const std::string method = opts.get_string("method", "gd");
  request.method = method == "serial" ? Method::kSerial
                   : method == "hve"  ? Method::kHaloVoxelExchange
                                      : Method::kGradientDecomposition;
  request.nranks = static_cast<int>(opts.get_int("ranks", 4));
  request.iterations = static_cast<int>(opts.get_int("iterations", 10));
  request.step = static_cast<real>(opts.get_double("step", 0.1));
  request.passes_per_iteration = static_cast<int>(opts.get_int("passes", 1));
  // Execution knobs (threads, pipeline, checkpoint, trace/metrics,
  // progress, transport, precision) come from the shared parser — the same
  // flags work on the benches. All but the tier are bitwise-neutral.
  request.exec = parse_exec_options(opts);
  // Loading the dataset synthesizes its probe with FFTs, so the tier must
  // be in force before the load, as it is for the run (which applies it
  // again).
  apply_precision(request.exec.precision);
  request.mode = opts.get_string("mode", "sgd") == "full-batch" ? UpdateMode::kFullBatch
                                                                : UpdateMode::kSgd;
  request.sync.appp = !opts.get_bool("no-appp", false);
  request.refine_probe = opts.get_bool("refine-probe", false);
  // Fault injection for recovery testing: kill --fault-rank at the first
  // chunk step >= --fault-step, either by throwing RankFailure or (in a
  // multi-process run) by hard-exiting the victim.
  request.fault.rank = static_cast<int>(opts.get_int("fault-rank", -1));
  request.fault.at_step = static_cast<std::uint64_t>(opts.get_int("fault-step", 0));
  const std::string fault_kind = opts.get_string("fault-kind", "throw");
  PTYCHO_CHECK(fault_kind == "throw" || fault_kind == "exit",
               "--fault-kind must be throw or exit");
  request.fault.kind = fault_kind == "exit" ? rt::FaultKind::kExit : rt::FaultKind::kThrow;
  // --restore latest reads --checkpoint-dir without writing to it, so a
  // directory alone is fine in that case; otherwise the pair must come
  // together or checkpointing silently stays off.
  PTYCHO_CHECK(request.exec.checkpoint.every_chunks == 0 ||
                   !request.exec.checkpoint.directory.empty(),
               "--checkpoint-every needs --checkpoint-dir");
  PTYCHO_CHECK(request.exec.checkpoint.directory.empty() ||
                   request.exec.checkpoint.every_chunks > 0 ||
                   opts.get_string("restore", "") == "latest",
               "--checkpoint-dir needs --checkpoint-every (or --restore latest)");
  const bool distributed = request.exec.transport.distributed();
  if (distributed) {
    PTYCHO_CHECK(request.method == Method::kGradientDecomposition ||
                     request.method == Method::kHaloVoxelExchange,
                 "--transport socket needs a decomposed method (gd or hve)");
    PTYCHO_CHECK(static_cast<int>(request.exec.transport.peers.size()) == request.nranks,
                 "--peers must list exactly --ranks entries (one host:port per rank)");
    log::set_thread_rank(request.exec.transport.rank);
  }
  const bool root = !distributed || request.exec.transport.rank == 0;
  // A socket rank writes its owned rows of the volume itself, and rank 0
  // gathers only the imaged slice; no rank ever holds the whole field.
  const std::string volume_path = opts.get_string("save-volume", "");
  const std::string image_path = opts.get_string("image", "");

  // Read the header first, then only what this process's ranks read: a
  // socket rank loads its tile's frames and (below) its window of the
  // warm-start volume; serial and in-process runs load everything.
  const std::string dataset_path = opts.positional().front();
  LocalInputs local;
  {
    const Dataset header = io::load_dataset(dataset_path, {});
    local = Reconstructor(header).local_inputs(request);
  }
  const Dataset dataset = io::load_dataset(dataset_path, local.frames);

  // --restore DIR resumes from the newest *valid* snapshot under DIR
  // (--restore latest uses --checkpoint-dir — the directory this run also
  // writes to); --resume accepts either a raw volume file (warm start) or,
  // when given a directory, behaves exactly like --restore.
  ckpt::Snapshot snapshot;
  std::string restore_path = opts.get_string("restore", "");
  FramedVolume resume;
  std::string resume_path = opts.get_string("resume", "");
  if (!resume_path.empty() && std::filesystem::is_directory(resume_path)) {
    PTYCHO_CHECK(restore_path.empty(), "--resume DIR and --restore are mutually exclusive");
    restore_path = std::move(resume_path);
    resume_path.clear();
  }
  if (restore_path == "latest") {
    PTYCHO_CHECK(!request.exec.checkpoint.directory.empty(),
                 "--restore latest needs --checkpoint-dir to know where to look");
    restore_path = request.exec.checkpoint.directory;
  }
  if (!restore_path.empty()) {
    // The same discovery routine automatic recovery uses: newest-first by
    // run progress, full shard validation (footers + CRCs), corrupt or
    // layout-incompatible snapshots skipped with a warning.
    ckpt::RestoreFilter filter;
    filter.nranks = request.method == Method::kSerial ? 1 : request.nranks;
    filter.chunks_per_iteration = request.passes_per_iteration;
    filter.update_mode = static_cast<int>(request.mode);
    filter.refine_probe = request.refine_probe ? 1 : 0;
    auto found = ckpt::load_newest_valid(restore_path, filter);
    PTYCHO_CHECK(found.has_value(),
                 "no usable checkpoint found under '" << restore_path << "'");
    snapshot = std::move(*found);
    request.restore = &snapshot;
    if (root) {
      std::printf("restoring from %s (step %llu: iteration %d, chunk %d, %d rank(s))\n",
                  restore_path.c_str(), static_cast<unsigned long long>(snapshot.manifest.step),
                  snapshot.manifest.iteration, snapshot.manifest.chunk,
                  snapshot.manifest.nranks);
    }
  } else if (!resume_path.empty()) {
    resume = io::load_volume(resume_path, local.window);
    if (root) std::printf("resuming from %s\n", resume_path.c_str());
  }
  request.output = VolumeOutput{volume_path, !image_path.empty()};

  if (root) {
    // Serial ignores --ranks: its width is the sweep's thread count (one
    // for the sequential SGD loop).
    const bool serial = request.method == Method::kSerial;
    const int width = !serial                             ? request.nranks
                      : request.mode == UpdateMode::kSgd  ? 1
                      : request.exec.threads > 0          ? request.exec.threads
                                                          : ThreadPool::hardware_threads();
    std::printf("reconstructing with %s on %d %s%s, %d iterations (backend %s)...\n",
                to_string(request.method), width, serial ? "thread(s)" : "rank(s)",
                distributed ? " [socket transport]" : "", request.iterations,
                backend::active_name());
  }
  Reconstructor reconstructor(dataset);
  const ReconstructionOutcome outcome = reconstructor.run(request, std::move(resume));

  // Non-root distributed ranks hold no cost history — rank 0 records it,
  // exactly as in the in-process cluster.
  if (!outcome.cost.empty()) {
    std::printf("cost %.6g -> %.6g (%.1f%%), wall %.2f s", outcome.cost.first(),
                outcome.cost.last(), outcome.cost.reduction() * 100.0, outcome.wall_seconds);
    if (outcome.mean_peak_bytes > 0) {
      std::printf(", mean peak mem/rank %.2f MiB", outcome.mean_peak_bytes / kMiB);
    }
    std::printf("\n");
  }

  if (root) {
    if (!volume_path.empty()) {
      if (!distributed) io::save_volume(volume_path, outcome.volume);
      std::printf("volume saved to %s\n", volume_path.c_str());
    }
    if (!image_path.empty()) {
      io::write_phase_pgm(image_path,
                          distributed ? outcome.image.window(0, outcome.image.frame)
                                      : outcome.volume.window(dataset.spec.slices / 2,
                                                              outcome.volume.frame));
      std::printf("phase image saved to %s\n", image_path.c_str());
    }
  }
  return 0;
}

// Children exit with this code when they died of a *recoverable* rank
// failure (a peer disappeared, the fabric was poisoned) — the supervising
// parent reads it as "this process survived and can be respawned".
// Matches sysexits' EX_TEMPFAIL by intent.
constexpr int kExitRankFailure = 75;

int cmd_launch(const Options& opts, int nprocs) {
  PTYCHO_CHECK(nprocs >= 1, "--launch needs at least one process");
  const int port_base = static_cast<int>(opts.get_int("port-base", 38400));
  const int max_restarts = static_cast<int>(opts.get_int("max-restarts", 0));
  const int backoff_ms = static_cast<int>(opts.get_int("restart-backoff-ms", 100));
  const bool can_recover = max_restarts > 0 && !opts.get_string("checkpoint-dir", "").empty();

  int nranks = nprocs;
  for (int attempt = 0;; ++attempt) {
    // Fresh loopback port block per attempt: the previous generation's
    // listeners may still be in TIME_WAIT, and a straggler process from it
    // must knock on ports nobody in the new mesh answers.
    const int ports_from = port_base + attempt * nprocs;
    std::string roster;
    for (int r = 0; r < nranks; ++r) {
      if (r > 0) roster += ',';
      roster += "127.0.0.1:" + std::to_string(ports_from + r);
    }
    std::vector<pid_t> children;
    for (int r = 0; r < nranks; ++r) {
      const pid_t pid = fork();
      PTYCHO_CHECK(pid >= 0, "fork failed for rank " << r);
      if (pid == 0) {
        Options child = opts;
        child.set("launch", "0");
        child.set("ranks", std::to_string(nranks));
        child.set("transport", "socket");
        child.set("rank", std::to_string(r));
        child.set("peers", roster);
        child.set("generation", std::to_string(attempt));
        // In-run recovery is the parent's job here — a child that hits a
        // rank failure must exit (code 75) and be respawned, not retry
        // inside a half-dead mesh.
        child.set("max-restarts", "0");
        if (attempt > 0) {
          // Respawned generation: resume from the newest valid snapshot,
          // and the (one-shot) injected fault is spent — it must not
          // re-kill every attempt.
          child.set("restore", "latest");
          child.set("resume", "");
          child.set("fault-rank", "-1");
        }
        // Every rank writes its own rows of --save-volume and sends its
        // rows of the imaged slice to rank 0; only rank 0 keeps the
        // telemetry sinks, which the others must not race on.
        if (r != 0) {
          child.set("trace-out", "");
          child.set("metrics-out", "");
        }
        // _exit skips stdio teardown, so flush explicitly or the child's
        // output is lost whenever stdout is a pipe (fully buffered).
        try {
          const int code = cmd_reconstruct(child);
          std::fflush(nullptr);
          _exit(code);
        } catch (const rt::RankFailure& e) {
          std::fprintf(stderr, "rank failure [rank %d]: %s\n", r, e.what());
          std::fflush(nullptr);
          _exit(kExitRankFailure);
        } catch (const Error& e) {
          std::fprintf(stderr, "error [rank %d]: %s\n", r, e.what());
          std::fflush(nullptr);
          _exit(1);
        }
      }
      children.push_back(pid);
    }

    // Classify the exits: clean completions, survivors of a rank failure
    // (exit 75 — respawnable), and dead ranks (signals, hard exits, other
    // errors — dropped from the next generation).
    int completed = 0;
    int survivors = 0;
    for (usize r = 0; r < children.size(); ++r) {
      int status = 0;
      waitpid(children[r], &status, 0);
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      if (code == 0) {
        ++completed;
        ++survivors;
      } else if (code == kExitRankFailure) {
        std::fprintf(stderr, "rank %zu survived a rank failure (exit %d)\n", r, code);
        ++survivors;
      } else {
        std::fprintf(stderr, "rank %zu died (exit code %d)\n", r, code);
      }
    }
    if (completed == nranks) return 0;
    if (!can_recover || attempt >= max_restarts) {
      std::fprintf(stderr, "launch failed%s\n",
                   can_recover ? " (restart budget exhausted)"
                               : " (no recovery: needs --max-restarts and --checkpoint-dir)");
      return 1;
    }
    if (survivors == 0) {
      std::fprintf(stderr, "launch failed (no surviving ranks to respawn)\n");
      return 1;
    }
    std::fprintf(stderr, "respawning %d surviving rank(s) from the newest checkpoint "
                         "(attempt %d/%d)\n",
                 survivors, attempt + 1, max_restarts);
    std::fflush(nullptr);
    usleep(static_cast<useconds_t>(
        static_cast<std::uint64_t>(backoff_ms) << std::min(attempt, 20)) * 1000);
    nranks = survivors;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Options opts = Options::parse(argc - 1, argv + 1);
  try {
    if (command == "simulate") return cmd_simulate(opts);
    if (command == "info") return cmd_info(opts);
    if (command == "reconstruct") return cmd_reconstruct(opts);
    return usage();
  } catch (const rt::RankFailure& e) {
    // Recoverable by a supervisor: a --launch parent reads exit 75 as
    // "survivor, respawn me from the newest checkpoint".
    std::fprintf(stderr, "rank failure: %s\n", e.what());
    return kExitRankFailure;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
