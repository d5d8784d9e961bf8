// Checkpoint overhead bench: snapshot write / restore cost next to the
// iteration cost it protects, so the perf trajectory shows what a
// checkpoint interval buys and what it costs.
//
// Measures, on the functional repro dataset:
//   * baseline GD iteration time (no checkpointing)
//   * GD iteration time with checkpoint-every-chunk (worst case)
//   * snapshot load + same-layout restore launch cost
//   * elastic restore launch cost (K -> K' re-tile + redistribution)
//   * snapshot size on disk
#include <filesystem>

#include "bench_util.hpp"
#include "ckpt/snapshot.hpp"
#include "common/timer.hpp"
#include "core/gradient_decomposition.hpp"

using namespace ptycho;
using namespace ptycho::bench;

namespace fs = std::filesystem;

namespace {

std::uintmax_t tree_bytes(const std::string& root) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::string which = opts.get_string("dataset", "small");
  const int iterations = static_cast<int>(opts.get_int("iterations", 6));
  const int ranks = static_cast<int>(opts.get_int("ranks", 6));
  const int elastic_ranks = static_cast<int>(opts.get_int("elastic-ranks", 4));
  const std::string dir =
      opts.get_string("ckpt-dir", (fs::temp_directory_path() / "ptycho_bench_ckpt").string());

  std::printf("=== checkpoint overhead (%s dataset, %d ranks, %d iterations) ===\n\n",
              which.c_str(), ranks, iterations);
  const Dataset dataset = build_repro_dataset(which);

  fs::remove_all(dir);
  fs::create_directories(dir);

  GdConfig base;
  base.nranks = ranks;
  base.iterations = iterations;
  base.mode = UpdateMode::kFullBatch;

  // Baseline: no checkpointing.
  const ParallelResult plain = reconstruct_gd(dataset, base);
  const double plain_per_iter = plain.wall_seconds / iterations;
  std::printf("%-34s %8.3f s  (%.3f s/iter)\n", "baseline run", plain.wall_seconds,
              plain_per_iter);

  // Checkpoint every chunk (here: every iteration) — the worst case.
  GdConfig with_ckpt = base;
  with_ckpt.exec.checkpoint = ckpt::Policy{dir, 1};
  const ParallelResult checked = reconstruct_gd(dataset, with_ckpt);
  const double ckpt_per_iter = checked.wall_seconds / iterations;
  std::printf("%-34s %8.3f s  (%.3f s/iter, +%.1f%%)\n", "checkpoint-every-chunk run",
              checked.wall_seconds, ckpt_per_iter,
              (ckpt_per_iter / plain_per_iter - 1.0) * 100.0);
  const std::uintmax_t bytes = tree_bytes(dir);
  std::printf("%-34s %8.2f MiB (%d snapshots, %.2f MiB each)\n", "snapshot footprint",
              static_cast<double>(bytes) / kMiB, iterations,
              static_cast<double>(bytes) / kMiB / iterations);

  // Load + same-layout restore (zero further iterations: pure launch cost).
  {
    WallTimer timer;
    const ckpt::Snapshot snap = ckpt::load_latest(dir);
    const double load_s = timer.seconds();
    GdConfig resume = base;
    resume.restore = &snap;
    WallTimer restore_timer;
    const ParallelResult restored = reconstruct_gd(dataset, resume);
    std::printf("%-34s %8.3f s load + %.3f s relaunch (cost %.4g)\n", "same-layout restore",
                load_s, restore_timer.seconds(), restored.cost.last());
  }

  // Elastic restore on a different rank count.
  {
    const ckpt::Snapshot snap = ckpt::load_latest(dir);
    GdConfig resume = base;
    resume.nranks = elastic_ranks;
    resume.restore = &snap;
    WallTimer timer;
    const ParallelResult restored = reconstruct_gd(dataset, resume);
    std::printf("%-34s %8.3f s relaunch at K'=%d (cost %.4g)\n", "elastic restore",
                timer.seconds(), elastic_ranks, restored.cost.last());
  }

  fs::remove_all(dir);
  std::printf("\nfinding to check: per-iteration checkpoint cost should be a small\n"
              "fraction of iteration time, and elastic restore should cost about one\n"
              "snapshot redistribution — far less than recomputing the lost run.\n");
  return 0;
}
