// Pass-graph execution tests: the hazards the declared access sets imply,
// the executor's bitwise contract (serial, GD and HVE reconstructions give
// the same volume, probe and cost history with checkpointing on or off,
// and the same checkpoint bytes on disk at every thread count), the lazily
// started background slot, and a fault-injected elastic restore with shard
// writes in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/exec_options.hpp"
#include "core/gradient_decomposition.hpp"
#include "core/halo_voxel_exchange.hpp"
#include "core/passes.hpp"
#include "core/pipeline.hpp"
#include "core/serial_solver.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

namespace fs = std::filesystem;
using testing::tiny_dataset;

double volume_rel_diff(const FramedVolume& a, const FramedVolume& b) {
  double err = 0.0;
  double den = 0.0;
  for (index_t s = 0; s < a.slices(); ++s) {
    for (index_t y = 0; y < a.frame.h; ++y) {
      for (index_t x = 0; x < a.frame.w; ++x) {
        err += std::norm(std::complex<double>(a.data(s, y, x)) -
                         std::complex<double>(b.data(s, y, x)));
        den += std::norm(std::complex<double>(b.data(s, y, x)));
      }
    }
  }
  return std::sqrt(err / den);
}

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("ptycho_async_" + name)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> relative_files(const std::string& root) {
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), root).string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<char> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Assert two checkpoint trees are byte-for-byte identical: same relative
/// file set, same contents.
void expect_identical_trees(const std::string& got, const std::string& want) {
  const std::vector<std::string> got_files = relative_files(got);
  const std::vector<std::string> want_files = relative_files(want);
  EXPECT_EQ(got_files, want_files);
  for (const std::string& rel : got_files) {
    const std::vector<char> a = file_bytes(fs::path(got) / rel);
    const std::vector<char> b = file_bytes(fs::path(want) / rel);
    ASSERT_EQ(a.size(), b.size()) << rel;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0) << rel;
  }
}

// --- the --pipeline spelling -------------------------------------------------

TEST(PipelineFlag, AcceptsAsyncAndNamesTheRemovedSyncMode) {
  Options async;
  async.set("pipeline", "async");
  EXPECT_NO_THROW((void)parse_exec_options(async));
  const auto message = [](const std::string& mode) {
    Options options;
    options.set("pipeline", mode);
    try {
      (void)parse_exec_options(options);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message("sync").find("--pipeline sync was removed"), std::string::npos);
  EXPECT_NE(message("turbo").find("unknown pipeline mode: turbo"), std::string::npos);
}

// --- access sets & hazards -------------------------------------------------

TEST(PassAccess, HazardRules) {
  PassAccess writer;
  writer.write(Resource::kAccBuf);
  PassAccess reader;
  reader.read(Resource::kAccBuf);
  PassAccess other;
  other.read(Resource::kVolume).write(Resource::kVolume);
  EXPECT_TRUE(writer.hazard_with(reader));   // RAW
  EXPECT_TRUE(reader.hazard_with(writer));   // WAR
  EXPECT_TRUE(writer.hazard_with(writer));   // WAW
  EXPECT_FALSE(reader.hazard_with(reader));  // RAR is no hazard
  EXPECT_FALSE(writer.hazard_with(other));   // disjoint resources
  EXPECT_TRUE(PassAccess::all().hazard_with(reader));  // default serializes
}

TEST(ChunkDag, DerivesDependenciesFromDeclaredAccess) {
  // The serial full-batch graph, as the solver builds it.
  const Dataset& dataset = tiny_dataset();
  GradientEngine engine(dataset);
  ckpt::RunInfo run;
  run.chunks_per_iteration = 2;
  auto ckpt_pass =
      std::make_unique<CheckpointPass>(ckpt::Policy{"/tmp/unused", 1}, std::move(run));
  CheckpointPass& writer = *ckpt_pass;
  ReconstructionPipeline pipeline;
  const Pass& sweep = pipeline.emplace<SweepPass>(engine, UpdateMode::kFullBatch, 1,
                                                  SweepPass::Items{}, RefineSchedule{});
  const Pass& update = pipeline.emplace<ApplyUpdatePass>(UpdateMode::kFullBatch, false);
  const Pass& finalize = pipeline.emplace<CheckpointFinalizePass>(writer);
  pipeline.add(std::move(ckpt_pass));
  EXPECT_EQ(pipeline.describe(), "sweep -> update -> checkpoint-finalize -> checkpoint");

  // Mid-iteration point with a due snapshot: chunk 0 of 2 at every=1.
  StepPoint due;
  due.iteration = 0;
  due.chunk = 0;
  due.chunks = 2;
  const PassAccess sweep_access = sweep.chunk_access(due);
  const PassAccess update_access = update.chunk_access(due);
  const PassAccess finalize_access = finalize.chunk_access(due);
  const PassAccess ckpt_access = writer.chunk_access(due);
  // The sweep, first in the list, does not wait on a snapshot still in
  // flight from the previous chunk.
  EXPECT_FALSE(ckpt_access.hazard_with(sweep_access));
  // update RAW/WAW-depends on sweep (AccBuf).
  EXPECT_TRUE(sweep_access.hazard_with(update_access));
  // finalize reads the checkpoint dir — no hazard with sweep/update.
  EXPECT_FALSE(sweep_access.hazard_with(finalize_access));
  EXPECT_FALSE(update_access.hazard_with(finalize_access));
  // The due checkpoint reads V (update wrote) and writes the directory
  // the finalize pass reads. It does not read AccBuf, which is zero at
  // every snapshot point, so it does not wait on the sweep.
  EXPECT_TRUE(update_access.hazard_with(ckpt_access));
  EXPECT_TRUE(finalize_access.hazard_with(ckpt_access));
  EXPECT_FALSE(sweep_access.hazard_with(ckpt_access));

  // Last chunk of the iteration: the chunk hook is not due, so the
  // checkpoint declares nothing and has a hazard with no pass.
  StepPoint last = due;
  last.chunk = 1;
  const PassAccess quiet = writer.chunk_access(last);
  EXPECT_FALSE(sweep.chunk_access(last).hazard_with(quiet));
  EXPECT_FALSE(update.chunk_access(last).hazard_with(quiet));
  EXPECT_FALSE(finalize.chunk_access(last).hazard_with(quiet));
}

TEST(ChunkDag, SweepDeclaresProbeGradOnlyWhenRefinementDue) {
  const Dataset& dataset = tiny_dataset();
  GradientEngine engine(dataset);
  RefineSchedule refine;
  refine.enabled = true;
  refine.warmup_iterations = 1;
  SweepPass sweep(engine, UpdateMode::kFullBatch, 1, SweepPass::Items{}, refine);
  StepPoint warm;
  warm.iteration = 0;
  EXPECT_FALSE(sweep.chunk_access(warm).touches(Resource::kProbeGrad));
  StepPoint refining;
  refining.iteration = 1;
  EXPECT_TRUE(sweep.chunk_access(refining).touches(Resource::kProbeGrad));
}

// --- background validation ---------------------------------------------------

/// A deliberately unsound pass: background-eligible but fabric-touching.
class BadBackgroundPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "bad-background"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    return PassAccess{}.write(Resource::kFabric);
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  [[nodiscard]] bool background_eligible() const override { return true; }
};

TEST(AsyncValidation, RejectsBackgroundEligibleFabricPass) {
  ReconstructionPipeline pipeline;
  pipeline.emplace<BadBackgroundPass>();
  SolverState state;
  PipelineSchedule schedule;
  // Every run validates the pass list before its first hook.
  EXPECT_THROW(pipeline.run(state, schedule), Error);
}

// --- background worker -------------------------------------------------------

TEST(BackgroundWorker, RunsTasksInSubmissionOrder) {
  BackgroundWorker worker;
  std::vector<int> order;
  std::vector<BackgroundTicket> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(worker.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& ticket : tickets) ticket.wait();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<usize>(i)], i);
  EXPECT_TRUE(tickets.front().done());
}

TEST(BackgroundWorker, PropagatesTaskExceptionsThroughWait) {
  BackgroundWorker worker;
  BackgroundTicket failing = worker.submit([] { throw Error("background boom"); });
  EXPECT_THROW(failing.wait(), Error);
  EXPECT_THROW(failing.wait(), Error);  // rethrows on every wait
  // The worker survives a failed task.
  std::atomic<bool> ran{false};
  BackgroundTicket ok = worker.submit([&ran] { ran.store(true); });
  ok.wait();
  EXPECT_TRUE(ran.load());
  BackgroundTicket empty;
  EXPECT_FALSE(empty.valid());
}

// --- lazily started background slot ------------------------------------------

/// Threads of this process, from /proc/self/task.
int thread_count() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator("/proc/self/task")) ++count;
  return count;
}

/// Records the process's thread count each time its chunk hook runs.
class ThreadCountPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "thread-count"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override { return {}; }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState&, const StepPoint&) override { counts.push_back(thread_count()); }

  std::vector<int> counts;
};

/// A background pass whose iteration hook has work (declares access) only
/// from iteration `first_due` on, like a checkpoint with a late cadence.
class LateBackgroundPass final : public Pass {
 public:
  explicit LateBackgroundPass(int first_due) : first_due_(first_due) {}
  [[nodiscard]] const char* name() const override { return "late-background"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override { return {}; }
  [[nodiscard]] PassAccess iteration_access(int iteration) const override {
    return iteration >= first_due_ ? PassAccess{}.write(Resource::kCheckpointDir)
                                   : PassAccess{};
  }
  [[nodiscard]] bool background_eligible() const override { return true; }

 private:
  int first_due_;
};

TEST(BackgroundSlot, StartsNoThreadUntilTheFirstBackgroundDispatch) {
  const int before = thread_count();
  PipelineSchedule schedule;
  schedule.iterations = 3;
  SolverState state;

  // Checkpointing off: the checkpoint and finalize passes run their no-op
  // hooks on the rank lane, and no thread is ever started.
  {
    ReconstructionPipeline pipeline;
    auto ckpt_pass = std::make_unique<CheckpointPass>(ckpt::Policy{}, ckpt::RunInfo{});
    pipeline.emplace<CheckpointFinalizePass>(*ckpt_pass);
    pipeline.add(std::move(ckpt_pass));
    auto& counter = pipeline.emplace<ThreadCountPass>();
    pipeline.run(state, schedule);
    EXPECT_EQ(counter.counts, (std::vector<int>{before, before, before}));
  }

  // The first background dispatch (after iteration 1's chunk) starts the
  // one worker thread, which then lives until the run ends.
  {
    ReconstructionPipeline pipeline;
    pipeline.emplace<LateBackgroundPass>(1);
    auto& counter = pipeline.emplace<ThreadCountPass>();
    pipeline.run(state, schedule);
    EXPECT_EQ(counter.counts, (std::vector<int>{before, before, before + 1}));
  }
  EXPECT_EQ(thread_count(), before);
}

// --- checkpointing is invisible in the result --------------------------------

SerialResult run_serial(int threads, const std::string& ckpt_dir) {
  SerialConfig config;
  config.iterations = 3;
  // 36 probes over 3 chunks: 12-item ranges, odd batch remainders.
  config.chunks_per_iteration = 3;
  config.mode = UpdateMode::kFullBatch;
  config.refine_probe = true;
  config.exec.threads = threads;
  if (!ckpt_dir.empty()) config.exec.checkpoint = ckpt::Policy{ckpt_dir, 1};
  return reconstruct_serial(tiny_dataset(), config);
}

TEST(AsyncEquivalence, SerialBitwiseIncludingCheckpointBytes) {
  const SerialResult base = run_serial(1, "");
  ASSERT_FALSE(base.cost.values().empty());
  ScratchDir base_dir("serial_1t");
  for (const int threads : {1, 2, 4}) {
    ScratchDir scratch("serial_nt");
    const std::string& dir = threads == 1 ? base_dir.path() : scratch.path();
    const SerialResult result = run_serial(threads, dir);
    ASSERT_EQ(result.volume.data.bytes(), base.volume.data.bytes());
    EXPECT_EQ(std::memcmp(result.volume.data.data(), base.volume.data.data(),
                          base.volume.data.bytes()),
              0)
        << "threads=" << threads;
    ASSERT_EQ(result.probe_field.bytes(), base.probe_field.bytes());
    EXPECT_EQ(std::memcmp(result.probe_field.data(), base.probe_field.data(),
                          base.probe_field.bytes()),
              0)
        << "threads=" << threads;
    ASSERT_EQ(result.cost.values().size(), base.cost.values().size());
    for (usize i = 0; i < base.cost.values().size(); ++i) {
      EXPECT_EQ(result.cost.values()[i], base.cost.values()[i])
          << "threads=" << threads << " iter=" << i;
    }
    // Every snapshot was finalized (manifest-complete) and the whole
    // checkpoint tree matches the 1-thread run byte for byte.
    if (threads != 1) expect_identical_trees(dir, base_dir.path());
  }
  // The tree ends at the schedule's last boundary.
  const ckpt::Snapshot latest = ckpt::load_latest(base_dir.path());
  EXPECT_EQ(latest.manifest.iteration, 3);
  EXPECT_EQ(latest.manifest.chunk, 0);
}

ParallelResult run_gd(int threads, const std::string& ckpt_dir) {
  GdConfig config;
  config.nranks = 2;
  config.iterations = 2;
  config.passes_per_iteration = 2;
  config.mode = UpdateMode::kFullBatch;
  config.exec.threads = threads;
  if (!ckpt_dir.empty()) config.exec.checkpoint = ckpt::Policy{ckpt_dir, 1};
  return reconstruct_gd(tiny_dataset(), config);
}

TEST(AsyncEquivalence, GdBitwiseAcrossThreads) {
  const ParallelResult base = run_gd(1, "");
  ASSERT_FALSE(base.cost.values().empty());
  ScratchDir base_dir("gd_1t");
  for (const int threads : {1, 2, 4}) {
    ScratchDir scratch("gd_nt");
    const std::string& dir = threads == 1 ? base_dir.path() : scratch.path();
    const ParallelResult result = run_gd(threads, dir);
    ASSERT_EQ(result.volume.data.bytes(), base.volume.data.bytes());
    EXPECT_EQ(std::memcmp(result.volume.data.data(), base.volume.data.data(),
                          base.volume.data.bytes()),
              0)
        << "threads=" << threads;
    ASSERT_EQ(result.cost.values().size(), base.cost.values().size());
    for (usize i = 0; i < base.cost.values().size(); ++i) {
      EXPECT_EQ(result.cost.values()[i], base.cost.values()[i])
          << "threads=" << threads << " iter=" << i;
    }
    if (threads != 1) expect_identical_trees(dir, base_dir.path());
  }
}

TEST(AsyncEquivalence, CheckpointingGdCostsLessThanOneAccBuf) {
  // A due snapshot does not read the AccBuf, so the background shard write
  // overlaps the next sweep without a second buffer. Checkpointing every
  // chunk raises no rank's tracked peak by as much as one extended-tile
  // AccBuf (91,200 bytes here). Measured on x86-64 Linux: it raises it by
  // 0 bytes — both runs peak at 862,336 bytes on each rank.
  GdConfig config;
  config.nranks = 2;
  config.iterations = 2;
  config.mode = UpdateMode::kFullBatch;
  config.exec.threads = 1;
  const ParallelResult plain = reconstruct_gd(tiny_dataset(), config);
  ScratchDir dir("peak");
  config.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  const ParallelResult checkpointing = reconstruct_gd(tiny_dataset(), config);
  const Partition partition = make_gd_partition(tiny_dataset(), config);
  ASSERT_EQ(plain.peak_bytes.size(), 2u);
  ASSERT_EQ(checkpointing.peak_bytes.size(), 2u);
  for (int rank = 0; rank < 2; ++rank) {
    const usize accbuf_bytes = static_cast<usize>(tiny_dataset().spec.slices *
                                                  partition.tile(rank).extended.area()) *
                               sizeof(cplx);
    const usize plain_peak = plain.peak_bytes[static_cast<usize>(rank)];
    const usize ckpt_peak = checkpointing.peak_bytes[static_cast<usize>(rank)];
    EXPECT_GT(plain_peak, 0u);
    EXPECT_LT(ckpt_peak, plain_peak + accbuf_bytes) << "rank=" << rank;
  }
}

TEST(AsyncEquivalence, HveBitwiseInBothLocalModes) {
  const auto run = [](UpdateMode mode, int threads) {
    HveConfig config;
    config.nranks = 4;
    config.iterations = 3;
    config.local_epochs = 2;
    config.mode = mode;
    config.exec.threads = threads;
    return reconstruct_hve(tiny_dataset(), config);
  };
  // SGD (the historical sequential local loop) ignores the thread count.
  const ParallelResult sgd_base = run(UpdateMode::kSgd, 1);
  const ParallelResult sgd_threads = run(UpdateMode::kSgd, 4);
  ASSERT_EQ(sgd_threads.volume.data.bytes(), sgd_base.volume.data.bytes());
  EXPECT_EQ(std::memcmp(sgd_threads.volume.data.data(), sgd_base.volume.data.data(),
                        sgd_base.volume.data.bytes()),
            0);

  // Full-batch: the BatchSweeper route is bitwise stable across thread
  // counts.
  const ParallelResult fb_base = run(UpdateMode::kFullBatch, 1);
  ASSERT_FALSE(fb_base.cost.values().empty());
  for (const int threads : {2, 4}) {
    const ParallelResult result = run(UpdateMode::kFullBatch, threads);
    ASSERT_EQ(result.volume.data.bytes(), fb_base.volume.data.bytes());
    EXPECT_EQ(std::memcmp(result.volume.data.data(), fb_base.volume.data.data(),
                          fb_base.volume.data.bytes()),
              0)
        << "threads=" << threads;
    ASSERT_EQ(result.cost.values().size(), fb_base.cost.values().size());
    for (usize i = 0; i < fb_base.cost.values().size(); ++i) {
      EXPECT_EQ(result.cost.values()[i], fb_base.cost.values()[i]) << "iter=" << i;
    }
  }
}

// --- fault-injected elastic restore with shard writes in flight ---------------

TEST(AsyncEquivalence, ElasticRestoreWithInFlightBackgroundShards) {
  // A K=6 run (shard writes in flight on the background slot) dies at a
  // fault point; the latest *complete* snapshot is the one finalized
  // before the fault, and the elastic K'=4 restore matches the
  // uninterrupted run.
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("elastic_async");

  GdConfig reference;
  reference.nranks = 6;
  reference.iterations = 6;
  reference.mode = UpdateMode::kFullBatch;
  reference.exec.threads = 2;
  ParallelResult uninterrupted = reconstruct_gd(dataset, reference);

  GdConfig interrupted = reference;
  interrupted.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  interrupted.fault = rt::FaultPlan{4, 4};
  EXPECT_THROW(reconstruct_gd(dataset, interrupted), rt::RankFailure);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  EXPECT_EQ(snap.manifest.nranks, 6);
  EXPECT_EQ(snap.manifest.iteration, 3);

  GdConfig restored = reference;
  restored.nranks = 4;
  restored.restore = &snap;
  ParallelResult resumed = reconstruct_gd(dataset, restored);

  ASSERT_EQ(resumed.cost.values().size(), uninterrupted.cost.values().size());
  for (usize i = 0; i < resumed.cost.values().size(); ++i) {
    EXPECT_NEAR(resumed.cost.values()[i] / uninterrupted.cost.values()[i], 1.0, 1e-3)
        << "iter=" << i;
  }
  EXPECT_LT(volume_rel_diff(resumed.volume, uninterrupted.volume), 5e-4);
}

}  // namespace
}  // namespace ptycho
