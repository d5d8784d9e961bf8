// Async pass-graph execution tests: the dependency DAG the declared access
// sets imply, the async executor's bitwise-identity contract (serial, GD
// and HVE reconstructions — including every checkpoint byte on disk —
// match the sync schedule exactly across thread counts), the background
// slot, the split-phase allreduce, and a fault-injected elastic restore
// driven through the async pipeline.
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
#include "core/gradient_decomposition.hpp"
#include "core/halo_voxel_exchange.hpp"
#include "core/passes.hpp"
#include "core/pipeline.hpp"
#include "core/serial_solver.hpp"
#include "runtime/collectives.hpp"
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
/// file set, same contents. The strongest form of "async snapshots equal
/// sync snapshots".
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

// --- mode / schedule parsing -------------------------------------------------

TEST(PipelineMode, ParseAndPrint) {
  EXPECT_EQ(pipeline_mode_from_string("sync"), PipelineMode::kSync);
  EXPECT_EQ(pipeline_mode_from_string("async"), PipelineMode::kAsync);
  EXPECT_THROW((void)pipeline_mode_from_string("turbo"), Error);
  EXPECT_STREQ(to_string(PipelineMode::kSync), "sync");
  EXPECT_STREQ(to_string(PipelineMode::kAsync), "async");
}

// --- topological order / cycle detection -------------------------------------

TEST(TopologicalOrder, ProducesValidLinearExtension) {
  // Diamond: 0 -> {1, 2} -> 3 (deps point backwards).
  const std::vector<std::vector<int>> deps = {{}, {0}, {0}, {1, 2}};
  const std::vector<int> order = topological_order(deps);
  ASSERT_EQ(order.size(), 4u);
  std::vector<int> position(4);
  for (int i = 0; i < 4; ++i) position[static_cast<usize>(order[static_cast<usize>(i)])] = i;
  for (int node = 0; node < 4; ++node) {
    for (const int dep : deps[static_cast<usize>(node)]) {
      EXPECT_LT(position[static_cast<usize>(dep)], position[static_cast<usize>(node)])
          << dep << " must precede " << node;
    }
  }
}

TEST(TopologicalOrder, ThrowsOnCycle) {
  EXPECT_THROW((void)topological_order({{1}, {0}}), Error);
  EXPECT_THROW((void)topological_order({{2}, {0}, {1}}), Error);
  // Self-loop.
  EXPECT_THROW((void)topological_order({{0}}), Error);
}

// --- access sets & derived DAG -----------------------------------------------

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
  // The serial full-batch graph with a deferred checkpoint, as the solver
  // builds it under --pipeline async.
  const Dataset& dataset = tiny_dataset();
  GradientEngine engine(dataset);
  ckpt::RunInfo run;
  run.chunks_per_iteration = 2;
  auto ckpt_pass = std::make_unique<CheckpointPass>(ckpt::Policy{"/tmp/unused", 1},
                                                    std::move(run), /*deferred=*/true);
  CheckpointPass& writer = *ckpt_pass;
  ReconstructionPipeline pipeline;
  pipeline.emplace<SweepPass>(engine, UpdateMode::kFullBatch, 1, SweepPass::Items{},
                              RefineSchedule{});
  pipeline.emplace<ApplyUpdatePass>(UpdateMode::kFullBatch, false);
  pipeline.emplace<CheckpointFinalizePass>(writer);
  pipeline.add(std::move(ckpt_pass));
  EXPECT_EQ(pipeline.describe(), "sweep -> update -> checkpoint-finalize -> checkpoint");

  // Mid-iteration point with a due snapshot: chunk 0 of 2 at every=1.
  StepPoint due;
  due.iteration = 0;
  due.chunk = 0;
  due.chunks = 2;
  const PassDag dag = pipeline.chunk_dag(due);
  ASSERT_EQ(dag.deps.size(), 4u);
  EXPECT_TRUE(dag.deps[0].empty());  // sweep has no earlier dependency
  // update RAW/WAW-depends on sweep (AccBuf).
  EXPECT_EQ(dag.deps[1], (std::vector<int>{0}));
  // finalize reads the checkpoint dir — no hazard with sweep/update.
  EXPECT_TRUE(dag.deps[2].empty());
  // The due checkpoint reads V (update wrote) and writes the directory
  // the finalize pass reads. It does not read AccBuf, which is zero at
  // every snapshot point, so it does not wait on the sweep.
  EXPECT_EQ(dag.deps[3], (std::vector<int>{1, 2}));

  // Last chunk of the iteration: the chunk hook is not due, so the
  // checkpoint declares nothing and falls out of the chunk DAG entirely.
  StepPoint last = due;
  last.chunk = 1;
  const PassDag quiet = pipeline.chunk_dag(last);
  EXPECT_TRUE(quiet.deps[3].empty());

  // Sanity: every hazard DAG is acyclic by construction (deps point
  // backwards), so list order must be a valid topological order.
  EXPECT_NO_THROW((void)topological_order(dag.deps));
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

// --- async validation --------------------------------------------------------

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
  // Sync mode never validates (the pass runs inline, which is sound).
  EXPECT_NO_THROW(pipeline.run(state, schedule));
  PipelineOptions async;
  async.mode = PipelineMode::kAsync;
  EXPECT_THROW(pipeline.run(state, schedule, async), Error);
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

// --- async == sync bitwise identity ------------------------------------------

SerialResult run_serial(int threads, PipelineMode pipeline, const std::string& ckpt_dir) {
  SerialConfig config;
  config.iterations = 3;
  // 36 probes over 3 chunks: 12-item ranges, odd batch remainders.
  config.chunks_per_iteration = 3;
  config.mode = UpdateMode::kFullBatch;
  config.refine_probe = true;
  config.exec.threads = threads;
  config.exec.pipeline = pipeline;
  config.exec.checkpoint = ckpt::Policy{ckpt_dir, 1};
  return reconstruct_serial(tiny_dataset(), config);
}

TEST(AsyncEquivalence, SerialBitwiseIncludingCheckpointBytes) {
  ScratchDir base_dir("serial_sync");
  const SerialResult base = run_serial(1, PipelineMode::kSync, base_dir.path());
  ASSERT_FALSE(base.cost.values().empty());
  for (const int threads : {1, 2, 4}) {
    ScratchDir dir("serial_async");
    const SerialResult result = run_serial(threads, PipelineMode::kAsync, dir.path());
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
    // Every deferred snapshot was finalized (manifest-complete) and the
    // whole checkpoint tree matches the sync run byte for byte.
    expect_identical_trees(dir.path(), base_dir.path());
  }
  // The sync tree itself ends at the schedule's last boundary.
  const ckpt::Snapshot latest = ckpt::load_latest(base_dir.path());
  EXPECT_EQ(latest.manifest.iteration, 3);
  EXPECT_EQ(latest.manifest.chunk, 0);
}

TEST(AsyncEquivalence, GdBitwiseAcrossThreads) {
  const auto run = [](int threads, PipelineMode pipeline, const std::string& dir) {
    GdConfig config;
    config.nranks = 2;
    config.iterations = 2;
    config.passes_per_iteration = 2;
    config.mode = UpdateMode::kFullBatch;
    config.exec.threads = threads;
      config.exec.pipeline = pipeline;
    config.exec.checkpoint = ckpt::Policy{dir, 1};
    return reconstruct_gd(tiny_dataset(), config);
  };
  ScratchDir base_dir("gd_sync");
  const ParallelResult base = run(1, PipelineMode::kSync, base_dir.path());
  for (const int threads : {1, 2, 4}) {
    ScratchDir dir("gd_async");
    const ParallelResult result = run(threads, PipelineMode::kAsync, dir.path());
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
    expect_identical_trees(dir.path(), base_dir.path());
  }
}

TEST(AsyncEquivalence, CheckpointingGdCostsWhatSyncCosts) {
  // A due snapshot does not read the AccBuf, so the background shard write
  // overlaps the next sweep without a second buffer: each rank's tracked
  // peak is the same in both modes.
  const auto run = [](PipelineMode pipeline, const std::string& dir) {
    GdConfig config;
    config.nranks = 2;
    config.iterations = 2;
    config.mode = UpdateMode::kFullBatch;
    config.exec.threads = 1;
    config.exec.pipeline = pipeline;
    config.exec.checkpoint = ckpt::Policy{dir, 1};
    return reconstruct_gd(tiny_dataset(), config);
  };
  ScratchDir sync_dir("peak_sync");
  ScratchDir async_dir("peak_async");
  const ParallelResult sync = run(PipelineMode::kSync, sync_dir.path());
  const ParallelResult async = run(PipelineMode::kAsync, async_dir.path());
  ASSERT_EQ(sync.peak_bytes.size(), 2u);
  EXPECT_GT(sync.peak_bytes[0], 0u);
  EXPECT_EQ(async.peak_bytes, sync.peak_bytes);
}

TEST(AsyncEquivalence, HveBitwiseInBothLocalModes) {
  const auto run = [](UpdateMode mode, int threads, PipelineMode pipeline) {
    HveConfig config;
    config.nranks = 4;
    config.iterations = 3;
    config.local_epochs = 2;
    config.mode = mode;
    config.exec.threads = threads;
      config.exec.pipeline = pipeline;
    return reconstruct_hve(tiny_dataset(), config);
  };
  // SGD (the historical local loop): async must not perturb it.
  const ParallelResult sgd_base = run(UpdateMode::kSgd, 1, PipelineMode::kSync);
  const ParallelResult sgd_async = run(UpdateMode::kSgd, 1, PipelineMode::kAsync);
  ASSERT_EQ(sgd_async.volume.data.bytes(), sgd_base.volume.data.bytes());
  EXPECT_EQ(std::memcmp(sgd_async.volume.data.data(), sgd_base.volume.data.data(),
                        sgd_base.volume.data.bytes()),
            0);

  // Full-batch: the BatchSweeper route is bitwise stable across thread
  // counts and pipeline modes (the satellite contract).
  const ParallelResult fb_base = run(UpdateMode::kFullBatch, 1, PipelineMode::kSync);
  ASSERT_FALSE(fb_base.cost.values().empty());
  for (const int threads : {1, 2, 4}) {
    for (const PipelineMode pipeline : {PipelineMode::kSync, PipelineMode::kAsync}) {
      const ParallelResult result = run(UpdateMode::kFullBatch, threads, pipeline);
      ASSERT_EQ(result.volume.data.bytes(), fb_base.volume.data.bytes());
      EXPECT_EQ(std::memcmp(result.volume.data.data(), fb_base.volume.data.data(),
                            fb_base.volume.data.bytes()),
                0)
          << "threads=" << threads << " " << to_string(pipeline);
      ASSERT_EQ(result.cost.values().size(), fb_base.cost.values().size());
      for (usize i = 0; i < fb_base.cost.values().size(); ++i) {
        EXPECT_EQ(result.cost.values()[i], fb_base.cost.values()[i]) << "iter=" << i;
      }
    }
  }
}

// --- fault-injected elastic restore under the async pipeline -----------------

TEST(AsyncEquivalence, ElasticRestoreWithInFlightBackgroundShards) {
  // A K=6 async run (deferred shard writes in flight on the background
  // slot) dies at the same fault point as the sync test; the latest
  // *complete* snapshot must be the one a sync run would have finalized,
  // and the elastic K'=4 restore — itself async — matches the
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
  interrupted.exec.pipeline = PipelineMode::kAsync;
  interrupted.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  interrupted.fault = rt::FaultPlan{4, 4};
  EXPECT_THROW(reconstruct_gd(dataset, interrupted), rt::RankFailure);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  EXPECT_EQ(snap.manifest.nranks, 6);
  EXPECT_EQ(snap.manifest.iteration, 3);

  GdConfig restored = reference;
  restored.nranks = 4;
  restored.exec.pipeline = PipelineMode::kAsync;
  restored.restore = &snap;
  ParallelResult resumed = reconstruct_gd(dataset, restored);

  ASSERT_EQ(resumed.cost.values().size(), uninterrupted.cost.values().size());
  for (usize i = 0; i < resumed.cost.values().size(); ++i) {
    EXPECT_NEAR(resumed.cost.values()[i] / uninterrupted.cost.values()[i], 1.0, 1e-3)
        << "iter=" << i;
  }
  EXPECT_LT(volume_rel_diff(resumed.volume, uninterrupted.volume), 5e-4);
}

// --- split-phase allreduce ---------------------------------------------------

TEST(AllreduceHandle, SplitPhaseMatchesBlockingResult) {
  for (const int nranks : {1, 2, 3, 4, 5, 8}) {
    rt::VirtualCluster cluster(nranks);
    std::atomic<int> failures{0};
    cluster.run([&](rt::RankContext& ctx) {
      std::vector<cplx> buf(16);
      for (usize i = 0; i < buf.size(); ++i) {
        buf[i] = cplx(static_cast<real>(ctx.rank() + 1), static_cast<real>(i));
      }
      rt::AllreduceHandle handle(ctx, buf, rt::Phase::kTest, 61);
      // Unrelated work between the phases — including fabric traffic on a
      // different tag, which must not cross with the collective.
      if (ctx.nranks() > 1) {
        const int peer = ctx.rank() ^ 1;
        if (peer < ctx.nranks()) {
          ctx.isend(peer, rt::make_tag(rt::Phase::kTest, 1000 + ctx.rank()), std::vector<cplx>{cplx(1, 2)});
          const std::vector<cplx> got = ctx.recv(peer, rt::make_tag(rt::Phase::kTest, 1000 + peer));
          if (got.size() != 1) failures.fetch_add(1);
        }
      }
      handle.finish();
      const double expected_re = static_cast<double>(nranks) * (nranks + 1) / 2.0;
      for (usize i = 0; i < buf.size(); ++i) {
        if (std::abs(static_cast<double>(buf[i].real()) - expected_re) > 1e-4 ||
            std::abs(static_cast<double>(buf[i].imag()) -
                     static_cast<double>(i * static_cast<usize>(nranks))) > 1e-4) {
          failures.fetch_add(1);
        }
      }
    });
    EXPECT_EQ(failures.load(), 0) << "nranks=" << nranks;
  }
}

}  // namespace
}  // namespace ptycho
