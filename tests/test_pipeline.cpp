// Pipeline / scheduler tests: the pass-graph structure, the
// WorkStealingScheduler's coverage contract, and the scheduler-equivalence
// property — reconstructions are bitwise identical across {1,2,4} threads
// (including odd batch remainders), and a fault-injected elastic restore
// runs through the same pipeline on a multi-slot work-stealing pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/error.hpp"
#include "common/function_ref.hpp"
#include "common/parallel.hpp"
#include "core/gradient_decomposition.hpp"
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
      : path_((fs::temp_directory_path() / ("ptycho_pipeline_" + name)).string()) {
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

// --- function_ref ------------------------------------------------------------

TEST(FunctionRef, CallsThroughWithoutOwnership) {
  int hits = 0;
  const auto add = [&hits](index_t v) {
    hits += static_cast<int>(v);
    return static_cast<index_t>(hits);
  };
  function_ref<index_t(index_t)> ref = add;
  ASSERT_TRUE(static_cast<bool>(ref));
  EXPECT_EQ(ref(3), 3);
  EXPECT_EQ(ref(4), 7);
  EXPECT_EQ(hits, 7);
  function_ref<index_t(index_t)> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

// --- work-stealing scheduler -------------------------------------------------

TEST(WorkStealingScheduler, CoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    WorkStealingScheduler scheduler(pool);
    for (const index_t n : {index_t{1}, index_t{7}, index_t{100}, index_t{257}}) {
      std::vector<std::atomic<int>> hits(static_cast<usize>(n));
      scheduler.dispatch(0, n, [&](index_t i, int slot) {
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, threads);
        hits[static_cast<usize>(i)].fetch_add(1);
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(WorkStealingScheduler, HandlesOffsetsAndEmptyRanges) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  int calls = 0;
  scheduler.dispatch(5, 5, [&](index_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Offset range: still exactly once.
  std::vector<std::atomic<int>> hits(11);
  scheduler.dispatch(100, 111, [&](index_t i, int) {
    ASSERT_GE(i, 100);
    ASSERT_LT(i, 111);
    hits[static_cast<usize>(i - 100)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingScheduler, StealsFromAnUnevenLoad) {
  // Slot 0's block is made pathologically slow; the other slots must
  // finish the tail of its range for the dispatch to complete quickly.
  // Completion itself (no deadlock, full coverage) is the contract; we
  // additionally observe that some item of slot 0's initial block was
  // executed by another slot.
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  const index_t n = 64;  // block per slot = 16
  std::vector<std::atomic<int>> executed_by(static_cast<usize>(n));
  scheduler.dispatch(0, n, [&](index_t i, int slot) {
    executed_by[static_cast<usize>(i)].store(slot + 1);
    if (i == 0) {
      // Busy-wait until someone steals from our block (or the block is
      // fully drained by thieves); bounded so a broken scheduler fails
      // the coverage assert instead of hanging.
      for (int spin = 0; spin < 2000000; ++spin) {
        bool stolen = false;
        for (index_t k = 1; k < 16; ++k) {
          const int by = executed_by[static_cast<usize>(k)].load();
          if (by != 0 && by != 1) stolen = true;
        }
        if (stolen) break;
        std::this_thread::yield();
      }
    }
  });
  int stolen_items = 0;
  for (index_t k = 1; k < 16; ++k) {
    const int by = executed_by[static_cast<usize>(k)].load();
    EXPECT_NE(by, 0) << "item " << k << " never ran";
    if (by != 1) ++stolen_items;
  }
  EXPECT_GT(stolen_items, 0) << "no item of the stalled slot's block was stolen";
}

TEST(WorkStealingScheduler, PropagatesExceptions) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  EXPECT_THROW(scheduler.dispatch(0, 64,
                                  [&](index_t i, int) {
                                    if (i == 40) throw Error("boom");
                                  }),
               Error);
  // Scheduler and pool stay usable after a failed dispatch.
  std::atomic<int> ran{0};
  scheduler.dispatch(0, 16, [&](index_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

// --- pipeline structure ------------------------------------------------------

/// Minimal pass that records the (iteration, chunk) trace it sees.
class TracePass final : public Pass {
 public:
  explicit TracePass(std::vector<std::pair<int, int>>& chunks, std::vector<int>& iterations)
      : chunks_(chunks), iterations_(iterations) {}
  [[nodiscard]] const char* name() const override { return "trace"; }
  void on_chunk(SolverState&, const StepPoint& point) override {
    chunks_.emplace_back(point.iteration, point.chunk);
    // Item ranges must tile [0, items) in order within each iteration.
    EXPECT_LE(point.begin, point.end);
  }
  void on_iteration(SolverState&, int iteration) override { iterations_.push_back(iteration); }

 private:
  std::vector<std::pair<int, int>>& chunks_;
  std::vector<int>& iterations_;
};

TEST(ReconstructionPipeline, DrivesScheduleInOrder) {
  std::vector<std::pair<int, int>> chunks;
  std::vector<int> iterations;
  ReconstructionPipeline pipeline;
  pipeline.emplace<TracePass>(chunks, iterations);
  EXPECT_EQ(pipeline.describe(), "trace");
  EXPECT_EQ(pipeline.size(), 1u);

  SolverState state;
  PipelineSchedule schedule;
  schedule.iterations = 3;
  schedule.chunks_per_iteration = 2;
  schedule.start_iteration = 1;
  schedule.start_chunk = 1;  // exact-resume entry point
  schedule.items = 10;
  pipeline.run(state, schedule);

  const std::vector<std::pair<int, int>> want_chunks = {{1, 1}, {2, 0}, {2, 1}};
  EXPECT_EQ(chunks, want_chunks);
  const std::vector<int> want_iters = {1, 2};
  EXPECT_EQ(iterations, want_iters);
}

TEST(ReconstructionPipeline, DescribeListsPassGraphInOrder) {
  // The serial full-batch graph, as the solver builds it.
  const Dataset& dataset = tiny_dataset();
  GradientEngine engine(dataset);
  ReconstructionPipeline pipeline;
  pipeline.emplace<SweepPass>(engine, UpdateMode::kFullBatch, 1, SweepPass::Items{},
                              RefineSchedule{});
  pipeline.emplace<ApplyUpdatePass>(UpdateMode::kFullBatch, false);
  auto ckpt_pass = std::make_unique<CheckpointPass>(ckpt::Policy{}, ckpt::RunInfo{});
  pipeline.emplace<CheckpointFinalizePass>(*ckpt_pass);
  pipeline.emplace<ProbeRefinePass>(RefineSchedule{}, real(0.3), dataset.probe_count(), 1.0);
  pipeline.emplace<CostRecordPass>(true);
  pipeline.add(std::move(ckpt_pass));
  EXPECT_EQ(pipeline.describe(),
            "sweep -> update -> checkpoint-finalize -> probe-refine -> cost-record -> "
            "checkpoint");
}

// --- scheduler equivalence ---------------------------------------------------

SerialResult run_serial(int threads) {
  SerialConfig config;
  config.iterations = 3;
  // 36 probes over 3 chunks: 12-item ranges — every batch is an odd
  // remainder (12 < kBatch=16), exercising the partial-batch path.
  config.chunks_per_iteration = 3;
  config.mode = UpdateMode::kFullBatch;
  config.refine_probe = true;
  config.exec.threads = threads;
  return reconstruct_serial(tiny_dataset(), config);
}

TEST(SchedulerEquivalence, SerialBitwiseAcrossThreads) {
  const SerialResult base = run_serial(1);
  ASSERT_FALSE(base.cost.values().empty());
  for (const int threads : {2, 4}) {
    const SerialResult result = run_serial(threads);
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
  }
}

TEST(SchedulerEquivalence, GdBitwiseAcrossThreads) {
  const auto run = [](int threads) {
    GdConfig config;
    config.nranks = 2;
    config.iterations = 2;
    config.mode = UpdateMode::kFullBatch;
    config.exec.threads = threads;
      return reconstruct_gd(tiny_dataset(), config);
  };
  const ParallelResult base = run(1);
  for (const int threads : {2, 4}) {
    const ParallelResult result = run(threads);
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
  }
}

// --- fault-injected elastic restore through the pipeline ---------------------

TEST(SchedulerEquivalence, ElasticRestoreMidPipelineUnderWorkStealing) {
  // A K=6 run sweeping on two work-stealing slots per rank dies mid-run;
  // the elastic K'=4 restore (also two slots) finishes the reconstruction
  // and matches the uninterrupted run — checkpoint passes, fault points
  // and the restore path all live inside the same pipeline.
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("elastic_ws");

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
