// Tests for the intra-rank parallel layer: ThreadPool semantics, the
// BatchSweeper's ordered reduction, the bitwise thread-count-independence
// of full-batch reconstruction, and the transmittance cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/gradient_decomposition.hpp"
#include "core/reconstructor.hpp"
#include "core/sweep.hpp"
#include "data/synthetic.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

using testing::tiny_dataset;

TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(0, 100, [&](index_t i, int slot) {
      ASSERT_GE(slot, 0);
      ASSERT_LT(slot, threads);
      hits[static_cast<usize>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SlotAssignmentIsStatic) {
  // Item -> slot must depend only on the range and slot count, never on
  // scheduling: slot s owns the contiguous block [s*chunk, (s+1)*chunk).
  ThreadPool pool(4);
  std::vector<int> slot_of(103, -1);
  pool.parallel_for(0, 103, [&](index_t i, int slot) {
    slot_of[static_cast<usize>(i)] = slot;
  });
  const index_t chunk = (103 + 4 - 1) / 4;  // 26
  for (index_t i = 0; i < 103; ++i) {
    EXPECT_EQ(slot_of[static_cast<usize>(i)], static_cast<int>(i / chunk)) << "i=" << i;
  }
}

TEST(ThreadPool, EmptyAndSingleItemRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, [&](index_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](index_t i, int) {
    EXPECT_EQ(i, 7);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](index_t i, int) {
                                   if (i == 40) throw Error("boom");
                                 }),
               Error);
  // The pool must stay usable after a failed region.
  std::atomic<int> ran{0};
  pool.parallel_for(0, 16, [&](index_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, HardwareThreadsIsPositive) { EXPECT_GE(ThreadPool::hardware_threads(), 1); }

// --- BatchSweeper ------------------------------------------------------------

/// Sequential reference: the historical per-probe loop of the serial
/// solver's full-batch sweep.
double reference_sweep(const Dataset& dataset, const FramedVolume& volume,
                       AccumulationBuffer& accbuf, CArray2D* probe_grad) {
  GradientEngine engine(dataset);
  MultisliceWorkspace ws = engine.make_workspace();
  const auto n = static_cast<index_t>(dataset.spec.grid.probe_n);
  FramedVolume grad(dataset.spec.slices, Rect{0, 0, n, n});
  double cost = 0.0;
  for (index_t i = 0; i < dataset.probe_count(); ++i) {
    grad.frame = engine.window(i);
    grad.data.fill(cplx{});
    View2D<cplx> pg_view;
    View2D<cplx>* pg = nullptr;
    if (probe_grad != nullptr) {
      pg_view = probe_grad->view();
      pg = &pg_view;
    }
    cost += engine.probe_gradient_joint(i, dataset.probe,
                                        dataset.measurements[static_cast<usize>(i)].view(),
                                        volume, grad, ws, pg);
    accbuf.accumulate(grad, grad.frame);
  }
  return cost;
}

TEST(BatchSweeper, MatchesSequentialLoopBitwise) {
  const Dataset& dataset = tiny_dataset();
  FramedVolume volume = make_vacuum_volume(dataset.field(), dataset.spec.slices);

  AccumulationBuffer ref_buf(dataset.spec.slices, volume.frame);
  CArray2D ref_pg(dataset.probe.n(), dataset.probe.n());
  const double ref_cost = reference_sweep(dataset, volume, ref_buf, &ref_pg);

  for (const int threads : {1, 3}) {
    GradientEngine engine(dataset);
    ThreadPool pool(threads);
    BatchSweeper sweeper(engine, pool);
    AccumulationBuffer buf(dataset.spec.slices, volume.frame);
    CArray2D pg(dataset.probe.n(), dataset.probe.n());
    View2D<cplx> pg_view = pg.view();
    double cost = 0.0;
    sweeper.sweep(
        0, dataset.probe_count(), dataset.probe, volume, buf, cost, &pg_view,
        [](index_t item) { return item; },
        [&](index_t item) { return dataset.measurements[static_cast<usize>(item)].view(); });
    EXPECT_EQ(cost, ref_cost) << "threads=" << threads;
    EXPECT_EQ(std::memcmp(buf.volume().data.data(), ref_buf.volume().data.data(),
                          buf.volume().data.bytes()),
              0)
        << "threads=" << threads;
    EXPECT_EQ(std::memcmp(pg.data(), ref_pg.data(), pg.bytes()), 0) << "threads=" << threads;
  }
}

// --- end-to-end determinism --------------------------------------------------

SerialResult run_fullbatch(int threads) {
  SerialConfig config;
  config.iterations = 3;
  config.chunks_per_iteration = 2;
  config.mode = UpdateMode::kFullBatch;
  config.refine_probe = true;
  config.exec.threads = threads;
  return reconstruct_serial(tiny_dataset(), config);
}

TEST(Determinism, FullBatchBitwiseIdenticalAcrossThreadCounts) {
  const SerialResult base = run_fullbatch(1);
  ASSERT_FALSE(base.cost.values().empty());
  for (const int threads : {2, 4}) {
    const SerialResult result = run_fullbatch(threads);
    // Volume, refined probe, and the cost trace: all bitwise identical.
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

TEST(Determinism, GdFullBatchBitwiseIdenticalAcrossThreadCounts) {
  const auto run = [](int threads) {
    GdConfig config;
    config.nranks = 2;
    config.iterations = 2;
    config.mode = UpdateMode::kFullBatch;
    config.exec.threads = threads;
    return reconstruct_gd(tiny_dataset(), config);
  };
  const ParallelResult base = run(1);
  const ParallelResult result = run(2);
  ASSERT_EQ(result.volume.data.bytes(), base.volume.data.bytes());
  EXPECT_EQ(std::memcmp(result.volume.data.data(), base.volume.data.data(),
                        base.volume.data.bytes()),
            0);
  ASSERT_EQ(result.cost.values().size(), base.cost.values().size());
  for (usize i = 0; i < base.cost.values().size(); ++i) {
    EXPECT_EQ(result.cost.values()[i], base.cost.values()[i]) << "iter=" << i;
  }
}

// --- transmittance cache -----------------------------------------------------

TEST(TransmittanceCache, HitMatchesFreshEvaluationAndInvalidates) {
  const OpticsGrid grid = tiny_dataset().spec.grid;
  MultisliceConfig mc;
  mc.model = ObjectModel::kPotential;
  mc.sigma = real(0.8);
  MultisliceOperator op(grid, mc);
  Probe probe = tiny_dataset().probe.clone();

  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  const index_t slices = 2;
  FramedVolume volume = make_vacuum_volume(window, slices);
  volume.data.fill(cplx(real(0.3), real(0.1)));
  volume.bump_revision();  // direct fill above bypassed apply_gradient

  // Measurements come from a *different* ground truth so the cost and
  // gradient at `volume` are nonzero (a descent step visibly moves them).
  FramedVolume truth = make_vacuum_volume(window, slices);
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) {
        truth.data(s, y, x) = cplx(real(0.2) + real(0.01) * static_cast<real>((x + y) % 5),
                                   real(0.05) * static_cast<real>(x % 3));
      }
    }
  }
  RArray2D mag(n, n);
  MultisliceWorkspace fresh(n, slices);
  op.simulate_magnitude(probe, truth, window, fresh, mag.view());

  MultisliceWorkspace cached(n, slices);
  cached.cache_transmittance = true;
  FramedVolume grad_a(slices, window);
  FramedVolume grad_b(slices, window);
  MultisliceWorkspace ws_b(n, slices);
  const double cost_first = op.cost_and_gradient(probe, volume, window, mag.view(), grad_a, cached);
  // Second evaluation hits the cache (same revision, same window) and must
  // equal an evaluation through a cold workspace bitwise.
  grad_a.data.fill(cplx{});
  const double cost_cached = op.cost_and_gradient(probe, volume, window, mag.view(), grad_a, cached);
  const double cost_cold = op.cost_and_gradient(probe, volume, window, mag.view(), grad_b, ws_b);
  EXPECT_EQ(cost_cached, cost_first);
  EXPECT_EQ(cost_cached, cost_cold);
  EXPECT_EQ(std::memcmp(grad_a.data.data(), grad_b.data.data(), grad_a.data.bytes()), 0);

  // apply_gradient is the invalidation hook: after it, the cached
  // workspace must agree with a cold one on the *updated* volume.
  apply_gradient(volume, grad_b, window, real(0.05));
  grad_a.data.fill(cplx{});
  grad_b.data.fill(cplx{});
  const double cost_after = op.cost_and_gradient(probe, volume, window, mag.view(), grad_a, cached);
  MultisliceWorkspace ws_c(n, slices);
  const double cost_after_cold =
      op.cost_and_gradient(probe, volume, window, mag.view(), grad_b, ws_c);
  EXPECT_EQ(cost_after, cost_after_cold);
  EXPECT_NE(cost_after, cost_first);  // the update really changed the volume
  EXPECT_EQ(std::memcmp(grad_a.data.data(), grad_b.data.data(), grad_a.data.bytes()), 0);
}

TEST(TransmittanceCache, RevisionTokensAreUniquePerConstruction) {
  FramedVolume a(1, Rect{0, 0, 4, 4});
  FramedVolume b(1, Rect{0, 0, 4, 4});
  EXPECT_NE(a.revision, 0u);
  EXPECT_NE(a.revision, b.revision);
  const std::uint64_t before = a.revision;
  a.bump_revision();
  EXPECT_NE(a.revision, before);
  EXPECT_NE(a.revision, b.revision);
  // clone() issues a fresh token too (content-equal, but never aliased).
  const FramedVolume c = a.clone();
  EXPECT_NE(c.revision, a.revision);
}

}  // namespace
}  // namespace ptycho
