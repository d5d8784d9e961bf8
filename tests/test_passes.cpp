// Property tests for the gradient-accumulation passes (paper Secs. III-V).
//
// Central invariant: decomposing per-probe gradients onto tiles and
// running the forward/backward sweep must reproduce the *exact* total
// image gradient (Eqn. 2) on every voxel of every tile's extended region,
// for any mesh and any probe overlap ratio. The direct-neighbor scheme
// must match only in the low-overlap regime (Fig. 3(d) shows why).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <mutex>

#include "core/accbuf.hpp"
#include "core/optimizer.hpp"
#include "core/passes.hpp"
#include "partition/assignment.hpp"
#include "runtime/cluster.hpp"

namespace ptycho {
namespace {

// Deterministic synthetic "gradient" of probe `id` at voxel (s, y, x):
// any rank can evaluate it without communication.
cplx synthetic_gradient(index_t id, index_t s, index_t y, index_t x) {
  std::uint64_t h = static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(s) * 0xBF58476D1CE4E5B9ULL;
  h ^= static_cast<std::uint64_t>(y) * 0x94D049BB133111EBULL;
  h ^= static_cast<std::uint64_t>(x) * 0xD6E8FEB86659FD93ULL;
  h ^= h >> 29;
  const auto to_unit = [](std::uint64_t bits) {
    return static_cast<real>(static_cast<double>(bits & 0xFFFF) / 65536.0 - 0.5);
  };
  return cplx(to_unit(h), to_unit(h >> 16));
}

ScanPattern make_scan(index_t rows, index_t cols, index_t step, index_t probe_n) {
  ScanParams params;
  params.rows = rows;
  params.cols = cols;
  params.step_px = step;
  params.probe_n = probe_n;
  return ScanPattern(params);
}

/// Serial reference: Eqn. (2) — the sum of all per-probe gradients.
FramedVolume reference_total(const ScanPattern& scan, index_t slices) {
  FramedVolume total(slices, scan.field());
  for (const ProbeLocation& loc : scan.locations()) {
    for (index_t s = 0; s < slices; ++s) {
      for (index_t y = loc.window.y0; y < loc.window.y1(); ++y) {
        for (index_t x = loc.window.x0; x < loc.window.x1(); ++x) {
          total.at_global(s, y, x) += synthetic_gradient(loc.id, s, y, x);
        }
      }
    }
  }
  return total;
}

/// Fill a rank's accumulation buffer with its own probes' gradients.
void fill_local(const TileSpec& tile, const ScanPattern& scan, FramedVolume& acc) {
  for (index_t id : tile.own_probes) {
    const Rect w = scan[id].window;
    for (index_t s = 0; s < acc.slices(); ++s) {
      for (index_t y = w.y0; y < w.y1(); ++y) {
        for (index_t x = w.x0; x < w.x1(); ++x) {
          acc.at_global(s, y, x) += synthetic_gradient(id, s, y, x);
        }
      }
    }
  }
}

/// Max relative error of `acc` vs the reference over the tile's region.
double region_error(const FramedVolume& acc, const FramedVolume& ref, const Rect& region) {
  double err_sq = 0.0;
  double ref_sq = 0.0;
  for (index_t s = 0; s < acc.slices(); ++s) {
    for (index_t y = region.y0; y < region.y1(); ++y) {
      for (index_t x = region.x0; x < region.x1(); ++x) {
        const cplx d = acc.at_global(s, y, x) - ref.at_global(s, y, x);
        err_sq += std::norm(std::complex<double>(d));
        ref_sq += std::norm(std::complex<double>(ref.at_global(s, y, x)));
      }
    }
  }
  return ref_sq > 0 ? std::sqrt(err_sq / ref_sq) : std::sqrt(err_sq);
}

enum class Scheme { kSweep, kDirect, kAllreduce };

/// Run one synchronization round on a cluster; return the max error of any
/// rank's buffer vs the serial reference over that rank's extended region.
double run_scheme(const ScanPattern& scan, const Partition& partition, index_t slices,
                  Scheme scheme) {
  const FramedVolume ref = reference_total(scan, slices);
  rt::VirtualCluster cluster(partition.nranks());
  std::mutex mutex;
  double worst = 0.0;
  cluster.run([&](rt::RankContext& ctx) {
    const TileSpec& tile = partition.tile(ctx.rank());
    FramedVolume acc(slices, tile.extended);
    fill_local(tile, scan, acc);
    PassEngine engine(partition, ctx.rank());
    switch (scheme) {
      case Scheme::kSweep: engine.run_sweep(ctx, acc); break;
      case Scheme::kDirect: engine.run_direct(ctx, acc); break;
      case Scheme::kAllreduce: engine.run_allreduce(ctx, acc); break;
    }
    const double err = region_error(acc, ref, tile.extended);
    std::lock_guard<std::mutex> lock(mutex);
    worst = std::max(worst, err);
  });
  return worst;
}

struct PassCase {
  index_t scan_rows, scan_cols, step, probe_n;
  int mesh_rows, mesh_cols;
  index_t slices;
};

class SweepExactness : public ::testing::TestWithParam<PassCase> {};

TEST_P(SweepExactness, MatchesSerialTotalGradient) {
  const PassCase& c = GetParam();
  const ScanPattern scan = make_scan(c.scan_rows, c.scan_cols, c.step, c.probe_n);
  PartitionConfig config;
  config.mesh = rt::Mesh2D(c.mesh_rows, c.mesh_cols);
  config.strategy = Strategy::kGradientDecomposition;
  const Partition partition(scan, config);
  validate_partition(partition, scan);
  EXPECT_LT(run_scheme(scan, partition, c.slices, Scheme::kSweep), 1e-4);
}

TEST_P(SweepExactness, AllreduceAlsoMatches) {
  const PassCase& c = GetParam();
  const ScanPattern scan = make_scan(c.scan_rows, c.scan_cols, c.step, c.probe_n);
  PartitionConfig config;
  config.mesh = rt::Mesh2D(c.mesh_rows, c.mesh_cols);
  config.strategy = Strategy::kGradientDecomposition;
  const Partition partition(scan, config);
  EXPECT_LT(run_scheme(scan, partition, c.slices, Scheme::kAllreduce), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SweepExactness,
    ::testing::Values(
        // Low overlap (adjacent tiles only), the Fig. 2(a) geometry.
        PassCase{9, 9, 8, 16, 3, 3, 2},
        // High overlap: probe circles span non-adjacent tiles (Fig. 2(f)) —
        // this is exactly the case the forward/backward passes exist for.
        PassCase{9, 9, 2, 16, 3, 3, 2},
        PassCase{12, 12, 3, 24, 4, 4, 1},
        // Non-square meshes, degenerate rows/columns.
        PassCase{8, 10, 4, 16, 2, 5, 2},
        PassCase{6, 6, 4, 16, 1, 4, 2},
        PassCase{6, 6, 4, 16, 4, 1, 2},
        PassCase{6, 6, 4, 16, 1, 1, 2},
        // Larger mesh with moderate overlap.
        PassCase{15, 15, 4, 16, 5, 5, 2}));

TEST(DirectNeighbors, ExactOnlyForLowOverlap) {
  // Low overlap: pairwise exchange with the 8-neighborhood is exact.
  {
    const ScanPattern scan = make_scan(9, 9, 8, 16);
    PartitionConfig config;
    config.mesh = rt::Mesh2D(3, 3);
    const Partition partition(scan, config);
    EXPECT_LT(run_scheme(scan, partition, 2, Scheme::kDirect), 1e-4);
  }
  // High overlap (probe window spans several tiles): the direct scheme
  // must *fail* to assemble the total gradient — the motivation for the
  // forward/backward passes (Sec. IV).
  {
    const ScanPattern scan = make_scan(12, 12, 2, 20);
    PartitionConfig config;
    config.mesh = rt::Mesh2D(4, 4);  // every tile owns probes; windows span 3 tiles
    const Partition partition(scan, config);
    const double direct_err = run_scheme(scan, partition, 2, Scheme::kDirect);
    const double sweep_err = run_scheme(scan, partition, 2, Scheme::kSweep);
    EXPECT_GT(direct_err, 1e-3);
    EXPECT_LT(sweep_err, 1e-4);
  }
}

TEST(Sweep, RequiresEveryTileToOwnProbes) {
  // Documented limitation (see passes.hpp): if a mesh row/column owns no
  // probes, its tiles have no halo, the horizontal chains cannot carry
  // cross-column contributions through them, and the sweep is inexact.
  // The partition helper detects the condition so solvers can warn.
  const ScanPattern scan = make_scan(12, 12, 2, 20);
  PartitionConfig config;
  config.mesh = rt::Mesh2D(5, 5);  // probe centers span [10,32] of a 42-px field
  const Partition partition(scan, config);
  EXPECT_FALSE(all_tiles_own_probes(partition));
  EXPECT_GT(run_scheme(scan, partition, 2, Scheme::kSweep), 1e-3);
  // The all-reduce fallback stays exact even then.
  EXPECT_LT(run_scheme(scan, partition, 2, Scheme::kAllreduce), 1e-4);
}

TEST(Sweep, RepeatedRoundsStayMatched) {
  // Tag bookkeeping: several sweeps in a row must not cross-match.
  const ScanPattern scan = make_scan(9, 9, 4, 16);
  PartitionConfig config;
  config.mesh = rt::Mesh2D(3, 3);
  const Partition partition(scan, config);
  const FramedVolume ref = reference_total(scan, 2);

  rt::VirtualCluster cluster(partition.nranks());
  std::mutex mutex;
  double worst = 0.0;
  cluster.run([&](rt::RankContext& ctx) {
    const TileSpec& tile = partition.tile(ctx.rank());
    PassEngine engine(partition, ctx.rank());
    double local_worst = 0.0;
    for (int round = 0; round < 3; ++round) {
      FramedVolume acc(2, tile.extended);
      fill_local(tile, scan, acc);
      engine.run_sweep(ctx, acc);
      local_worst = std::max(local_worst, region_error(acc, ref, tile.extended));
    }
    std::lock_guard<std::mutex> lock(mutex);
    worst = std::max(worst, local_worst);
  });
  EXPECT_LT(worst, 1e-4);
}

TEST(Sweep, EmptyBuffersStayZero) {
  const ScanPattern scan = make_scan(6, 6, 4, 16);
  PartitionConfig config;
  config.mesh = rt::Mesh2D(2, 2);
  const Partition partition(scan, config);
  rt::VirtualCluster cluster(partition.nranks());
  std::mutex mutex;
  double worst = 0.0;
  cluster.run([&](rt::RankContext& ctx) {
    const TileSpec& tile = partition.tile(ctx.rank());
    FramedVolume acc(2, tile.extended);  // all zeros
    PassEngine engine(partition, ctx.rank());
    engine.run_sweep(ctx, acc);
    double local_max = 0.0;
    for (index_t s = 0; s < 2; ++s) {
      local_max = std::max(local_max, max_abs(acc.window(s, tile.extended)));
    }
    std::lock_guard<std::mutex> lock(mutex);
    worst = std::max(worst, local_max);
  });
  EXPECT_EQ(worst, 0.0);
}

TEST(SgdUpdate, OnePassEqualsAccumulateThenApply) {
  // The SGD branch's fused per-probe update: AccBuf += g and V -= step*g
  // in one row-by-row pass must leave both buffers bitwise equal to the
  // two-pass sequence, touch only the region, and bump the revision once.
  const Rect frame{-3, 2, 20, 17};
  const Rect region{1, 5, 9, 7};
  const index_t slices = 2;
  FramedVolume grad(slices, region);
  FramedVolume volume(slices, frame);
  AccumulationBuffer acc_two(slices, frame);
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < frame.h; ++y) {
      for (index_t x = 0; x < frame.w; ++x) {
        volume.data(s, y, x) = synthetic_gradient(1, s, y, x);
        acc_two.volume().data(s, y, x) = synthetic_gradient(2, s, y, x);
      }
    }
    for (index_t y = 0; y < region.h; ++y) {
      for (index_t x = 0; x < region.w; ++x) grad.data(s, y, x) = synthetic_gradient(3, s, y, x);
    }
  }
  FramedVolume vol_one = volume.clone();
  FramedVolume acc_one = acc_two.volume().clone();
  const real step = real(0.37);

  acc_two.accumulate(grad, region);
  apply_gradient(volume, grad, region, step);
  const std::uint64_t before = vol_one.revision;
  accumulate_and_apply_gradient(acc_one, vol_one, grad, region, step);

  EXPECT_NE(vol_one.revision, before);
  const auto bytes = static_cast<usize>(slices * frame.area()) * sizeof(cplx);
  EXPECT_EQ(std::memcmp(vol_one.data.data(), volume.data.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(acc_one.data.data(), acc_two.volume().data.data(), bytes), 0);
}

}  // namespace
}  // namespace ptycho
