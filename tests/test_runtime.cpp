// Tests for src/runtime: fabric semantics, cluster execution, memory
// tracking per rank, collectives, mesh topology.
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/cluster.hpp"
#include "runtime/collectives.hpp"
#include "runtime/topology.hpp"
#include "tensor/array.hpp"

namespace ptycho::rt {
namespace {

TEST(Fabric, SendThenReceive) {
  Fabric fabric(2);
  fabric.isend(0, 1, make_tag(Phase::kTest, 0), {cplx(1, 2), cplx(3, 4)});
  double waited = -1.0;
  const std::vector<cplx> got = fabric.recv(1, 0, make_tag(Phase::kTest, 0), &waited);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], cplx(1, 2));
  EXPECT_EQ(got[1], cplx(3, 4));
  EXPECT_GE(waited, 0.0);
}

TEST(Fabric, FifoPerSourceAndTag) {
  Fabric fabric(2);
  fabric.isend(0, 1, make_tag(Phase::kTest, 7), {cplx(1, 0)});
  fabric.isend(0, 1, make_tag(Phase::kTest, 7), {cplx(2, 0)});
  EXPECT_EQ(fabric.recv(1, 0, make_tag(Phase::kTest, 7))[0], cplx(1, 0));
  EXPECT_EQ(fabric.recv(1, 0, make_tag(Phase::kTest, 7))[0], cplx(2, 0));
}

TEST(Fabric, TagsDoNotCross) {
  Fabric fabric(2);
  fabric.isend(0, 1, make_tag(Phase::kTest, 0), {cplx(10, 0)});
  fabric.isend(0, 1, make_tag(Phase::kCost, 0), {cplx(20, 0)});
  // Receive in the opposite order of sending: matching is by tag.
  EXPECT_EQ(fabric.recv(1, 0, make_tag(Phase::kCost, 0))[0], cplx(20, 0));
  EXPECT_EQ(fabric.recv(1, 0, make_tag(Phase::kTest, 0))[0], cplx(10, 0));
}

TEST(Fabric, SourcesDoNotCross) {
  Fabric fabric(3);
  fabric.isend(0, 2, make_tag(Phase::kTest, 0), {cplx(1, 0)});
  fabric.isend(1, 2, make_tag(Phase::kTest, 0), {cplx(2, 0)});
  EXPECT_EQ(fabric.recv(2, 1, make_tag(Phase::kTest, 0))[0], cplx(2, 0));
  EXPECT_EQ(fabric.recv(2, 0, make_tag(Phase::kTest, 0))[0], cplx(1, 0));
}

TEST(Fabric, RequestTestAndTake) {
  Fabric fabric(2);
  RecvRequest req = fabric.irecv(1, 0, make_tag(Phase::kTest, 3));
  EXPECT_FALSE(req.test());
  fabric.isend(0, 1, make_tag(Phase::kTest, 3), {cplx(5, 5)});
  EXPECT_TRUE(req.test());
  EXPECT_EQ(req.take()[0], cplx(5, 5));
  EXPECT_THROW((void)req.take(), Error);  // double take
}

TEST(Fabric, StatsCountBytesAndMessages) {
  Fabric fabric(2);
  fabric.isend(0, 1, make_tag(Phase::kTest, 0), std::vector<cplx>(10));
  fabric.isend(0, 1, make_tag(Phase::kTest, 1), std::vector<cplx>(5));
  const FabricStats stats = fabric.stats();
  EXPECT_EQ(stats.messages_sent[0], 2u);
  EXPECT_EQ(stats.bytes_sent[0], 15 * sizeof(cplx));
  EXPECT_EQ(stats.messages_sent[1], 0u);
}

TEST(Fabric, InvalidRankThrows) {
  Fabric fabric(2);
  EXPECT_THROW(fabric.isend(0, 5, make_tag(Phase::kTest, 0), {}), Error);
  EXPECT_THROW(fabric.isend(-1, 0, make_tag(Phase::kTest, 0), {}), Error);
  EXPECT_THROW((void)fabric.irecv(0, 9, make_tag(Phase::kTest, 0)), Error);
}

TEST(Cluster, RanksRunAndCommunicate) {
  VirtualCluster cluster(4);
  std::atomic<int> sum{0};
  cluster.run([&](RankContext& ctx) {
    // Ring: send my rank to the next rank, receive from the previous.
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    ctx.isend(next, make_tag(Phase::kTest, 0), {cplx(static_cast<real>(ctx.rank()), 0)});
    const std::vector<cplx> got = ctx.recv(prev, make_tag(Phase::kTest, 0));
    sum += static_cast<int>(got[0].real());
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(Cluster, ExceptionPropagates) {
  VirtualCluster cluster(3);
  EXPECT_THROW(cluster.run([](RankContext& ctx) {
    if (ctx.rank() == 1) throw Error("rank 1 failed");
  }),
               Error);
}

TEST(Cluster, BarrierSynchronizes) {
  VirtualCluster cluster(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  cluster.run([&](RankContext& ctx) {
    before.fetch_add(1);
    ctx.barrier();
    if (before.load() != 4) violated = true;
    ctx.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Cluster, PerRankMemoryTracking) {
  VirtualCluster cluster(3);
  cluster.run([](RankContext& ctx) {
    // Rank r allocates (r+1) * 1000 complex values.
    const index_t n = 1000 * (ctx.rank() + 1);
    CArray2D big(n, 1);
    // Peak must reflect the live allocation.
    (void)big;
  });
  EXPECT_GE(cluster.mem(0).peak(), 1000 * sizeof(cplx));
  EXPECT_GE(cluster.mem(2).peak(), 3000 * sizeof(cplx));
  EXPECT_GT(cluster.mem(2).peak(), cluster.mem(0).peak());
  EXPECT_EQ(cluster.mem(1).current(), 0u);  // freed after run
  EXPECT_GT(cluster.mean_peak_bytes(), 0.0);
  EXPECT_GE(cluster.max_peak_bytes(), cluster.mem(2).peak());
}

TEST(Cluster, RngStreamsDifferPerRank) {
  VirtualCluster cluster(2);
  std::atomic<std::uint64_t> v0{0};
  std::atomic<std::uint64_t> v1{0};
  cluster.run([&](RankContext& ctx) {
    const std::uint64_t v = ctx.rng().next_u64();
    (ctx.rank() == 0 ? v0 : v1).store(v);
  });
  EXPECT_NE(v0.load(), v1.load());
}

class AllreduceSizes : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceSizes, VectorSumMatches) {
  const int nranks = GetParam();
  VirtualCluster cluster(nranks);
  std::atomic<int> failures{0};
  cluster.run([&](RankContext& ctx) {
    std::vector<cplx> buf(16);
    for (usize i = 0; i < buf.size(); ++i) {
      buf[i] = cplx(static_cast<real>(ctx.rank() + 1), static_cast<real>(i));
    }
    allreduce_sum(ctx, buf, Phase::kTest, 42);
    const double expected_re = static_cast<double>(nranks) * (nranks + 1) / 2.0;
    for (usize i = 0; i < buf.size(); ++i) {
      const double re = static_cast<double>(buf[i].real());
      const double im = static_cast<double>(buf[i].imag());
      if (std::abs(re - expected_re) > 1e-4 ||
          std::abs(im - static_cast<double>(i * static_cast<usize>(nranks))) > 1e-4) {
        failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceSizes, ::testing::Values(1, 2, 3, 4, 5, 8, 13));

TEST(Collectives, ScalarAllreduce) {
  VirtualCluster cluster(5);
  std::atomic<int> failures{0};
  cluster.run([&](RankContext& ctx) {
    const double total =
        allreduce_sum_scalar(ctx, static_cast<double>(ctx.rank() + 1), Phase::kTest, 43);
    if (std::abs(total - 15.0) > 1e-4) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Collectives, RepeatedCallsStayMatched) {
  VirtualCluster cluster(4);
  std::atomic<int> failures{0};
  cluster.run([&](RankContext& ctx) {
    for (int round = 0; round < 10; ++round) {
      const double total = allreduce_sum_scalar(ctx, 1.0, Phase::kTest, 44);
      if (std::abs(total - 4.0) > 1e-4) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Mesh2D, CoordinateMapping) {
  Mesh2D mesh(3, 4);
  EXPECT_EQ(mesh.size(), 12);
  EXPECT_EQ(mesh.rank_of(1, 2), 6);
  EXPECT_EQ(mesh.row_of(6), 1);
  EXPECT_EQ(mesh.col_of(6), 2);
  EXPECT_TRUE(mesh.valid(2, 3));
  EXPECT_FALSE(mesh.valid(3, 0));
  EXPECT_FALSE(mesh.valid(0, -1));
}

TEST(Mesh2D, Neighbors8Counts) {
  Mesh2D mesh(3, 3);
  EXPECT_EQ(mesh.neighbors8(4).size(), 8u);  // center
  EXPECT_EQ(mesh.neighbors8(0).size(), 3u);  // corner
  EXPECT_EQ(mesh.neighbors8(1).size(), 5u);  // edge
}

TEST(Mesh2D, CardinalDirections) {
  Mesh2D mesh(3, 3);
  const Mesh2D::Cardinal c = mesh.cardinal(4);
  EXPECT_EQ(c.north, 1);
  EXPECT_EQ(c.south, 7);
  EXPECT_EQ(c.west, 3);
  EXPECT_EQ(c.east, 5);
  const Mesh2D::Cardinal corner = mesh.cardinal(0);
  EXPECT_EQ(corner.north, -1);
  EXPECT_EQ(corner.west, -1);
  EXPECT_EQ(corner.south, 3);
  EXPECT_EQ(corner.east, 1);
}

TEST(Mesh2D, ChooseMeshFactorizations) {
  EXPECT_EQ(choose_mesh(6, 1.0).size(), 6);
  const Mesh2D m6 = choose_mesh(6, 1.0);
  EXPECT_TRUE((m6.rows() == 2 && m6.cols() == 3) || (m6.rows() == 3 && m6.cols() == 2));
  const Mesh2D m12 = choose_mesh(12, 1.0);
  EXPECT_TRUE(m12.rows() == 3 || m12.rows() == 4);
  // Prime counts degrade to 1 x n but honor aspect when tall.
  const Mesh2D m7 = choose_mesh(7, 10.0);
  EXPECT_EQ(m7.rows(), 7);
  EXPECT_EQ(m7.cols(), 1);
  // Paper's 4158 GPUs = 54 x 77 (or 77 x 54 for wide aspect).
  const Mesh2D m4158 = choose_mesh(4158, 1.0);
  EXPECT_EQ(m4158.size(), 4158);
  EXPECT_LE(std::max(m4158.rows(), m4158.cols()), 77);
}

}  // namespace
}  // namespace ptycho::rt
