// Checkpoint/restore subsystem tests: format round-trips, the completion
// protocol, fault injection, exact resume, and the acceptance property —
// a fault-interrupted run restored from its last checkpoint (including
// elastically, K=6 -> K'=4) reproduces the uninterrupted run's cost
// trajectory and final volume to fp tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "ckpt/serialize.hpp"
#include "ckpt/snapshot.hpp"
#include "core/gradient_decomposition.hpp"
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
      : path_((fs::temp_directory_path() / ("ptycho_ckpt_" + name)).string()) {
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

void expect_same_history(const CostHistory& a, const CostHistory& b, double rel_tol) {
  ASSERT_EQ(a.values().size(), b.values().size());
  for (usize i = 0; i < a.values().size(); ++i) {
    EXPECT_NEAR(a.values()[i] / b.values()[i], 1.0, rel_tol) << "iteration " << i;
  }
}

// ---- serialization format ---------------------------------------------------

TEST(CkptSerialize, ScalarAndArrayRoundTrip) {
  ScratchDir dir("serialize");
  const std::string path = dir.path() + "/blob.bin";
  constexpr std::uint64_t kMagic = 0x1122334455667788ULL;
  {
    ckpt::Writer w(path, kMagic, 7);
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFULL);
    w.i64(-42);
    w.f32(1.5f);
    w.f64(-2.25);
    w.str("ptycho");
    w.rect(Rect{-3, 4, 5, 6});
    const cplx data[3] = {cplx(1, -2), cplx(0, 0), cplx(-0.5f, 3.25f)};
    w.cplx_array(data, 3);
    w.finish();
  }
  ckpt::Reader r(path, kMagic);
  EXPECT_EQ(r.version(), 7u);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "ptycho");
  EXPECT_EQ(r.rect(), (Rect{-3, 4, 5, 6}));
  cplx data[3];
  r.cplx_array(data, 3);
  EXPECT_EQ(data[0], cplx(1, -2));
  EXPECT_EQ(data[2], cplx(-0.5f, 3.25f));
}

TEST(CkptSerialize, TruncatedFileRejected) {
  ScratchDir dir("truncated");
  const std::string path = dir.path() + "/blob.bin";
  constexpr std::uint64_t kMagic = 0x1122334455667788ULL;
  {
    ckpt::Writer w(path, kMagic, 1);
    w.u64(12345);
    w.finish();
  }
  // Chop the footer off: the reader must refuse the file outright.
  fs::resize_file(path, fs::file_size(path) - 4);
  EXPECT_THROW({ ckpt::Reader r(path, kMagic); }, Error);
}

TEST(CkptSnapshot, ManifestAndShardRoundTrip) {
  ScratchDir dir("roundtrip");
  ckpt::Manifest manifest;
  manifest.dataset_name = "unit";
  manifest.probe_count = 9;
  manifest.slices = 2;
  manifest.step = 5;
  manifest.iteration = 2;
  manifest.chunk = 1;
  manifest.chunks_per_iteration = 2;
  manifest.nranks = 1;
  manifest.refine_probe = true;
  manifest.cost_values = {3.5, 1.25};
  ckpt::TileInfo tile;
  tile.rank = 0;
  tile.owned = Rect{0, 0, 8, 8};
  tile.extended = Rect{-1, -1, 10, 10};
  tile.own_probes = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  manifest.tiles.push_back(tile);
  ckpt::write_manifest(dir.path(), manifest);

  ckpt::Shard shard;
  shard.rank = 0;
  shard.partial_cost = 0.75;
  shard.rng.s[0] = 11;
  shard.rng.s[3] = 44;
  shard.volume = FramedVolume(2, Rect{-1, -1, 10, 10});
  shard.volume.data(1, 3, 4) = cplx(0.5f, -0.25f);
  shard.probe = CArray2D(4, 4);
  shard.probe(2, 2) = cplx(1, 1);
  shard.probe_grad = CArray2D(4, 4);
  ckpt::write_shard(dir.path(), shard);

  const ckpt::Manifest m = ckpt::read_manifest(dir.path());
  EXPECT_EQ(m.dataset_name, "unit");
  EXPECT_EQ(m.step, 5u);
  EXPECT_EQ(m.iteration, 2);
  EXPECT_EQ(m.chunk, 1);
  EXPECT_FALSE(m.at_iteration_boundary());
  EXPECT_TRUE(m.refine_probe);
  ASSERT_EQ(m.cost_values.size(), 2u);
  EXPECT_EQ(m.cost_values[1], 1.25);
  ASSERT_EQ(m.tiles.size(), 1u);
  EXPECT_EQ(m.tiles[0].extended, (Rect{-1, -1, 10, 10}));
  EXPECT_EQ(m.tiles[0].own_probes, tile.own_probes);

  const ckpt::Shard s = ckpt::read_shard(dir.path(), 0);
  EXPECT_EQ(s.partial_cost, 0.75);
  EXPECT_EQ(s.rng.s[0], 11u);
  EXPECT_EQ(s.rng.s[3], 44u);
  EXPECT_EQ(s.volume.frame, shard.volume.frame);
  EXPECT_EQ(s.volume.data(1, 3, 4), cplx(0.5f, -0.25f));
  EXPECT_EQ(s.probe(2, 2), cplx(1, 1));
}

TEST(CkptSnapshot, ShardHoldsOnlyLiveState) {
  // A solver-written shard is its header, scalars and the volume, probe
  // and probe-gradient payloads: AccBuf, zero at every snapshot point, is
  // not stored.
  ScratchDir dir("shard_size");
  GdConfig config;
  config.nranks = 2;
  config.iterations = 1;
  config.mode = UpdateMode::kFullBatch;
  config.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  (void)reconstruct_gd(tiny_dataset(), config);
  const std::string step = ckpt::step_dir(dir.path(), 1);
  const ckpt::Snapshot snap = ckpt::load_snapshot(step);
  // An array is its element count, then one f32 (re, im) pair per element.
  const auto array = [](index_t count) { return std::uintmax_t{8} + 8 * std::uintmax_t(count); };
  for (const int rank : {0, 1}) {
    const ckpt::Shard& shard = snap.shards[static_cast<usize>(rank)];
    const std::uintmax_t header = 8 + 4;                  // magic, version
    const std::uintmax_t scalars = 4 + 8 + 5 * 8 + 1;     // rank, partial cost, RNG
    const std::uintmax_t volume = 4 * 8 + 8 + array(shard.volume.data.size());  // frame, slices
    const std::uintmax_t probe = 8 + array(shard.probe.size());                 // side
    const std::uintmax_t probe_grad = 8 + array(shard.probe_grad.size());
    const std::uintmax_t trailer = 8 + 4;                 // footer, CRC
    EXPECT_EQ(fs::file_size(step + (rank == 0 ? "/shard-0000.ckpt" : "/shard-0001.ckpt")),
              header + scalars + volume + probe + probe_grad + trailer)
        << "rank " << rank;
  }
}

TEST(CkptSnapshot, RefusesAnOlderShardFormatAndFallsBack) {
  ScratchDir dir("old_format");
  ckpt::TileInfo tile;
  tile.owned = Rect{0, 0, 8, 8};
  tile.extended = Rect{-1, -1, 10, 10};
  ckpt::Manifest manifest;
  manifest.dataset_name = "unit";
  manifest.slices = 2;
  manifest.nranks = 1;
  manifest.tiles = {tile};
  ckpt::Shard shard;
  shard.volume = FramedVolume(2, tile.extended);
  shard.probe = CArray2D(4, 4);
  shard.probe_grad = CArray2D(4, 4);
  for (const int iteration : {1, 2}) {
    const std::string step = ckpt::step_dir(dir.path(), iteration);
    fs::create_directories(step);
    manifest.iteration = iteration;
    manifest.step = iteration;
    ckpt::write_manifest(step, manifest);
    ckpt::write_shard(step, shard);
  }
  // Replace the newer snapshot's shard with a format-2 one, laid out as
  // format 2 wrote it: an AccBuf section after the volume.
  const std::string newer = ckpt::step_dir(dir.path(), 2);
  {
    constexpr std::uint64_t kShardMagic = 0x5054594353485244ULL;  // "PTYCSHRD"
    ckpt::Writer w(newer + "/shard-0000.ckpt", kShardMagic, 2);
    w.u32(0);                                 // rank
    w.f64(0.0);                               // partial cost
    for (int i = 0; i < 5; ++i) w.u64(0);     // RNG words
    w.u8(0);
    for (int section = 0; section < 2; ++section) {  // volume, AccBuf
      w.rect(tile.extended);
      w.i64(2);
      w.cplx_array(shard.volume.data.data(), static_cast<usize>(shard.volume.data.size()));
    }
    for (int section = 0; section < 2; ++section) {  // probe, probe gradient
      w.i64(4);
      w.cplx_array(shard.probe.data(), static_cast<usize>(shard.probe.size()));
    }
    w.finish();
  }
  try {
    (void)ckpt::read_shard(newer, 0);
    FAIL() << "a format-2 shard was read";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported shard format version 2"),
              std::string::npos)
        << e.what();
  }
  const std::optional<ckpt::Snapshot> found =
      ckpt::load_newest_valid(dir.path(), ckpt::RestoreFilter{});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->manifest.iteration, 1);
}

TEST(CkptSnapshot, LatestStepSkipsManifestlessDirs) {
  ScratchDir dir("latest");
  EXPECT_FALSE(ckpt::find_latest_step(dir.path()).has_value());
  ckpt::Manifest manifest;
  manifest.nranks = 0;  // no tiles needed for this protocol test
  manifest.iteration = 3;
  fs::create_directories(ckpt::step_dir(dir.path(), 3));
  ckpt::write_manifest(ckpt::step_dir(dir.path(), 3), manifest);
  // Step 7 has a directory but no manifest: a rank died mid-write.
  fs::create_directories(ckpt::step_dir(dir.path(), 7));
  const auto latest = ckpt::find_latest_step(dir.path());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 3u);
}

TEST(CkptSnapshot, LatestStepSkipsTruncatedManifests) {
  ScratchDir dir("latest_trunc");
  ckpt::Manifest manifest;
  manifest.nranks = 0;
  manifest.iteration = 4;
  fs::create_directories(ckpt::step_dir(dir.path(), 4));
  ckpt::write_manifest(ckpt::step_dir(dir.path(), 4), manifest);
  // Step 8's manifest was cut off mid-write (no footer): restore must
  // fall back to the previous complete snapshot, not abort.
  manifest.iteration = 8;
  fs::create_directories(ckpt::step_dir(dir.path(), 8));
  ckpt::write_manifest(ckpt::step_dir(dir.path(), 8), manifest);
  const std::string truncated = ckpt::step_dir(dir.path(), 8) + "/manifest.ckpt";
  fs::resize_file(truncated, fs::file_size(truncated) - 6);
  const auto latest = ckpt::find_latest_step(dir.path());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 4u);
}

TEST(CkptSnapshot, LatestStepRanksByProgressNotDirectoryNumber) {
  ScratchDir dir("latest_rank");
  // A stale snapshot from an earlier run with more chunks per iteration
  // has a bigger step number (8 = iteration 2 x 4 chunks) but less
  // progress than iteration 5 written by the resumed, rechunked run.
  ckpt::Manifest stale;
  stale.nranks = 0;
  stale.iteration = 2;
  stale.chunks_per_iteration = 4;
  stale.step = 8;
  fs::create_directories(ckpt::step_dir(dir.path(), 8));
  ckpt::write_manifest(ckpt::step_dir(dir.path(), 8), stale);
  ckpt::Manifest fresh;
  fresh.nranks = 0;
  fresh.iteration = 5;
  fresh.chunks_per_iteration = 1;
  fresh.step = 5;
  fs::create_directories(ckpt::step_dir(dir.path(), 5));
  ckpt::write_manifest(ckpt::step_dir(dir.path(), 5), fresh);
  const auto latest = ckpt::find_latest_step(dir.path());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 5u);
}

// ---- fault injection --------------------------------------------------------

TEST(FaultInjection, KilledRankAbortsTheWholeRun) {
  GdConfig config;
  config.nranks = 4;
  config.iterations = 6;
  config.mode = UpdateMode::kFullBatch;
  config.fault = rt::FaultPlan{2, 3};  // kill rank 2 after chunk 3
  EXPECT_THROW(reconstruct_gd(tiny_dataset(), config), rt::RankFailure);
}

TEST(FaultInjection, CheckpointsSurviveUpToTheFault) {
  ScratchDir dir("fault_ckpt");
  GdConfig config;
  config.nranks = 4;
  config.iterations = 6;
  config.mode = UpdateMode::kFullBatch;
  config.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  config.fault = rt::FaultPlan{1, 4};
  EXPECT_THROW(reconstruct_gd(tiny_dataset(), config), rt::RankFailure);
  // The fault fires at step 4 before that step's snapshot: steps 1-3 are
  // complete on disk, nothing newer.
  const auto latest = ckpt::find_latest_step(dir.path());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 3u);
  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  EXPECT_EQ(snap.manifest.iteration, 3);
  EXPECT_EQ(snap.manifest.chunk, 0);
  EXPECT_EQ(snap.manifest.nranks, 4);
  ASSERT_EQ(snap.shards.size(), 4u);
}

// ---- exact (same-layout) resume --------------------------------------------

TEST(CkptRestore, SerialResumeReproducesTrajectoryExactly) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("serial_resume");

  SerialConfig full;
  full.iterations = 6;
  SerialResult uninterrupted = reconstruct_serial(dataset, full);

  SerialConfig first_leg = full;
  first_leg.iterations = 3;
  first_leg.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  (void)reconstruct_serial(dataset, first_leg);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  SerialConfig second_leg = full;
  second_leg.restore = &snap;
  SerialResult resumed = reconstruct_serial(dataset, second_leg);

  // Identical probe schedule and state: the resumed trajectory is the
  // uninterrupted one, bit-for-bit up to fp noise in the cost reduction.
  expect_same_history(resumed.cost, uninterrupted.cost, 1e-12);
  EXPECT_LT(volume_rel_diff(resumed.volume, uninterrupted.volume), 1e-6);
}

TEST(CkptRestore, GdMidIterationResumeIsExact) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("gd_mid_iter");

  GdConfig full;
  full.nranks = 4;
  full.iterations = 4;
  full.passes_per_iteration = 2;  // two chunks per iteration
  ParallelResult uninterrupted = reconstruct_gd(dataset, full);

  GdConfig first_leg = full;
  first_leg.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  first_leg.fault = rt::FaultPlan{3, 6};  // dies mid-iteration 3 (iter 2, chunk 1 done)
  EXPECT_THROW(reconstruct_gd(dataset, first_leg), rt::RankFailure);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  EXPECT_EQ(snap.manifest.iteration, 2);
  EXPECT_EQ(snap.manifest.chunk, 1);  // genuinely mid-iteration

  GdConfig second_leg = full;
  second_leg.restore = &snap;
  ParallelResult resumed = reconstruct_gd(dataset, second_leg);

  // Same tiling + same chunking => exact resume, SGD mode included.
  expect_same_history(resumed.cost, uninterrupted.cost, 1e-12);
  EXPECT_LT(volume_rel_diff(resumed.volume, uninterrupted.volume), 1e-6);
}

// ---- the acceptance property: elastic restore after a fault ----------------

TEST(CkptRestore, ElasticRestoreAfterFaultMatchesUninterrupted) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("elastic");

  // Reference: uninterrupted K=6 run (full-batch — the mode in which the
  // trajectory is partition-independent to fp tolerance, the central
  // invariant this subsystem leans on).
  GdConfig reference;
  reference.nranks = 6;
  reference.iterations = 6;
  reference.mode = UpdateMode::kFullBatch;
  ParallelResult uninterrupted = reconstruct_gd(dataset, reference);

  // Interrupted: same run, checkpointing every chunk, rank 4 dies at
  // step 4 (iterations 1-3 checkpointed).
  GdConfig interrupted = reference;
  interrupted.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  interrupted.fault = rt::FaultPlan{4, 4};
  EXPECT_THROW(reconstruct_gd(dataset, interrupted), rt::RankFailure);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  EXPECT_EQ(snap.manifest.nranks, 6);
  EXPECT_EQ(snap.manifest.iteration, 3);
  ASSERT_EQ(snap.manifest.cost_values.size(), 3u);

  // Elastic restore on K'=4 ranks: re-tile + redistribute, then finish.
  GdConfig restored = reference;
  restored.nranks = 4;
  restored.restore = &snap;
  ParallelResult resumed = reconstruct_gd(dataset, restored);

  expect_same_history(resumed.cost, uninterrupted.cost, 1e-3);
  EXPECT_LT(volume_rel_diff(resumed.volume, uninterrupted.volume), 5e-4);
}

TEST(CkptRestore, ElasticRestoreOntoSerialSolver) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("to_serial");

  SerialConfig reference;
  reference.iterations = 5;
  reference.mode = UpdateMode::kFullBatch;
  SerialResult uninterrupted = reconstruct_serial(dataset, reference);

  GdConfig first_leg;
  first_leg.nranks = 6;
  first_leg.iterations = 3;
  first_leg.mode = UpdateMode::kFullBatch;
  first_leg.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  (void)reconstruct_gd(dataset, first_leg);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  SerialConfig second_leg = reference;
  second_leg.restore = &snap;
  SerialResult resumed = reconstruct_serial(dataset, second_leg);

  expect_same_history(resumed.cost, uninterrupted.cost, 1e-3);
  EXPECT_LT(volume_rel_diff(resumed.volume, uninterrupted.volume), 5e-4);
}

TEST(CkptRestore, ElasticRefusesMidIterationSnapshots) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("boundary");

  GdConfig first_leg;
  first_leg.nranks = 4;
  first_leg.iterations = 2;
  first_leg.passes_per_iteration = 2;
  first_leg.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  (void)reconstruct_gd(dataset, first_leg);

  // Step 1 = iteration 0, chunk 1: mid-iteration.
  const ckpt::Snapshot mid = ckpt::load_snapshot(ckpt::step_dir(dir.path(), 1));
  ASSERT_FALSE(mid.manifest.at_iteration_boundary());
  GdConfig elastic;
  elastic.nranks = 6;
  elastic.iterations = 3;
  elastic.passes_per_iteration = 2;
  elastic.restore = &mid;
  EXPECT_THROW(reconstruct_gd(dataset, elastic), Error);
}

TEST(CkptRestore, RefusesChangedSolverFlags) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("flags");
  GdConfig first_leg;
  first_leg.nranks = 4;
  first_leg.iterations = 2;
  first_leg.mode = UpdateMode::kFullBatch;
  first_leg.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  (void)reconstruct_gd(dataset, first_leg);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  GdConfig resumed = first_leg;
  resumed.exec.checkpoint = ckpt::Policy{};
  resumed.iterations = 3;
  resumed.restore = &snap;
  resumed.mode = UpdateMode::kSgd;  // different update rule: must refuse
  EXPECT_THROW(reconstruct_gd(dataset, resumed), Error);
  resumed.mode = UpdateMode::kFullBatch;
  resumed.refine_probe = true;  // different probe handling: must refuse
  EXPECT_THROW(reconstruct_gd(dataset, resumed), Error);
}

TEST(CkptRestore, RefusesForeignDataset) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("foreign");
  SerialConfig config;
  config.iterations = 2;
  config.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  (void)reconstruct_serial(dataset, config);

  ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  snap.manifest.dataset_name = "someone-elses-acquisition";
  SerialConfig resume = config;
  resume.exec.checkpoint = ckpt::Policy{};
  resume.restore = &snap;
  EXPECT_THROW(reconstruct_serial(dataset, resume), Error);
}

TEST(CkptRestore, AssembledVolumeMatchesStitchedResult) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("assemble");
  GdConfig config;
  config.nranks = 4;
  config.iterations = 2;
  config.mode = UpdateMode::kFullBatch;
  config.exec.checkpoint = ckpt::Policy{dir.path(), 2};
  ParallelResult result = reconstruct_gd(dataset, config);

  const ckpt::Snapshot snap = ckpt::load_latest(dir.path());
  EXPECT_EQ(snap.manifest.iteration, 2);
  const FramedVolume assembled = ckpt::assemble_volume(snap);
  // The final snapshot is the converged state the solver returned: the
  // elastic assembly must agree with the ranks' own assembly exactly.
  ASSERT_EQ(assembled.frame, result.volume.frame);
  EXPECT_LT(volume_rel_diff(assembled, result.volume), 1e-7);
}

}  // namespace
}  // namespace ptycho
