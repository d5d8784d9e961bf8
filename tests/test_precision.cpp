// Precision-tier tests: --precision parsing, the fast dispatch column
// (FMA tables), the fast-tier bitwise contract (scalar-fma == vector-fma),
// strict-default bitwise stability, the tolerance gate of fast vs strict
// reconstructions, inputs past f16's range, and cross-tier checkpoint
// restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "backend/kernels.hpp"
#include "backend_table_checks.hpp"
#include "common/random.hpp"
#include "core/convergence.hpp"
#include "core/exec_options.hpp"
#include "core/precision.hpp"
#include "core/reconstructor.hpp"
#include "core/serial_solver.hpp"
#include "data/simulate.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

namespace fs = std::filesystem;

/// Restores strict/auto dispatch when a test exits (the tier is process
/// state, like the backend choice).
struct TierGuard {
  ~TierGuard() {
    backend::set_precision(backend::Precision::kStrict);
    backend::select("auto");
  }
};

std::vector<cplx> random_lanes(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) {
    x = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  }
  return v;
}

bool bitwise_equal(const cplx* a, const cplx* b, usize n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(cplx)) == 0;
}

/// The message of the ptycho::Error `fn` throws, or "" when it throws none.
template <typename Fn>
std::string error_message(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(PrecisionPolicy, Parse) {
  EXPECT_EQ(parse_precision("strict"), PrecisionPolicy{});
  EXPECT_EQ(parse_precision(""), PrecisionPolicy{});
  const PrecisionPolicy fast = parse_precision("fast");
  EXPECT_EQ(fast.tier, backend::Precision::kFast);
  // Exactly two spellings: the retired storage suffixes are rejected by
  // value, like any other typo.
  for (const char* spec : {"turbo", "fast:f8", "fast:bf16", "fast:f16", "Fast", "strict:f16"}) {
    const std::string msg = error_message([&] { (void)parse_precision(spec); });
    EXPECT_NE(msg.find(std::string("'") + spec + "'"), std::string::npos) << msg;
  }
}

TEST(PrecisionPolicy, ThroughExecOptions) {
  Options opts;
  opts.set("precision", "fast");
  const ExecOptions exec = parse_exec_options(opts, ExecOptions{});
  EXPECT_TRUE(exec.precision.fast());
  // Default: no flag -> strict, storage none.
  EXPECT_EQ(parse_exec_options(Options{}, ExecOptions{}).precision, PrecisionPolicy{});
  Options retired;
  retired.set("precision", "fast:bf16");
  EXPECT_NE(error_message([&] { (void)parse_exec_options(retired, ExecOptions{}); })
                .find("fast:bf16"),
            std::string::npos);
  // --precision is the only numerics flag: --backend is not a shared
  // execution flag, so a subcommand's reject_unknown names it.
  const std::vector<std::string> keys = exec_option_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "precision"), keys.end());
  EXPECT_EQ(std::find(keys.begin(), keys.end(), "backend"), keys.end());
  Options backend_flag;
  backend_flag.set("backend", "scalar");
  EXPECT_NE(error_message([&] { backend_flag.reject_unknown(keys); }).find("--backend"),
            std::string::npos);
}

TEST(PrecisionDispatch, FastTablesAndNames) {
  TierGuard guard;
  EXPECT_STREQ(backend::scalar_fma_kernels().name, "scalar-fma");
  ASSERT_TRUE(backend::select("scalar"));
  backend::set_precision(backend::Precision::kFast);
  EXPECT_EQ(backend::active_precision(), backend::Precision::kFast);
  EXPECT_STREQ(backend::active_name(), "scalar-fma");
  // The tier survives a backend re-select...
  if (backend::simd_available()) {
    ASSERT_TRUE(backend::select("simd"));
    if (backend::fma_available()) {
      EXPECT_STREQ(backend::active_name(), backend::fma_kernels()->name);
    } else {
      // ...and a CPU without vector FMA degrades fast-simd to strict-simd
      // (keeping vector width), not to scalar.
      EXPECT_STREQ(backend::active_name(), backend::simd_kernels()->name);
    }
  }
  backend::set_precision(backend::Precision::kStrict);
  EXPECT_EQ(backend::active_precision(), backend::Precision::kStrict);
  if (backend::simd_available()) {
    EXPECT_STREQ(backend::active_name(), backend::simd_kernels()->name);
  }
}

TEST(PrecisionDispatch, ApplyPrecisionMatchesSetPrecision) {
  TierGuard guard;
  apply_precision(parse_precision("fast"));
  EXPECT_EQ(backend::active_precision(), backend::Precision::kFast);
  apply_precision(PrecisionPolicy{});
  EXPECT_EQ(backend::active_precision(), backend::Precision::kStrict);
}

// The fast tier's own bitwise contract: scalar-fma and the vector FMA
// table perform identical per-element FMA sequences, so their outputs are
// bitwise equal (to each other — not to strict, which rounds differently).
TEST(PrecisionBitwise, ScalarFmaMatchesVectorFma) {
  if (!backend::fma_available()) GTEST_SKIP() << "no vector FMA on this CPU";
  const backend::Kernels& sc = backend::scalar_fma_kernels();
  const backend::Kernels& vec = *backend::fma_kernels();
  const cplx alpha(real(0.37), real(-1.21));
  for (const usize n : {usize{0}, usize{1}, usize{3}, usize{4}, usize{5}, usize{8},
                        usize{15}, usize{16}, usize{100}, usize{257}}) {
    for (const usize offset : {usize{0}, usize{1}}) {
      const std::vector<cplx> a = random_lanes(n + offset, 17 * n + 1);
      const std::vector<cplx> b = random_lanes(n + offset, 23 * n + 2);
      const std::vector<cplx> c = random_lanes(n + offset, 31 * n + 3);
      const auto check = [&](auto op) {
        std::vector<cplx> out_sc = c;
        std::vector<cplx> out_vec = c;
        op(sc, out_sc.data() + offset, a.data() + offset, b.data() + offset, n);
        op(vec, out_vec.data() + offset, a.data() + offset, b.data() + offset, n);
        EXPECT_TRUE(bitwise_equal(out_sc.data(), out_vec.data(), n + offset))
            << "n=" << n << " offset=" << offset;
      };
      check([](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx* y, usize m) {
        k.cmul_lanes(dst, x, y, m);
      });
      check([](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx* y, usize m) {
        k.cmul_conj_lanes(dst, x, y, m);
      });
      check([](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx* y, usize m) {
        k.cmul_conj_acc_lanes(dst, x, y, m);
      });
      check([alpha](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx*,
                    usize m) { k.scale_lanes(dst, x, alpha, m); });
      check([alpha](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx*,
                    usize m) { k.axpy_lanes(dst, x, alpha, m); });
      check([](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx* y, usize m) {
        k.chirp_mul_lanes(dst, x, y, real(0.125), m);
      });
      check([](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx*, usize m) {
        k.conj_scale_lanes(dst, x, real(1) / real(100), m);
      });
      check([](const backend::Kernels& k, cplx* dst, const cplx* x, const cplx*, usize m) {
        k.scale_chirp_lanes(dst, x, real(1) / real(640), cplx(real(-0.8), real(0.6)), m);
      });
    }
  }
  // The radix-4 kernels the fast-tier FFT runs (the contiguous block
  // here, the lane-major stage below), its transposes and tiled spectral
  // multiply, and potential_backprop (four operands).
  ptycho::testing::expect_stage_tables_equal(sc, vec);
  ptycho::testing::expect_transpose_tables_equal(sc, vec);
  ptycho::testing::expect_rows_tiled_tables_equal(sc, vec);
  for (const usize n : {usize{5}, usize{16}, usize{100}}) {
    for (const usize offset : {usize{0}, usize{1}}) {
      for (const bool conj_tw : {false, true}) {
        const usize len = n + offset;
        const std::vector<cplx> tw1 = random_lanes(len, 3 * n + 29);
        const std::vector<cplx> tw2 = random_lanes(len, 3 * n + 30);
        const std::vector<cplx> tw3 = random_lanes(len, 3 * n + 31);
        const std::vector<cplx> x[4] = {random_lanes(len, 5 * n + 1), random_lanes(len, 5 * n + 2),
                                        random_lanes(len, 5 * n + 3), random_lanes(len, 5 * n + 4)};
        const auto expect_same = [&](const std::vector<cplx> (&out_sc)[4],
                                     const std::vector<cplx> (&out_vec)[4], const char* what) {
          for (int q = 0; q < 4; ++q) {
            EXPECT_TRUE(bitwise_equal(out_sc[q].data(), out_vec[q].data(), len))
                << what << " n=" << n << " offset=" << offset << " conj=" << conj_tw
                << " quarter=" << q;
          }
        };
        std::vector<cplx> blk_sc[4] = {x[0], x[1], x[2], x[3]};
        std::vector<cplx> blk_vec[4] = {x[0], x[1], x[2], x[3]};
        sc.butterfly4_block(blk_sc[0].data() + offset, blk_sc[1].data() + offset,
                            blk_sc[2].data() + offset, blk_sc[3].data() + offset,
                            tw1.data() + offset, tw2.data() + offset, tw3.data() + offset,
                            conj_tw, n);
        vec.butterfly4_block(blk_vec[0].data() + offset, blk_vec[1].data() + offset,
                             blk_vec[2].data() + offset, blk_vec[3].data() + offset,
                             tw1.data() + offset, tw2.data() + offset, tw3.data() + offset,
                             conj_tw, n);
        expect_same(blk_sc, blk_vec, "butterfly4_block");
      }
    }
    const std::vector<cplx> psi = random_lanes(n, 7 * n + 1);
    const std::vector<cplx> trans = random_lanes(n, 7 * n + 2);
    std::vector<cplx> g_sc = random_lanes(n, 7 * n + 3);
    std::vector<cplx> out_sc = random_lanes(n, 7 * n + 4);
    std::vector<cplx> g_vec = g_sc;
    std::vector<cplx> out_vec = out_sc;
    sc.potential_backprop_lanes(out_sc.data(), g_sc.data(), psi.data(), trans.data(),
                                real(0.8), n);
    vec.potential_backprop_lanes(out_vec.data(), g_vec.data(), psi.data(), trans.data(),
                                 real(0.8), n);
    EXPECT_TRUE(bitwise_equal(out_sc.data(), out_vec.data(), n)) << "n=" << n;
    EXPECT_TRUE(bitwise_equal(g_sc.data(), g_vec.data(), n)) << "n=" << n;
  }
}

/// The fused rounding of one complex multiply, as kernels_fma.cpp defines
/// it: re = fma(a.re, b.re, -(a.im*b.im)), im = fma(a.im, b.re, a.re*b.im).
cplx fused_cmul(cplx a, cplx b) {
  return cplx(std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
              std::fma(a.imag(), b.real(), a.real() * b.imag()));
}

/// The same sequence for a * conj(b) (b.im's sign flips first, exactly).
cplx fused_cmul_conj(cplx a, cplx b) { return fused_cmul(a, std::conj(b)); }

// Pins which multiply policy each fast table runs. The fast tables are
// otherwise only compared with each other, which would still pass if both
// ran the strict sequence. Random operands make fused and unfused
// rounding differ on many elements, so each output must equal the
// explicit std::fma formula and must not equal the strict table's.
TEST(PrecisionBitwise, FastTablesRunTheFusedSequence) {
  const usize n = 37;  // vector bodies plus a remainder tail
  const std::vector<cplx> a = random_lanes(n, 901);
  const std::vector<cplx> b = random_lanes(n, 902);
  const cplx alpha(real(0.37), real(-1.21));
  std::vector<cplx> want_cmul(n);
  std::vector<cplx> want_conj(n);
  std::vector<cplx> want_scale(n);
  for (usize i = 0; i < n; ++i) {
    want_cmul[i] = fused_cmul(a[i], b[i]);
    want_conj[i] = fused_cmul_conj(a[i], b[i]);
    want_scale[i] = fused_cmul(a[i], alpha);
  }
  const backend::Kernels& strict = backend::scalar_kernels();
  std::vector<const backend::Kernels*> fast = {&backend::scalar_fma_kernels()};
  if (backend::fma_available()) fast.push_back(backend::fma_kernels());
  for (const backend::Kernels* k : fast) {
    std::vector<cplx> out(n);
    std::vector<cplx> ref(n);
    k->cmul_lanes(out.data(), a.data(), b.data(), n);
    strict.cmul_lanes(ref.data(), a.data(), b.data(), n);
    EXPECT_TRUE(bitwise_equal(out.data(), want_cmul.data(), n)) << k->name << " cmul_lanes";
    EXPECT_FALSE(bitwise_equal(out.data(), ref.data(), n)) << k->name << " cmul_lanes";
    k->cmul_conj_lanes(out.data(), a.data(), b.data(), n);
    strict.cmul_conj_lanes(ref.data(), a.data(), b.data(), n);
    EXPECT_TRUE(bitwise_equal(out.data(), want_conj.data(), n)) << k->name << " cmul_conj_lanes";
    EXPECT_FALSE(bitwise_equal(out.data(), ref.data(), n)) << k->name << " cmul_conj_lanes";
    k->scale_lanes(out.data(), a.data(), alpha, n);
    strict.scale_lanes(ref.data(), a.data(), alpha, n);
    EXPECT_TRUE(bitwise_equal(out.data(), want_scale.data(), n)) << k->name << " scale_lanes";
    EXPECT_FALSE(bitwise_equal(out.data(), ref.data(), n)) << k->name << " scale_lanes";
  }
}

SerialResult run_serial(const PrecisionPolicy& policy, UpdateMode mode, int iterations = 4,
                        const FramedVolume* initial = nullptr) {
  SerialConfig config;
  config.iterations = iterations;
  config.step = real(0.1);
  config.mode = mode;
  config.exec.precision = policy;
  apply_precision(policy);
  return reconstruct_serial(ptycho::testing::tiny_dataset(), config, initial);
}

TEST(PrecisionSolver, StrictDefaultBitwiseStable) {
  // Running the fast tier and returning to strict must leave strict runs
  // bitwise identical — the tier is a resolved dispatch table, not
  // lingering state.
  TierGuard guard;
  const SerialResult before = run_serial(PrecisionPolicy{}, UpdateMode::kFullBatch);
  (void)run_serial(parse_precision("fast"), UpdateMode::kFullBatch);
  const SerialResult after = run_serial(PrecisionPolicy{}, UpdateMode::kFullBatch);
  ASSERT_EQ(before.volume.data.slices(), after.volume.data.slices());
  EXPECT_EQ(0, std::memcmp(before.volume.data.slice(0).data(), after.volume.data.slice(0).data(),
                           static_cast<usize>(before.volume.frame.area()) *
                               static_cast<usize>(before.volume.slices()) * sizeof(cplx)));
  EXPECT_EQ(before.cost.values(), after.cost.values());
}

TEST(PrecisionTolerance, FastTracksStrict) {
  // The fast-tier acceptance gate: per-iteration costs within a relative
  // epsilon of the strict trajectory, and a close final volume. Both
  // update modes (full-batch exercises the BatchSweeper's pooled
  // workspaces; SGD the sequential per-probe loop). The fast tier differs
  // from strict only in FMA rounding and the elided far-field transform
  // pair, so it meets the 1e-3 gate with a wide margin.
  //
  // The compared trajectories start from one strict warm-up iteration, not
  // from the vacuum initial guess: at the perfectly flat vacuum start the
  // gradient is catastrophically ill-conditioned (a 1e-7 relative input
  // perturbation moves the full-batch gradient by ~60% L2 — measured), so
  // a cold-start comparison amplifies ANY one-ulp rounding change into
  // percent-level trajectory scatter and gates chaos, not numerics
  // quality. One update breaks the symmetry and the comparison becomes
  // meaningful; the cold-start path is still smoke-checked for
  // convergence below.
  TierGuard guard;
  const double cost_eps = 1e-3;  // per-iteration relative cost deviation bound
  const double rms_eps = 1e-3;   // final-volume relative RMS bound
  const PrecisionPolicy policy = parse_precision("fast");
  for (const UpdateMode mode : {UpdateMode::kFullBatch, UpdateMode::kSgd}) {
    const SerialResult head = run_serial(PrecisionPolicy{}, mode, 1);
    const SerialResult strict = run_serial(PrecisionPolicy{}, mode, 6, &head.volume);
    const SerialResult fast = run_serial(policy, mode, 6, &head.volume);
    const TrajectoryDeviation dev =
        compare_cost_trajectories(fast.cost.values(), strict.cost.values());
    EXPECT_TRUE(dev.within(cost_eps)) << "mode=" << static_cast<int>(mode)
                                      << ": max relative deviation " << dev.max_relative
                                      << " at iteration " << dev.worst_iteration;
    EXPECT_LT(relative_rms(fast.volume, strict.volume), rms_eps)
        << "mode=" << static_cast<int>(mode);
    // And a cold-start fast run still actually converges.
    const SerialResult cold = run_serial(policy, mode);
    EXPECT_LT(cold.cost.last(), cold.cost.first());
  }
}

// Values past f16's range (65504) — a measurement frame scaled to 70000,
// a transmittance of exp(12) — are ordinary f32 inputs: both tiers store
// frames and transmittance planes in f32, so the fast tier runs them to
// finite costs exactly as strict does.
TEST(PrecisionRange, FastRunsPastF16RangeInputsToFiniteCosts) {
  TierGuard guard;
  // One measurement frame scaled past 65504.
  Dataset loud = make_synthetic_dataset(repro_tiny_spec());
  RArray2D& frame = loud.measurements[3];
  const real peak = *std::max_element(frame.data(), frame.data() + frame.size());
  for (index_t i = 0; i < frame.size(); ++i) frame.data()[i] *= real(70000) / peak;
  // A potential-model dataset warm-started from a volume whose absorption
  // exp(-sigma * Im V) is exp(12) ~ 1.6e5 at the field's centre.
  DatasetSpec spec = repro_tiny_spec();
  spec.model.model = ObjectModel::kPotential;
  const Dataset potential = make_synthetic_dataset(spec);
  const Rect field = potential.field();
  FramedVolume warm(potential.spec.slices, field);
  warm.data(0, field.h / 2, field.w / 2) = cplx(real(0), real(-12) / spec.model.sigma);
  // The same warm start with a NaN there: non-finite in any precision.
  FramedVolume nan = warm.clone();
  nan.data(0, field.h / 2, field.w / 2) = cplx(std::numeric_limits<real>::quiet_NaN(), 0);

  const auto run = [](const Dataset& dataset, Method method, const char* tier,
                      const FramedVolume* initial) {
    ReconstructionRequest request;
    request.method = method;
    request.nranks = 2;
    request.iterations = 2;
    request.mode = UpdateMode::kFullBatch;
    request.exec.precision = parse_precision(tier);
    return Reconstructor(dataset)
        .run(request, initial != nullptr ? initial->clone() : FramedVolume{})
        .cost.values();
  };
  for (const Method method : {Method::kSerial, Method::kGradientDecomposition}) {
    for (const bool measurement : {true, false}) {
      const Dataset& dataset = measurement ? loud : potential;
      const FramedVolume* initial = measurement ? nullptr : &warm;
      const char* array = measurement ? "measurement stack" : "transmittance plane";
      const std::vector<double> fast = run(dataset, method, "fast", initial);
      ASSERT_EQ(fast.size(), 2u) << to_string(method);
      for (const double cost : fast) {
        EXPECT_TRUE(std::isfinite(cost)) << to_string(method) << " fast " << array;
      }
      // Strict evaluates the same inputs in f32 and sums the cost in
      // double: both costs are finite.
      const std::vector<double> strict = run(dataset, method, "strict", initial);
      ASSERT_EQ(strict.size(), 2u) << to_string(method);
      for (const double cost : strict) {
        EXPECT_TRUE(std::isfinite(cost)) << to_string(method) << " " << array;
      }
      // A GD cost that is non-finite even in double ends the run, naming it.
      if (method == Method::kGradientDecomposition && !measurement) {
        const std::string diverged =
            error_message([&] { (void)run(dataset, method, "strict", &nan); });
        EXPECT_NE(diverged.find("cost of iteration 1 is"), std::string::npos) << diverged;
        EXPECT_NE(diverged.find("nan: the reconstruction diverged"), std::string::npos)
            << to_string(method) << ": " << diverged;
      }
    }
  }
}

TEST(PrecisionCheckpoint, RestoresAcrossTiers) {
  // Snapshots always serialize f32 state, so a strict run restores into a
  // fast one and vice versa with no format shim.
  TierGuard guard;
  const std::string dir =
      (fs::temp_directory_path() / "ptycho_precision_ckpt").string();
  fs::remove_all(dir);
  const auto run_with_ckpt = [&](const PrecisionPolicy& policy, const ckpt::Snapshot* restore,
                                 int iterations) {
    SerialConfig config;
    config.iterations = iterations;
    config.step = real(0.1);
    config.mode = UpdateMode::kFullBatch;
    config.exec.precision = policy;
    config.exec.checkpoint.directory = dir;
    config.exec.checkpoint.every_chunks = 1;
    config.restore = restore;
    apply_precision(policy);
    return reconstruct_serial(ptycho::testing::tiny_dataset(), config);
  };
  for (const char* first_tier : {"strict", "fast"}) {
    fs::remove_all(dir);
    const PrecisionPolicy first = parse_precision(first_tier);
    const PrecisionPolicy second = parse_precision(
        std::string(first_tier) == "strict" ? "fast" : "strict");
    const SerialResult head = run_with_ckpt(first, nullptr, 2);
    auto snapshot = ckpt::load_newest_valid(dir, ckpt::RestoreFilter{});
    ASSERT_TRUE(snapshot.has_value()) << first_tier;
    EXPECT_EQ(snapshot->manifest.iteration, 2);
    const SerialResult resumed = run_with_ckpt(second, &*snapshot, 4);
    // Continuous trajectory: the two completed iterations carry over, the
    // other tier appends two more, and the cost keeps making progress.
    ASSERT_EQ(resumed.cost.values().size(), 4u);
    EXPECT_EQ(resumed.cost.values()[0], head.cost.values()[0]);
    EXPECT_EQ(resumed.cost.values()[1], head.cost.values()[1]);
    EXPECT_LT(resumed.cost.last(), resumed.cost.first());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ptycho
