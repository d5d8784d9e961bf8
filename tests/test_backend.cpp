// Backend dispatch tests: the bitwise scalar==SIMD contract on every
// kernel primitive (aligned, unaligned and tail-remainder sizes), the
// selection/override paths, and end-to-end bitwise identity of FFTs and a
// full reconstruction across backends.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "backend/kernels.hpp"
#include "common/random.hpp"
#include "core/reconstructor.hpp"
#include "data/simulate.hpp"
#include "data/synthetic.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"

namespace ptycho::backend {
namespace {

// Vector widths are 4 (AVX2) or 2 (NEON) complex lanes: cover the empty
// case, sub-width sizes, exact multiples, off-by-one tails and the larger
// sizes named in the issue checklist.
const usize kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 257};

std::vector<cplx> random_lanes(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) {
    x = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  }
  return v;
}

bool bitwise_equal(const cplx* a, const cplx* b, usize n) {
  // n == 0 guards the memcmp: an empty vector's data() may be null, and
  // memcmp's arguments are declared nonnull (UBSan flags the call).
  return n == 0 || std::memcmp(a, b, n * sizeof(cplx)) == 0;
}

/// Restores the auto-selected backend when a test exits.
struct BackendGuard {
  ~BackendGuard() { select("auto"); }
};

/// Runs `op` once per (size, alignment offset) pair against both tables
/// and asserts bitwise-identical outputs. `op(kernels, in..., n)` receives
/// pointers offset by 0 or 1 element from the allocation start, so the
/// SIMD path exercises both its vector body and its scalar tail on
/// unaligned data (cplx alignment is 8 bytes; vector registers want 16/32).
template <typename Op>
void expect_bitwise_all_sizes(Op op) {
  ASSERT_TRUE(simd_available()) << "guarded by the caller";
  const Kernels& sc = scalar_kernels();
  const Kernels& vec = *simd_kernels();
  for (const usize n : kSizes) {
    for (const usize offset : {usize{0}, usize{1}}) {
      const std::vector<cplx> a = random_lanes(n + offset, 17 * n + 1);
      const std::vector<cplx> b = random_lanes(n + offset, 23 * n + 2);
      const std::vector<cplx> c = random_lanes(n + offset, 31 * n + 3);
      std::vector<cplx> out_sc = c;
      std::vector<cplx> out_vec = c;
      op(sc, out_sc.data() + offset, a.data() + offset, b.data() + offset, n);
      op(vec, out_vec.data() + offset, a.data() + offset, b.data() + offset, n);
      EXPECT_TRUE(bitwise_equal(out_sc.data(), out_vec.data(), n + offset))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(BackendDispatch, ScalarAlwaysAvailable) {
  EXPECT_STREQ(scalar_kernels().name, "scalar");
  BackendGuard guard;
  EXPECT_TRUE(select("scalar"));
  EXPECT_STREQ(active_name(), "scalar");
}

TEST(BackendDispatch, AutoAndUnknownNames) {
  BackendGuard guard;
  EXPECT_TRUE(select("auto"));
  EXPECT_TRUE(select(""));
  EXPECT_FALSE(select("avx512"));
  EXPECT_FALSE(select("gpu"));
  // A failed select must leave the previous (auto) table active.
  EXPECT_STREQ(active_name(), simd_available() ? simd_kernels()->name : "scalar");
}

TEST(BackendDispatch, SimdSelection) {
  BackendGuard guard;
  if (!simd_available()) {
    EXPECT_FALSE(select("simd"));
    EXPECT_TRUE(select("scalar"));  // the forced-scalar path still works
    return;
  }
  EXPECT_TRUE(select("simd"));
  EXPECT_STREQ(active_name(), simd_kernels()->name);
  EXPECT_TRUE(select("scalar"));
  EXPECT_STREQ(active_name(), "scalar");
}

TEST(BackendBitwise, CmulLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  expect_bitwise_all_sizes([](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                              usize n) { k.cmul_lanes(dst, a, b, n); });
  // Aliased form (dst == a), as used by multiply_inplace.
  expect_bitwise_all_sizes([](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                              usize n) {
    (void)a;
    k.cmul_lanes(dst, dst, b, n);
  });
}

TEST(BackendBitwise, CmulConjLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  expect_bitwise_all_sizes([](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                              usize n) { k.cmul_conj_lanes(dst, a, b, n); });
}

TEST(BackendBitwise, CmulConjAccLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  expect_bitwise_all_sizes([](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                              usize n) { k.cmul_conj_acc_lanes(dst, a, b, n); });
}

TEST(BackendBitwise, ScaleAndAxpyLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const cplx alpha(real(0.37), real(-1.21));
  expect_bitwise_all_sizes([alpha](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                                   usize n) {
    (void)b;
    k.scale_lanes(dst, a, alpha, n);
  });
  expect_bitwise_all_sizes([alpha](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                                   usize n) {
    (void)b;
    k.axpy_lanes(dst, a, alpha, n);
  });
}

TEST(BackendBitwise, ConjScaleLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  for (const real s : {real(1), real(1) / real(100)}) {
    expect_bitwise_all_sizes([s](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                                 usize n) {
      (void)b;
      k.conj_scale_lanes(dst, a, s, n);
    });
  }
}

TEST(BackendBitwise, Butterfly4Block) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const Kernels& sc = scalar_kernels();
  const Kernels& vec = *simd_kernels();
  for (const usize n : kSizes) {
    for (const usize offset : {usize{0}, usize{1}}) {
      for (const bool conj_tw : {false, true}) {
        const std::vector<cplx> tw1 = random_lanes(n + offset, 61 * n + 1);
        const std::vector<cplx> tw2 = random_lanes(n + offset, 61 * n + 2);
        const std::vector<cplx> tw3 = random_lanes(n + offset, 61 * n + 3);
        const std::vector<cplx> x0 = random_lanes(n + offset, 67 * n + 1);
        const std::vector<cplx> x1 = random_lanes(n + offset, 67 * n + 2);
        const std::vector<cplx> x2 = random_lanes(n + offset, 67 * n + 3);
        const std::vector<cplx> x3 = random_lanes(n + offset, 67 * n + 4);
        std::vector<cplx> sc_out[4] = {x0, x1, x2, x3};
        std::vector<cplx> vec_out[4] = {x0, x1, x2, x3};
        sc.butterfly4_block(sc_out[0].data() + offset, sc_out[1].data() + offset,
                            sc_out[2].data() + offset, sc_out[3].data() + offset,
                            tw1.data() + offset, tw2.data() + offset, tw3.data() + offset,
                            conj_tw, n);
        vec.butterfly4_block(vec_out[0].data() + offset, vec_out[1].data() + offset,
                             vec_out[2].data() + offset, vec_out[3].data() + offset,
                             tw1.data() + offset, tw2.data() + offset, tw3.data() + offset,
                             conj_tw, n);
        for (int q = 0; q < 4; ++q) {
          EXPECT_TRUE(bitwise_equal(sc_out[q].data(), vec_out[q].data(), n + offset))
              << "n=" << n << " offset=" << offset << " conj=" << conj_tw << " quarter=" << q;
        }
      }
    }
  }
}

TEST(BackendBitwise, Butterfly4Lanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const Kernels& sc = scalar_kernels();
  const Kernels& vec = *simd_kernels();
  const cplx w1(real(0.92387953), real(-0.38268343));
  const cplx w2(real(0.98078528), real(-0.19509032));
  const cplx w3(real(0.83146961), real(-0.55557023));
  for (const usize n : kSizes) {
    for (const usize offset : {usize{0}, usize{1}}) {
      for (const bool conj_rot : {false, true}) {
        const std::vector<cplx> x0 = random_lanes(n + offset, 71 * n + 1);
        const std::vector<cplx> x1 = random_lanes(n + offset, 71 * n + 2);
        const std::vector<cplx> x2 = random_lanes(n + offset, 71 * n + 3);
        const std::vector<cplx> x3 = random_lanes(n + offset, 71 * n + 4);
        std::vector<cplx> sc_out[4] = {x0, x1, x2, x3};
        std::vector<cplx> vec_out[4] = {x0, x1, x2, x3};
        sc.butterfly4_lanes(sc_out[0].data() + offset, sc_out[1].data() + offset,
                            sc_out[2].data() + offset, sc_out[3].data() + offset, w1, w2, w3,
                            conj_rot, n);
        vec.butterfly4_lanes(vec_out[0].data() + offset, vec_out[1].data() + offset,
                             vec_out[2].data() + offset, vec_out[3].data() + offset, w1, w2, w3,
                             conj_rot, n);
        for (int q = 0; q < 4; ++q) {
          EXPECT_TRUE(bitwise_equal(sc_out[q].data(), vec_out[q].data(), n + offset))
              << "n=" << n << " offset=" << offset << " conj=" << conj_rot << " quarter=" << q;
        }
      }
    }
  }
}

TEST(BackendBitwise, CmulRowsTiled) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const Kernels& sc = scalar_kernels();
  const Kernels& vec = *simd_kernels();
  // Tile shapes exercise sub-width rows, exact vector multiples and tails;
  // distinct strides per operand cover the gathered-tile and full-field
  // call patterns of the fused Fft2D entry points.
  const usize rows = 5;
  for (const usize cols : kSizes) {
    for (const bool conj_b : {false, true}) {
      const usize dst_stride = cols + 2;
      const usize a_stride = cols + 3;
      const usize b_stride = cols + 1;
      const std::vector<cplx> a = random_lanes(rows * a_stride + 1, 73 * cols + 1);
      const std::vector<cplx> b = random_lanes(rows * b_stride + 1, 73 * cols + 2);
      const std::vector<cplx> dst0 = random_lanes(rows * dst_stride + 1, 73 * cols + 3);
      std::vector<cplx> dst_sc = dst0;
      std::vector<cplx> dst_vec = dst0;
      sc.cmul_rows_tiled(dst_sc.data(), dst_stride, a.data(), a_stride, b.data(), b_stride,
                         conj_b, rows, cols);
      vec.cmul_rows_tiled(dst_vec.data(), dst_stride, a.data(), a_stride, b.data(), b_stride,
                          conj_b, rows, cols);
      EXPECT_TRUE(bitwise_equal(dst_sc.data(), dst_vec.data(), dst_sc.size()))
          << "cols=" << cols << " conj=" << conj_b;
      // Aliased in-place form (dst == a), as used by the post-transform
      // tile multiply and the unfused propagator pass.
      std::vector<cplx> alias_sc = dst0;
      std::vector<cplx> alias_vec = dst0;
      sc.cmul_rows_tiled(alias_sc.data(), dst_stride, alias_sc.data(), dst_stride, b.data(),
                         b_stride, conj_b, rows, cols);
      vec.cmul_rows_tiled(alias_vec.data(), dst_stride, alias_vec.data(), dst_stride, b.data(),
                          b_stride, conj_b, rows, cols);
      EXPECT_TRUE(bitwise_equal(alias_sc.data(), alias_vec.data(), alias_sc.size()))
          << "aliased cols=" << cols << " conj=" << conj_b;
    }
  }
}

TEST(BackendBitwise, ChirpMulLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  for (const real s : {real(1), real(1) / real(512)}) {
    expect_bitwise_all_sizes([s](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                                 usize n) { k.chirp_mul_lanes(dst, a, b, s, n); });
  }
}

TEST(BackendBitwise, ScaleChirpLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const cplx alpha(real(-0.8), real(0.6));
  expect_bitwise_all_sizes([alpha](const Kernels& k, cplx* dst, const cplx* a, const cplx* b,
                                   usize n) {
    (void)b;
    k.scale_chirp_lanes(dst, a, real(1) / real(640), alpha, n);
  });
}

TEST(BackendBitwise, PotentialBackpropLanes) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const real sigma = real(0.00092);
  const Kernels& sc = scalar_kernels();
  const Kernels& vec = *simd_kernels();
  for (const usize n : kSizes) {
    const std::vector<cplx> psi = random_lanes(n, 41 * n + 1);
    const std::vector<cplx> trans = random_lanes(n, 43 * n + 2);
    const std::vector<cplx> g0 = random_lanes(n, 47 * n + 3);
    const std::vector<cplx> out0 = random_lanes(n, 53 * n + 4);
    std::vector<cplx> g_sc = g0;
    std::vector<cplx> out_sc = out0;
    std::vector<cplx> g_vec = g0;
    std::vector<cplx> out_vec = out0;
    sc.potential_backprop_lanes(out_sc.data(), g_sc.data(), psi.data(), trans.data(), sigma, n);
    vec.potential_backprop_lanes(out_vec.data(), g_vec.data(), psi.data(), trans.data(), sigma,
                                 n);
    EXPECT_TRUE(bitwise_equal(out_sc.data(), out_vec.data(), n)) << "n=" << n;
    EXPECT_TRUE(bitwise_equal(g_sc.data(), g_vec.data(), n)) << "n=" << n;
  }
}

// ---- end-to-end bitwise identity across backends ---------------------------

std::vector<cplx> run_fft_1d(usize n, bool strided) {
  std::vector<cplx> data = random_lanes(strided ? n * 3 : n, 1000 + n);
  fft::Plan1D plan(n);
  if (strided) {
    std::vector<cplx> scratch(plan.strided_scratch_size(3));
    plan.forward_strided(data.data(), 3, 3, scratch.empty() ? nullptr : scratch.data());
    plan.inverse_strided(data.data(), 3, 3, scratch.empty() ? nullptr : scratch.data());
  } else {
    plan.forward(data.data());
    plan.inverse(data.data());
  }
  return data;
}

TEST(BackendEndToEnd, FftBitwiseAcrossBackends) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  BackendGuard guard;
  for (const usize n : {usize{64}, usize{100}, usize{257}}) {
    for (const bool strided : {false, true}) {
      ASSERT_TRUE(select("scalar"));
      const std::vector<cplx> got_scalar = run_fft_1d(n, strided);
      ASSERT_TRUE(select("simd"));
      const std::vector<cplx> got_simd = run_fft_1d(n, strided);
      EXPECT_TRUE(bitwise_equal(got_scalar.data(), got_simd.data(), got_scalar.size()))
          << "n=" << n << " strided=" << strided;
    }
  }
}

TEST(BackendEndToEnd, Fft2DBitwiseAcrossBackends) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  BackendGuard guard;
  const index_t rows = 48, cols = 100;  // pow2 rows path + Bluestein cols path
  CArray2D field(rows, cols);
  Rng rng(99);
  for (index_t y = 0; y < rows; ++y) {
    for (index_t x = 0; x < cols; ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  fft::Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  CArray2D a = field.clone();
  ASSERT_TRUE(select("scalar"));
  plan.forward(a.view());
  CArray2D b = field.clone();
  ASSERT_TRUE(select("simd"));
  plan.forward(b.view());
  EXPECT_TRUE(bitwise_equal(a.data(), b.data(), static_cast<usize>(rows * cols)));
}

/// The acceptance-criteria check: --backend=scalar and --backend=simd give
/// bitwise-identical reconstructions on the tier-1 synthetic input.
TEST(BackendEndToEnd, ReconstructionBitwiseAcrossBackends) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  BackendGuard guard;
  const Dataset dataset = make_synthetic_dataset(repro_tiny_spec());
  const auto run_with = [&](const char* backend) {
    ReconstructionRequest request;
    request.method = Method::kSerial;
    request.iterations = 2;
    request.mode = UpdateMode::kFullBatch;
    request.exec.backend = backend;
    return Reconstructor(dataset).run(request).volume;
  };
  const FramedVolume v_scalar = run_with("scalar");
  const FramedVolume v_simd = run_with("simd");
  ASSERT_EQ(v_scalar.data.size(), v_simd.data.size());
  EXPECT_TRUE(bitwise_equal(v_scalar.data.data(), v_simd.data.data(),
                            static_cast<usize>(v_scalar.data.size())));
}

}  // namespace
}  // namespace ptycho::backend
