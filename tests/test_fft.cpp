// Unit/property tests for src/fft: fast transforms vs the O(n^2)
// reference, roundtrips, adjoint identities, shifts, the batched strided
// paths and the whole-window 2-D layout, the radix-4 stage schedule, the
// fused spectral entry points, and allocation-freedom of the shift helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "tensor/ops.hpp"

// Global allocation counter: replaces the default operator new/delete for
// this test binary so tests can assert that a code path allocates nothing.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC flags free() on memory from (our replaced) operator new as a
// mismatch; the pairing is intentional — both sides of it live right here.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace ptycho::fft {
namespace {

std::vector<cplx> random_signal(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) {
    v = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  }
  return x;
}

double rel_error(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double num = 0.0;
  double den = 0.0;
  for (usize i = 0; i < a.size(); ++i) {
    num += std::norm(std::complex<double>(a[i]) - std::complex<double>(b[i]));
    den += std::norm(std::complex<double>(b[i]));
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

TEST(FftHelpers, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(63), 64u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
}

TEST(FftHelpers, NextPow2GuardsOverflow) {
  // The largest representable power of two round-trips; anything above it
  // must throw instead of looping forever on wrapped arithmetic.
  constexpr usize top = usize{1} << (std::numeric_limits<usize>::digits - 1);
  EXPECT_EQ(next_pow2(top), top);
  EXPECT_THROW((void)next_pow2(top + 1), Error);
  EXPECT_THROW((void)next_pow2(~usize{0}), Error);
}

TEST(FftHelpers, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
}

TEST(FftHelpers, FftFreqOrdering) {
  EXPECT_DOUBLE_EQ(fft_freq(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(fft_freq(1, 8), 0.125);
  EXPECT_DOUBLE_EQ(fft_freq(4, 8), -0.5);
  EXPECT_DOUBLE_EQ(fft_freq(7, 8), -0.125);
  EXPECT_DOUBLE_EQ(fft_freq(2, 5), 0.4);
  EXPECT_DOUBLE_EQ(fft_freq(3, 5), -0.4);
}

// Property sweep: forward transform matches the direct DFT for power-of-
// two (radix-4 path, both log2 parities so the leading radix-2 stage is
// covered) and composite/prime (Bluestein path) sizes. 513 pads to 2048,
// an odd-log2 Bluestein transform.
class Plan1DMatchesReference : public ::testing::TestWithParam<usize> {};

TEST_P(Plan1DMatchesReference, Forward) {
  const usize n = GetParam();
  Plan1D plan(n);
  std::vector<cplx> x = random_signal(n, 100 + n);
  const std::vector<cplx> expected = reference_dft(x, -1);
  plan.forward(x.data());
  EXPECT_LT(rel_error(x, expected), 2e-5) << "n=" << n;
}

TEST_P(Plan1DMatchesReference, InverseRoundtrip) {
  const usize n = GetParam();
  Plan1D plan(n);
  const std::vector<cplx> original = random_signal(n, 200 + n);
  std::vector<cplx> x = original;
  plan.forward(x.data());
  plan.inverse(x.data());
  EXPECT_LT(rel_error(x, original), 2e-5) << "n=" << n;
}

TEST_P(Plan1DMatchesReference, ParsevalEnergy) {
  const usize n = GetParam();
  Plan1D plan(n);
  std::vector<cplx> x = random_signal(n, 300 + n);
  double time_energy = 0.0;
  for (const cplx& v : x) time_energy += std::norm(std::complex<double>(v));
  plan.forward(x.data());
  double freq_energy = 0.0;
  for (const cplx& v : x) freq_energy += std::norm(std::complex<double>(v));
  EXPECT_NEAR(freq_energy / static_cast<double>(n) / time_energy, 1.0, 1e-4) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Plan1DMatchesReference,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 27, 32, 45, 64, 97,
                                           128, 100, 256, 512, 1024, 513));

TEST(Plan1D, ImpulseGivesFlatSpectrum) {
  Plan1D plan(16);
  std::vector<cplx> x(16, cplx{});
  x[0] = cplx(1, 0);
  plan.forward(x.data());
  for (const cplx& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Plan1D, LinearityProperty) {
  const usize n = 24;  // Bluestein path
  Plan1D plan(n);
  std::vector<cplx> a = random_signal(n, 1);
  std::vector<cplx> b = random_signal(n, 2);
  const cplx alpha(0.7f, -0.3f);
  std::vector<cplx> combo(n);
  for (usize i = 0; i < n; ++i) combo[i] = alpha * a[i] + b[i];
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(combo.data());
  std::vector<cplx> expected(n);
  for (usize i = 0; i < n; ++i) expected[i] = alpha * a[i] + b[i];
  EXPECT_LT(rel_error(combo, expected), 2e-5);
}

TEST(Fft2D, MatchesSeparableReference) {
  const usize rows = 6;
  const usize cols = 8;
  Fft2D plan(rows, cols);
  CArray2D field(static_cast<index_t>(rows), static_cast<index_t>(cols));
  Rng rng(42);
  for (index_t y = 0; y < field.rows(); ++y) {
    for (index_t x = 0; x < field.cols(); ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  // Reference: rows then columns with the direct DFT.
  std::vector<std::vector<cplx>> ref(rows, std::vector<cplx>(cols));
  for (usize y = 0; y < rows; ++y) {
    std::vector<cplx> row(cols);
    for (usize x = 0; x < cols; ++x) row[x] = field(static_cast<index_t>(y), static_cast<index_t>(x));
    ref[y] = reference_dft(row, -1);
  }
  for (usize x = 0; x < cols; ++x) {
    std::vector<cplx> col(rows);
    for (usize y = 0; y < rows; ++y) col[y] = ref[y][x];
    col = reference_dft(col, -1);
    for (usize y = 0; y < rows; ++y) ref[y][x] = col[y];
  }
  plan.forward(field.view());
  double err = 0.0;
  double den = 0.0;
  for (usize y = 0; y < rows; ++y) {
    for (usize x = 0; x < cols; ++x) {
      err += std::norm(std::complex<double>(field(static_cast<index_t>(y), static_cast<index_t>(x))) -
                       std::complex<double>(ref[y][x]));
      den += std::norm(std::complex<double>(ref[y][x]));
    }
  }
  EXPECT_LT(std::sqrt(err / den), 2e-5);
}

TEST(Fft2D, RoundtripAndAdjointIdentities) {
  const usize n = 16;
  Fft2D plan(n, n);
  CArray2D a(static_cast<index_t>(n), static_cast<index_t>(n));
  CArray2D b(static_cast<index_t>(n), static_cast<index_t>(n));
  Rng rng(7);
  for (index_t y = 0; y < a.rows(); ++y) {
    for (index_t x = 0; x < a.cols(); ++x) {
      a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      b(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  // Roundtrip.
  CArray2D ra = a.clone();
  plan.forward(ra.view());
  plan.inverse(ra.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(ra.view(), a.view()) / norm_sq(a.view())), 2e-5);

  // Adjoint (dot) test: <F a, b> == <a, F^H b>.
  CArray2D fa = a.clone();
  plan.forward(fa.view());
  CArray2D fhb = b.clone();
  plan.adjoint_forward(fhb.view());
  const auto lhs = dot(fa.view(), b.view());
  const auto rhs = dot(a.view(), fhb.view());
  EXPECT_NEAR(lhs.real(), rhs.real(), 2e-2);
  EXPECT_NEAR(lhs.imag(), rhs.imag(), 2e-2);
}

TEST(Fft2D, ShiftRoundtripEvenAndOdd) {
  for (const index_t n : {8, 9}) {
    CArray2D a(n, n);
    Rng rng(static_cast<std::uint64_t>(n));
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) {
        a(y, x) = cplx(static_cast<real>(rng.normal()), 0);
      }
    }
    CArray2D shifted = a.clone();
    fftshift(shifted.view());
    ifftshift(shifted.view());
    EXPECT_DOUBLE_EQ(diff_norm_sq(shifted.view(), a.view()), 0.0) << "n=" << n;
  }
}

TEST(Fft2D, FftshiftMovesZeroFrequencyToCenter) {
  const index_t n = 8;
  CArray2D a(n, n);
  a(0, 0) = cplx(1, 0);  // DC bin
  fftshift(a.view());
  EXPECT_EQ(a(4, 4), cplx(1, 0));
}

TEST(Fft2D, ShiftsAreAllocationFree) {
  for (const index_t n : {8, 16, 64}) {  // even sizes, per the contract
    CArray2D a(n, n);
    Rng rng(static_cast<std::uint64_t>(n));
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) a(y, x) = cplx(static_cast<real>(rng.normal()), 0);
    }
    const std::uint64_t before = g_heap_allocs.load();
    fftshift(a.view());
    ifftshift(a.view());
    EXPECT_EQ(g_heap_allocs.load(), before) << "n=" << n;
  }
}

TEST(Fft2D, ShiftMatchesRolledCopyOddAndEven) {
  // The in-place cycle implementation must equal the old copy-based roll:
  // fftshift moves (0,0) to (r/2, c/2) for any parity combination.
  for (const index_t rows : {5, 6}) {
    for (const index_t cols : {7, 8}) {
      CArray2D a(rows, cols);
      Rng rng(static_cast<std::uint64_t>(rows * 100 + cols));
      for (index_t y = 0; y < rows; ++y) {
        for (index_t x = 0; x < cols; ++x) {
          a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
        }
      }
      CArray2D shifted = a.clone();
      fftshift(shifted.view());
      for (index_t y = 0; y < rows; ++y) {
        for (index_t x = 0; x < cols; ++x) {
          EXPECT_EQ(shifted((y + rows / 2) % rows, (x + cols / 2) % cols), a(y, x))
              << rows << "x" << cols << " @" << y << "," << x;
        }
      }
      CArray2D round = a.clone();
      fftshift(round.view());
      ifftshift(round.view());
      EXPECT_DOUBLE_EQ(diff_norm_sq(round.view(), a.view()), 0.0);
    }
  }
}

// The blocked column pass and the batched strided Plan1D must agree with
// the naive one-column-at-a-time path for both kernel families.
class BlockedColumns : public ::testing::TestWithParam<usize> {};

TEST_P(BlockedColumns, BatchedPlanMatchesScalarPerLane) {
  const usize n = GetParam();
  Plan1D plan(n);
  const usize count = 13;  // deliberately not the block size or a pow2
  std::vector<cplx> batched(n * count);
  Rng rng(n * 7 + 1);
  for (auto& v : batched) {
    v = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  }
  // Scalar reference: gather each lane, transform, compare.
  std::vector<std::vector<cplx>> lanes(count, std::vector<cplx>(n));
  for (usize lane = 0; lane < count; ++lane) {
    for (usize j = 0; j < n; ++j) lanes[lane][j] = batched[j * count + lane];
    plan.forward(lanes[lane].data());
  }
  std::vector<cplx> scratch(plan.strided_scratch_size(count));
  plan.forward_strided(batched.data(), count, count, scratch.data());
  for (usize lane = 0; lane < count; ++lane) {
    double err = 0.0;
    double den = 0.0;
    for (usize j = 0; j < n; ++j) {
      err += std::norm(std::complex<double>(batched[j * count + lane]) -
                       std::complex<double>(lanes[lane][j]));
      den += std::norm(std::complex<double>(lanes[lane][j]));
    }
    EXPECT_LT(std::sqrt(err / std::max(den, 1e-300)), 1e-5) << "n=" << n << " lane=" << lane;
  }
}

TEST_P(BlockedColumns, Fft2DMatchesNaivePerColumnPath) {
  const usize n = GetParam();
  Fft2D plan(n, n);
  const auto ni = static_cast<index_t>(n);
  CArray2D field(ni, ni);
  Rng rng(n * 31 + 5);
  for (index_t y = 0; y < ni; ++y) {
    for (index_t x = 0; x < ni; ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  // Naive reference: scalar Plan1D over every row, then every gathered column.
  Plan1D plan1(n);
  CArray2D ref = field.clone();
  for (index_t y = 0; y < ni; ++y) plan1.forward(ref.row(y));
  std::vector<cplx> column(n);
  for (index_t x = 0; x < ni; ++x) {
    for (index_t y = 0; y < ni; ++y) column[static_cast<usize>(y)] = ref(y, x);
    plan1.forward(column.data());
    for (index_t y = 0; y < ni; ++y) ref(y, x) = column[static_cast<usize>(y)];
  }
  plan.forward(field.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(field.view(), ref.view()) /
                      std::max(norm_sq(ref.view()), 1e-300)),
            1e-5)
      << "n=" << n;
  // And the inverse path round-trips through the blocked kernels.
  plan.inverse(field.view());
  for (index_t x = 0; x < ni; ++x) {
    for (index_t y = 0; y < ni; ++y) column[static_cast<usize>(y)] = ref(y, x);
    plan1.inverse(column.data());
    for (index_t y = 0; y < ni; ++y) ref(y, x) = column[static_cast<usize>(y)];
  }
  for (index_t y = 0; y < ni; ++y) plan1.inverse(ref.row(y));
  EXPECT_LT(std::sqrt(diff_norm_sq(field.view(), ref.view()) /
                      std::max(norm_sq(ref.view()), 1e-300)),
            1e-5)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Pow2AndBluestein, BlockedColumns,
                         ::testing::Values(8, 64, 100));  // pow2 and chirp-z paths

// ---- the fused spectral entry points ---------------------------------------

bool bitwise_equal(const cplx* a, const cplx* b, usize n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(cplx)) == 0;
}

CArray2D random_field(index_t rows, index_t cols, std::uint64_t seed) {
  CArray2D field(rows, cols);
  Rng rng(seed);
  for (index_t y = 0; y < rows; ++y) {
    for (index_t x = 0; x < cols; ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  return field;
}

// The fused entry points must be bitwise-equal to their composed two-step
// sequences under the same radix configuration: the fold moves the same
// dispatched per-element ops into the transform call, it must not change
// one bit.
// Shapes cover pow2, Bluestein and mixed extents.
class FusedEntryPoints : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(FusedEntryPoints, ForwardMultiplyBitwiseEqualsComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 900 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(rows, cols, 901 + static_cast<usize>(rows * cols));
  const backend::Kernels& kern = backend::kernels();
  for (const bool conj : {false, true}) {
    CArray2D composed = input.clone();
    plan.forward(composed.view());
    kern.cmul_rows_tiled(composed.data(), static_cast<usize>(cols), composed.data(),
                         static_cast<usize>(cols), kernel.data(), static_cast<usize>(cols),
                         conj, static_cast<usize>(rows), static_cast<usize>(cols));
    CArray2D fused = input.clone();
    plan.forward_multiply(fused.view(), kernel.view(), conj);
    EXPECT_TRUE(bitwise_equal(fused.data(), composed.data(),
                              static_cast<usize>(rows * cols)))
        << rows << "x" << cols << " conj=" << conj;
  }
}

TEST_P(FusedEntryPoints, MultiplyInverseBitwiseEqualsComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 910 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(rows, cols, 911 + static_cast<usize>(rows * cols));
  const backend::Kernels& kern = backend::kernels();
  for (const bool conj : {false, true}) {
    CArray2D composed = input.clone();
    kern.cmul_rows_tiled(composed.data(), static_cast<usize>(cols), composed.data(),
                         static_cast<usize>(cols), kernel.data(), static_cast<usize>(cols),
                         conj, static_cast<usize>(rows), static_cast<usize>(cols));
    plan.inverse(composed.view());
    CArray2D fused = input.clone();
    plan.multiply_inverse(kernel.view(), fused.view(), conj);
    EXPECT_TRUE(bitwise_equal(fused.data(), composed.data(),
                              static_cast<usize>(rows * cols)))
        << rows << "x" << cols << " conj=" << conj;
  }
}

TEST_P(FusedEntryPoints, ScaleVariantsBitwiseEqualComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 920 + static_cast<usize>(rows * cols));
  const cplx alpha(real(0.37), real(-0.81));
  {
    CArray2D composed = input.clone();
    plan.forward(composed.view());
    scale(alpha, composed.view());
    CArray2D fused = input.clone();
    plan.forward_scale(fused.view(), alpha);
    EXPECT_TRUE(
        bitwise_equal(fused.data(), composed.data(), static_cast<usize>(rows * cols)))
        << "forward_scale " << rows << "x" << cols;
  }
  {
    CArray2D composed = input.clone();
    plan.inverse(composed.view());
    scale(alpha, composed.view());
    CArray2D fused = input.clone();
    plan.inverse_scale(fused.view(), alpha);
    EXPECT_TRUE(
        bitwise_equal(fused.data(), composed.data(), static_cast<usize>(rows * cols)))
        << "inverse_scale " << rows << "x" << cols;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedEntryPoints,
                         ::testing::Values(std::pair<index_t, index_t>{32, 16},
                                           std::pair<index_t, index_t>{24, 20},
                                           std::pair<index_t, index_t>{8, 100},
                                           std::pair<index_t, index_t>{17, 64}));

// The reference every Fft2D entry point must reproduce bit for bit: the
// contiguous Plan1D transform over every row, then over every gathered
// column (forward), or columns first, then rows (inverse — the order the
// 2-D inverse runs in). The whole-window lane-major layout and the
// bit reversal folded into its transposes may only move data.
void naive_forward(CArray2D& a) {
  const index_t rows = a.rows();
  const index_t cols = a.cols();
  Plan1D row_plan(static_cast<usize>(cols));
  Plan1D col_plan(static_cast<usize>(rows));
  for (index_t y = 0; y < rows; ++y) row_plan.forward(a.row(y));
  std::vector<cplx> column(static_cast<usize>(rows));
  for (index_t x = 0; x < cols; ++x) {
    for (index_t y = 0; y < rows; ++y) column[static_cast<usize>(y)] = a(y, x);
    col_plan.forward(column.data());
    for (index_t y = 0; y < rows; ++y) a(y, x) = column[static_cast<usize>(y)];
  }
}

void naive_inverse(CArray2D& a) {
  const index_t rows = a.rows();
  const index_t cols = a.cols();
  Plan1D row_plan(static_cast<usize>(cols));
  Plan1D col_plan(static_cast<usize>(rows));
  std::vector<cplx> column(static_cast<usize>(rows));
  for (index_t x = 0; x < cols; ++x) {
    for (index_t y = 0; y < rows; ++y) column[static_cast<usize>(y)] = a(y, x);
    col_plan.inverse(column.data());
    for (index_t y = 0; y < rows; ++y) a(y, x) = column[static_cast<usize>(y)];
  }
  for (index_t y = 0; y < rows; ++y) row_plan.inverse(a.row(y));
}

void naive_multiply(CArray2D& a, View2D<const cplx> kernel, bool conj) {
  backend::kernels().cmul_rows_tiled(a.data(), static_cast<usize>(a.cols()), a.data(),
                                     static_cast<usize>(a.cols()), kernel.data(),
                                     static_cast<usize>(kernel.row_stride()), conj,
                                     static_cast<usize>(a.rows()), static_cast<usize>(a.cols()));
}

class Fft2DLayout : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(Fft2DLayout, EveryEntryPointBitwiseEqualsNaiveComposition) {
  const auto [rows, cols] = GetParam();
  const Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const auto seed = static_cast<std::uint64_t>(rows * 1000 + cols);
  // Non-contiguous operands: windows of larger arrays, offset on both axes.
  constexpr index_t kPadY = 5;
  constexpr index_t kPadX = 7;
  const CArray2D outer = random_field(rows + kPadY, cols + kPadX, seed);
  const CArray2D kernel_outer = random_field(rows + kPadY, cols + kPadX, seed + 1);
  const View2D<const cplx> kernel = kernel_outer.sub(3, 4, rows, cols);
  const cplx alpha(real(0.37), real(-0.81));
  const cplx size_alpha(static_cast<real>(rows * cols), 0);
  const cplx inv_size_alpha(real(1) / static_cast<real>(rows * cols), 0);

  struct Case {
    const char* name;
    std::function<void(View2D<cplx>)> fast;
    std::function<void(CArray2D&)> naive;
  };
  const std::vector<Case> cases = {
      {"forward", [&](View2D<cplx> f) { plan.forward(f); }, naive_forward},
      {"inverse", [&](View2D<cplx> f) { plan.inverse(f); }, naive_inverse},
      {"forward_multiply", [&](View2D<cplx> f) { plan.forward_multiply(f, kernel); },
       [&](CArray2D& a) {
         naive_forward(a);
         naive_multiply(a, kernel, false);
       }},
      {"forward_multiply conj", [&](View2D<cplx> f) { plan.forward_multiply(f, kernel, true); },
       [&](CArray2D& a) {
         naive_forward(a);
         naive_multiply(a, kernel, true);
       }},
      {"multiply_inverse", [&](View2D<cplx> f) { plan.multiply_inverse(kernel, f); },
       [&](CArray2D& a) {
         naive_multiply(a, kernel, false);
         naive_inverse(a);
       }},
      {"multiply_inverse conj", [&](View2D<cplx> f) { plan.multiply_inverse(kernel, f, true); },
       [&](CArray2D& a) {
         naive_multiply(a, kernel, true);
         naive_inverse(a);
       }},
      {"forward_scale", [&](View2D<cplx> f) { plan.forward_scale(f, alpha); },
       [&](CArray2D& a) {
         naive_forward(a);
         scale(alpha, a.view());
       }},
      {"inverse_scale", [&](View2D<cplx> f) { plan.inverse_scale(f, alpha); },
       [&](CArray2D& a) {
         naive_inverse(a);
         scale(alpha, a.view());
       }},
      {"adjoint_forward", [&](View2D<cplx> f) { plan.adjoint_forward(f); },
       [&](CArray2D& a) {
         naive_inverse(a);
         scale(size_alpha, a.view());
       }},
      {"adjoint_inverse", [&](View2D<cplx> f) { plan.adjoint_inverse(f); },
       [&](CArray2D& a) {
         naive_forward(a);
         scale(inv_size_alpha, a.view());
       }},
  };
  const auto count = static_cast<usize>(rows * cols);
  for (const Case& c : cases) {
    CArray2D expected(rows, cols);
    copy(outer.sub(2, 3, rows, cols), expected.view());
    c.naive(expected);

    CArray2D dense(rows, cols);
    copy(outer.sub(2, 3, rows, cols), dense.view());
    c.fast(dense.view());
    EXPECT_TRUE(bitwise_equal(dense.data(), expected.data(), count))
        << c.name << " " << rows << "x" << cols;

    CArray2D strided = outer.clone();
    c.fast(strided.sub(2, 3, rows, cols));
    CArray2D window(rows, cols);
    copy(strided.sub(2, 3, rows, cols), window.view());
    EXPECT_TRUE(bitwise_equal(window.data(), expected.data(), count))
        << c.name << " window " << rows << "x" << cols;
    // Everything outside the window must be untouched.
    for (index_t y = 0; y < outer.rows(); ++y) {
      for (index_t x = 0; x < outer.cols(); ++x) {
        const bool inside = y >= 2 && y < 2 + rows && x >= 3 && x < 3 + cols;
        if (!inside) {
          ASSERT_TRUE(bitwise_equal(&strided(y, x), &outer(y, x), 1))
              << c.name << " wrote outside the window at " << y << "," << x;
        }
      }
    }
  }
}

// Power-of-two shapes of both log2 parities (the radix-4 schedule with and
// without its leading radix-2 stage, on each axis), then Bluestein and
// mixed pow2/Bluestein shapes.
INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2DLayout,
    ::testing::Values(std::pair<index_t, index_t>{4, 4}, std::pair<index_t, index_t>{8, 8},
                      std::pair<index_t, index_t>{16, 16}, std::pair<index_t, index_t>{32, 32},
                      std::pair<index_t, index_t>{64, 64}, std::pair<index_t, index_t>{128, 128},
                      std::pair<index_t, index_t>{256, 256}, std::pair<index_t, index_t>{32, 16},
                      std::pair<index_t, index_t>{16, 128}, std::pair<index_t, index_t>{24, 20},
                      std::pair<index_t, index_t>{8, 100}, std::pair<index_t, index_t>{17, 64},
                      std::pair<index_t, index_t>{100, 100}));

TEST(Fft2D, OnePlanSharedAcrossConcurrentThreads) {
  // One plan, four threads, each transforming its own field: the pooled
  // scratch must keep them independent (run under TSan to verify raciness,
  // value-compare here). 100 exercises the Bluestein pad in the pool too.
  for (const usize n : {64, 100}) {
    Fft2D plan(n, n);
    const auto ni = static_cast<index_t>(n);
    CArray2D input(ni, ni);
    Rng rng(n);
    for (index_t y = 0; y < ni; ++y) {
      for (index_t x = 0; x < ni; ++x) {
        input(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      }
    }
    // Expected: the exact op sequence each thread will run, applied
    // sequentially — concurrent execution must be bitwise indistinguishable.
    const auto transform_sequence = [&plan](CArray2D& field) {
      for (int rep = 0; rep < 8; ++rep) {
        plan.forward(field.view());
        plan.inverse(field.view());
      }
      plan.forward(field.view());
    };
    CArray2D expected = input.clone();
    transform_sequence(expected);
    constexpr int kThreads = 4;
    std::vector<CArray2D> results;
    results.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) results.push_back(input.clone());
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [&transform_sequence, &results, t] { transform_sequence(results[static_cast<usize>(t)]); });
      }
      for (std::thread& t : threads) t.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_DOUBLE_EQ(
          diff_norm_sq(results[static_cast<usize>(t)].view(), expected.view()), 0.0)
          << "n=" << n << " thread=" << t;
    }
  }
}

}  // namespace
}  // namespace ptycho::fft
