#include "fft/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "common/memory.hpp"

namespace ptycho::fft {

usize next_pow2(usize n) {
  // Guard the doubling loop: for n above the largest representable power
  // of two, p would wrap to 0 and the loop would never terminate.
  constexpr usize kMaxPow2 = usize{1} << (std::numeric_limits<usize>::digits - 1);
  PTYCHO_REQUIRE(n <= kMaxPow2,
                 "next_pow2: no power of two >= " << n << " fits in usize");
  usize p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The tables of one power-of-two transform (the plan's own, or Bluestein's
// padded one) and the radix-4 kernel calls over them.
struct Plan1D::Pow2Tables {
  explicit Pow2Tables(usize n)
      : bitrev(detail::make_bitrev(n)), radix4(detail::make_radix4_tables(n)) {}

  void run(cplx* data, int sign) const {
    detail::radix4_transform(data, bitrev.size(), sign, bitrev, radix4);
  }
  void run_strided(cplx* data, usize stride, usize count, int sign,
                   bool input_bitrev = false) const {
    detail::radix4_transform_strided(data, bitrev.size(), stride, count, sign, bitrev, radix4,
                                     input_bitrev);
  }

  std::vector<usize> bitrev;
  detail::Radix4Tables radix4;
};

struct Plan1D::BluesteinTables {
  explicit BluesteinTables(usize padded) : m(padded), pad(padded) {}

  usize m;                          // padded pow2 size >= 2n-1
  Pow2Tables pad;                   // the size-m transform
  std::vector<cplx> chirp;          // a_k = exp(-iπ k² / n), k in [0, n)
  std::vector<cplx> filter_fft;     // forward FFT of b (conjugate chirp, wrapped)
};

namespace {
// Chirp phase exp(-iπ k² / n) evaluated in double with k² reduced mod 2n
// (k² / n mod 2 is what matters for the complex exponential) to preserve
// accuracy for large k.
cplx chirp_value(usize k, usize n, int sign) {
  const usize k2mod = static_cast<usize>(
      (static_cast<unsigned long long>(k) * k) % (2ULL * n));
  const double angle = sign * 3.14159265358979323846 * static_cast<double>(k2mod) /
                       static_cast<double>(n);
  return cplx(static_cast<real>(std::cos(angle)), static_cast<real>(std::sin(angle)));
}
}  // namespace

Plan1D::Plan1D(usize n) : n_(n) {
  PTYCHO_REQUIRE(n >= 1, "FFT size must be >= 1");
  if (is_pow2(n)) {
    pow2_ = std::make_unique<Pow2Tables>(n);
    return;
  }
  bluestein_ = std::make_unique<BluesteinTables>(next_pow2(2 * n - 1));
  auto& bt = *bluestein_;
  bt.chirp.resize(n);
  for (usize k = 0; k < n; ++k) bt.chirp[k] = chirp_value(k, n, -1);
  // Filter b[j] = conj(chirp)[|j|] wrapped onto [0, m).
  std::vector<cplx> filter(bt.m, cplx{});
  for (usize k = 0; k < n; ++k) {
    const cplx b = chirp_value(k, n, +1);
    filter[k] = b;
    if (k != 0) filter[bt.m - k] = b;
  }
  bt.pad.run(filter.data(), -1);
  bt.filter_fft = std::move(filter);
}

Plan1D::~Plan1D() = default;
Plan1D::Plan1D(Plan1D&&) noexcept = default;
Plan1D& Plan1D::operator=(Plan1D&&) noexcept = default;

namespace detail {
AlignedScratch::~AlignedScratch() { std::free(data_); }

cplx* AlignedScratch::reserve(usize count) {
  if (count <= capacity_) return data_;
  // std::aligned_alloc needs a size that is a multiple of the alignment.
  constexpr usize kPerLine = kBufferAlignment / sizeof(cplx);
  const usize grown = (count + kPerLine - 1) / kPerLine * kPerLine;
  void* p = std::aligned_alloc(kBufferAlignment, grown * sizeof(cplx));
  if (p == nullptr) throw std::bad_alloc();
  std::free(data_);
  data_ = static_cast<cplx*>(p);
  capacity_ = grown;
  return data_;
}
}  // namespace detail

namespace {
// The contiguous Bluestein transform's padded buffer. Fft2D keeps its own
// thread_local scratch, so neither transform clobbers the other's.
thread_local detail::AlignedScratch t_bluestein;
}  // namespace

void Plan1D::forward(cplx* data) const {
  if (pow2_) {
    pow2_->run(data, -1);
    return;
  }
  const auto& bt = *bluestein_;
  const backend::Kernels& kern = backend::kernels();
  cplx* pad = t_bluestein.reserve(bt.m);
  std::fill_n(pad, bt.m, cplx{});
  kern.chirp_mul_lanes(pad, data, bt.chirp.data(), real(1), n_);
  bt.pad.run(pad, -1);
  kern.cmul_lanes(pad, pad, bt.filter_fft.data(), bt.m);
  bt.pad.run(pad, +1);
  const real inv_m = real(1) / static_cast<real>(bt.m);
  kern.chirp_mul_lanes(data, pad, bt.chirp.data(), inv_m, n_);
}

void Plan1D::inverse(cplx* data) const {
  const backend::Kernels& kern = backend::kernels();
  const real inv_n = real(1) / static_cast<real>(n_);
  if (pow2_) {
    // The pow2 kernels take the sign directly: one conjugated-twiddle sweep
    // plus one scale pass, instead of the two extra conjugation passes of
    // the generic trick below.
    pow2_->run(data, +1);
    kern.scale_lanes(data, data, cplx(inv_n, 0), n_);
    return;
  }
  // inverse(x) = conj(forward(conj(x))) / n — reuses the forward kernels so
  // Bluestein sizes get the inverse for free.
  kern.conj_scale_lanes(data, data, real(1), n_);
  forward(data);
  kern.conj_scale_lanes(data, data, inv_n, n_);
}

usize Plan1D::strided_scratch_size(usize count) const {
  return bluestein_ ? bluestein_->m * count : 0;
}

const usize* Plan1D::bitrev() const { return pow2_ ? pow2_->bitrev.data() : nullptr; }

void Plan1D::forward_strided(cplx* data, usize stride, usize count, cplx* scratch) const {
  transform_strided(data, stride, count, scratch, -1, false);
}

void Plan1D::inverse_strided(cplx* data, usize stride, usize count, cplx* scratch) const {
  transform_strided(data, stride, count, scratch, +1, false);
}

void Plan1D::inverse_strided_unnormalized(cplx* data, usize stride, usize count,
                                          bool input_bitrev) const {
  PTYCHO_REQUIRE(count >= 1 && stride >= count, "strided batch: need stride >= count >= 1");
  PTYCHO_CHECK(pow2_, "unnormalized strided inverse needs a power-of-two plan");
  pow2_->run_strided(data, stride, count, +1, input_bitrev);
}

void Plan1D::transform_strided(cplx* data, usize stride, usize count, cplx* scratch, int sign,
                               bool input_bitrev) const {
  PTYCHO_REQUIRE(count >= 1 && stride >= count, "strided batch: need stride >= count >= 1");
  PTYCHO_CHECK(!input_bitrev || pow2_, "bit-reversed input needs a power-of-two plan");
  const backend::Kernels& kern = backend::kernels();
  if (pow2_) {
    pow2_->run_strided(data, stride, count, sign, input_bitrev);
    if (sign < 0) return;
    // Direct conjugated-twiddle sweep + normalization, as in the contiguous
    // inverse. A dense batch (stride == count) scales in one dispatched
    // call over the whole batch.
    const cplx inv_n(real(1) / static_cast<real>(n_), 0);
    if (stride == count) {
      kern.scale_lanes(data, data, inv_n, n_ * count);
    } else {
      for (usize k = 0; k < n_; ++k) {
        cplx* row = data + k * stride;
        kern.scale_lanes(row, row, inv_n, count);
      }
    }
    return;
  }
  PTYCHO_REQUIRE(scratch != nullptr, "strided batch: Bluestein sizes need caller scratch");
  if (sign > 0) {
    // Same conjugation trick as the contiguous Bluestein inverse, lane-wise.
    const real inv_n = real(1) / static_cast<real>(n_);
    for (usize k = 0; k < n_; ++k) {
      cplx* row = data + k * stride;
      kern.conj_scale_lanes(row, row, real(1), count);
    }
    transform_strided(data, stride, count, scratch, -1, false);
    for (usize k = 0; k < n_; ++k) {
      cplx* row = data + k * stride;
      kern.conj_scale_lanes(row, row, inv_n, count);
    }
    return;
  }
  // Bluestein on the whole batch at once: the padded convolution runs
  // through the strided pow2 kernel with the lanes packed contiguously.
  const auto& bt = *bluestein_;
  std::fill_n(scratch, bt.m * count, cplx{});
  for (usize k = 0; k < n_; ++k) {
    kern.scale_lanes(scratch + k * count, data + k * stride, bt.chirp[k], count);
  }
  bt.pad.run_strided(scratch, count, count, -1);
  for (usize k = 0; k < bt.m; ++k) {
    cplx* row = scratch + k * count;
    kern.scale_lanes(row, row, bt.filter_fft[k], count);
  }
  bt.pad.run_strided(scratch, count, count, +1);
  const real inv_m = real(1) / static_cast<real>(bt.m);
  for (usize k = 0; k < n_; ++k) {
    kern.scale_chirp_lanes(data + k * stride, scratch + k * count, inv_m, bt.chirp[k], count);
  }
}

}  // namespace ptycho::fft
