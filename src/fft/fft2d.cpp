#include "fft/fft2d.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace ptycho::fft {

namespace {
// One full 2-D transform of a rows x cols field (any fusion variant).
void note_transform(usize rows, usize cols) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& transforms = obs::registry().counter("fft2d_transforms_total");
  static obs::Counter& bytes = obs::registry().counter("fft2d_bytes_total");
  transforms.add(1);
  bytes.add(static_cast<std::uint64_t>(rows) * cols * sizeof(cplx));
}
}  // namespace

Fft2D::Fft2D(usize rows, usize cols) : rows_(rows), cols_(cols), row_plan_(cols), col_plan_(rows) {
  PTYCHO_REQUIRE(rows >= 1 && cols >= 1, "Fft2D extents must be >= 1");
}

Fft2D::ScratchLease::~ScratchLease() {
  std::lock_guard<std::mutex> lock(plan_.scratch_mutex_);
  plan_.scratch_pool_.push_back(std::move(scratch_));
}

Fft2D::ScratchLease Fft2D::acquire_scratch() const {
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<Scratch> scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return ScratchLease(*this, std::move(scratch));
    }
  }
  auto scratch = std::make_unique<Scratch>();
  scratch->lanes.resize(rows_ * cols_);
  // The column pass batches all cols_ lanes, the row pass all rows_ lanes.
  scratch->bluestein.resize(std::max(col_plan_.strided_scratch_size(cols_),
                                     row_plan_.strided_scratch_size(rows_)));
  return ScratchLease(*this, std::move(scratch));
}

namespace {
void check_shape(View2D<const cplx> field, usize rows, usize cols, const char* what) {
  PTYCHO_CHECK(field.rows() == static_cast<index_t>(rows) &&
                   field.cols() == static_cast<index_t>(cols),
               what << " shape does not match plan");
}

// dst[perm[c] * dst_stride + r] = src[r * src_stride + c] for r < rows,
// c < cols (perm == nullptr: the identity). Moves 4x4 blocks through
// registers as 8-byte words (memcpy compiles to plain loads and stores),
// so each side reads or writes four adjacent elements at a time; ragged
// edges fall back to element copies.
void transpose(const cplx* src, usize src_stride, usize rows, usize cols, cplx* dst,
               usize dst_stride, const usize* perm) {
  using Word = std::uint64_t;
  static_assert(sizeof(Word) == sizeof(cplx), "transpose moves one cplx per word");
  const auto dst_row = [&](usize c) { return dst + (perm != nullptr ? perm[c] : c) * dst_stride; };
  const usize rows4 = rows & ~usize{3};
  const usize cols4 = cols & ~usize{3};
  for (usize r = 0; r < rows4; r += 4) {
    for (usize c = 0; c < cols4; c += 4) {
      Word block[4][4];
      for (usize i = 0; i < 4; ++i) {
        for (usize j = 0; j < 4; ++j) {
          std::memcpy(&block[i][j], src + (r + i) * src_stride + c + j, sizeof(Word));
        }
      }
      for (usize j = 0; j < 4; ++j) {
        cplx* d = dst_row(c + j) + r;
        for (usize i = 0; i < 4; ++i) {
          std::memcpy(static_cast<void*>(d + i), &block[i][j], sizeof(Word));
        }
      }
    }
    for (usize c = cols4; c < cols; ++c) {
      for (usize i = 0; i < 4; ++i) dst_row(c)[r + i] = src[(r + i) * src_stride + c];
    }
  }
  for (usize r = rows4; r < rows; ++r) {
    for (usize c = 0; c < cols; ++c) dst_row(c)[r] = src[r * src_stride + c];
  }
}

// field[i] *= kernel[i] (or conj) over a possibly strided window.
void multiply_field(View2D<cplx> field, const cplx* kernel, usize kernel_stride, bool conj) {
  const auto stride = static_cast<usize>(field.row_stride());
  backend::kernels().cmul_rows_tiled(field.data(), stride, field.data(), stride, kernel,
                                     kernel_stride, conj, static_cast<usize>(field.rows()),
                                     static_cast<usize>(field.cols()));
}
}  // namespace

// Lane layout of the row pass: element x of row y sits at lanes[x*rows + y],
// so signal x-rows are contiguous over all `rows` lanes.
void Fft2D::run_forward(View2D<cplx> field, const MultiplySpec* mul, const cplx* alpha) const {
  const ScratchLease lease = acquire_scratch();
  cplx* lanes = lease.get().lanes.data();
  cplx* pad = lease.get().bluestein.empty() ? nullptr : lease.get().bluestein.data();
  const auto stride = static_cast<usize>(field.row_stride());
  const usize* xrev = row_plan_.bitrev();
  const usize* yrev = col_plan_.bitrev();
  transpose(field.data(), stride, rows_, cols_, lanes, rows_, xrev);
  row_plan_.transform_strided(lanes, rows_, rows_, pad, -1, xrev != nullptr);
  transpose(lanes, rows_, cols_, rows_, field.data(), stride, yrev);
  col_plan_.transform_strided(field.data(), stride, cols_, pad, -1, yrev != nullptr);
  if (mul != nullptr) multiply_field(field, mul->data, mul->stride, mul->conj);
  if (alpha != nullptr) scale(*alpha, field);
}

void Fft2D::run_inverse(View2D<cplx> field, const MultiplySpec* mul, const cplx* alpha) const {
  const ScratchLease lease = acquire_scratch();
  cplx* lanes = lease.get().lanes.data();
  cplx* pad = lease.get().bluestein.empty() ? nullptr : lease.get().bluestein.data();
  const auto stride = static_cast<usize>(field.row_stride());
  const usize* xrev = row_plan_.bitrev();
  if (mul != nullptr) multiply_field(field, mul->data, mul->stride, mul->conj);
  col_plan_.transform_strided(field.data(), stride, cols_, pad, +1, false);
  transpose(field.data(), stride, rows_, cols_, lanes, rows_, xrev);
  row_plan_.transform_strided(lanes, rows_, rows_, pad, +1, xrev != nullptr);
  if (alpha != nullptr) backend::kernels().scale_lanes(lanes, lanes, *alpha, rows_ * cols_);
  transpose(lanes, rows_, cols_, rows_, field.data(), stride, nullptr);
}

void Fft2D::forward(View2D<cplx> field) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_forward(field, nullptr, nullptr);
}

void Fft2D::inverse(View2D<cplx> field) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_inverse(field, nullptr, nullptr);
}

void Fft2D::forward_multiply(View2D<cplx> field, View2D<const cplx> kernel,
                             bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(kernel, rows_, cols_, "kernel");
  note_transform(rows_, cols_);
  const MultiplySpec mul{kernel.data(), static_cast<usize>(kernel.row_stride()), conj_kernel};
  run_forward(field, &mul, nullptr);
}

void Fft2D::multiply_inverse(View2D<const cplx> kernel, View2D<cplx> field,
                             bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(kernel, rows_, cols_, "kernel");
  note_transform(rows_, cols_);
  const MultiplySpec mul{kernel.data(), static_cast<usize>(kernel.row_stride()), conj_kernel};
  run_inverse(field, &mul, nullptr);
}

void Fft2D::forward_scale(View2D<cplx> field, cplx alpha) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_forward(field, nullptr, &alpha);
}

void Fft2D::inverse_scale(View2D<cplx> field, cplx alpha) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_inverse(field, nullptr, &alpha);
}

void Fft2D::adjoint_forward(View2D<cplx> field) const {
  inverse_scale(field, cplx(static_cast<real>(size()), 0));
}

void Fft2D::adjoint_inverse(View2D<cplx> field) const {
  forward_scale(field, cplx(real(1) / static_cast<real>(size()), 0));
}

namespace {
// In-place roll: new (y, x) reads old ((y - shift_y) mod rows,
// (x - shift_x) mod cols). Built from per-row rotations and whole-row
// reversals, so no temporary buffer is ever allocated.
void roll_inplace(View2D<cplx> field, index_t shift_y, index_t shift_x) {
  const index_t rows = field.rows();
  const index_t cols = field.cols();
  if (rows == 0 || cols == 0) return;
  shift_y %= rows;
  shift_x %= cols;
  if (shift_x != 0) {
    // Rotate each row right by shift_x (std::rotate is swap-based).
    for (index_t y = 0; y < rows; ++y) {
      cplx* row = field.row(y);
      std::rotate(row, row + (cols - shift_x), row + cols);
    }
  }
  if (shift_y != 0) {
    // Rotate the row order down by shift_y with the three-reversal
    // identity; reversing a range of rows is pairwise whole-row swaps.
    const auto reverse_rows = [&field, cols](index_t lo, index_t hi) {
      while (lo < hi - 1) {
        cplx* a = field.row(lo++);
        cplx* b = field.row(--hi);
        std::swap_ranges(a, a + cols, b);
      }
    };
    reverse_rows(0, rows);
    reverse_rows(0, shift_y);
    reverse_rows(shift_y, rows);
  }
}
}  // namespace

void fftshift(View2D<cplx> field) { roll_inplace(field, field.rows() / 2, field.cols() / 2); }

void ifftshift(View2D<cplx> field) {
  roll_inplace(field, (field.rows() + 1) / 2, (field.cols() + 1) / 2);
}

double fft_freq(usize i, usize n) {
  const auto signed_i = static_cast<long long>(i);
  const auto signed_n = static_cast<long long>(n);
  const long long half = (signed_n - 1) / 2;
  const long long k = signed_i <= half ? signed_i : signed_i - signed_n;
  return static_cast<double>(k) / static_cast<double>(signed_n);
}

}  // namespace ptycho::fft
