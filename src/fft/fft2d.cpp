#include "fft/fft2d.hpp"

#include <algorithm>
#include <cstdint>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "common/memory.hpp"
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

/// Row-pass scratch stride: rows padded by 4 when a multiple of 16, so
/// the transposes' strided column walks spread over the L1 sets.
usize padded_lane_stride(usize rows) { return rows % 16 == 0 ? rows + 4 : rows; }

/// `n` elements rounded up to whole cache lines.
usize line_rounded(usize n) {
  constexpr usize kPerLine = kBufferAlignment / sizeof(cplx);
  return (n + kPerLine - 1) / kPerLine * kPerLine;
}

// Every Fft2D's row-pass scratch on this thread: sized by the largest plan
// the thread has run, so alternating plan sizes reuse one allocation.
thread_local detail::AlignedScratch t_scratch;
}  // namespace

Fft2D::Fft2D(usize rows, usize cols)
    : rows_(rows),
      cols_(cols),
      lane_stride_(padded_lane_stride(rows)),
      row_plan_(cols),
      col_plan_(rows),
      pad_offset_(line_rounded(cols * lane_stride_)),
      // The column pass batches all cols_ lanes, the row pass all rows_ lanes.
      pad_size_(std::max(col_plan_.strided_scratch_size(cols_),
                         row_plan_.strided_scratch_size(rows_))) {
  PTYCHO_REQUIRE(rows >= 1 && cols >= 1, "Fft2D extents must be >= 1");
}

Fft2D::Scratch Fft2D::thread_scratch() const {
  cplx* lanes = t_scratch.reserve(pad_offset_ + pad_size_);
  return {lanes, pad_size_ == 0 ? nullptr : lanes + pad_offset_};
}

namespace {
void check_shape(View2D<const cplx> field, usize rows, usize cols, const char* what) {
  PTYCHO_CHECK(field.rows() == static_cast<index_t>(rows) &&
                   field.cols() == static_cast<index_t>(cols),
               what << " shape does not match plan");
}

// field[i] *= kernel[i] (or conj) over a possibly strided window.
void multiply_field(View2D<cplx> field, const cplx* kernel, usize kernel_stride, bool conj) {
  const auto stride = static_cast<usize>(field.row_stride());
  backend::kernels().cmul_rows_tiled(field.data(), stride, field.data(), stride, kernel,
                                     kernel_stride, conj, static_cast<usize>(field.rows()),
                                     static_cast<usize>(field.cols()));
}

// Row y becomes row yrev[y] of field ⊙ kernel: the spectral multiply with
// the inverse column pass's bit-reversal swap folded in, pair by pair
// through the one-row buffer `tmp`. The per-element multiply is
// cmul_rows_tiled's.
void multiply_field_bitrev(View2D<cplx> field, const cplx* kernel, usize kernel_stride,
                           bool conj, const usize* yrev, cplx* tmp) {
  const backend::Kernels& kern = backend::kernels();
  const auto multiply = conj ? kern.cmul_conj_lanes : kern.cmul_lanes;
  const auto rows = static_cast<usize>(field.rows());
  const auto cols = static_cast<usize>(field.cols());
  const auto field_row = [&](usize y) { return field.row(static_cast<index_t>(y)); };
  for (usize y = 0; y < rows; ++y) {
    const usize j = yrev[y];
    if (j < y) continue;
    cplx* a = field_row(y);
    if (j == y) {
      multiply(a, a, kernel + y * kernel_stride, cols);
      continue;
    }
    cplx* b = field_row(j);
    multiply(tmp, a, kernel + y * kernel_stride, cols);
    multiply(a, b, kernel + j * kernel_stride, cols);
    std::copy_n(tmp, cols, b);
  }
}
}  // namespace

// Lane layout of the row pass: element x of row y sits at
// lanes[x*lane_stride_ + y], so signal x-rows are contiguous over all
// `rows` lanes.
void Fft2D::run_forward(View2D<cplx> field, const Scratch& scratch, const MultiplySpec* mul,
                        const cplx* alpha) const {
  const backend::Kernels& kern = backend::kernels();
  cplx* lanes = scratch.lanes;
  cplx* pad = scratch.pad;
  const auto stride = static_cast<usize>(field.row_stride());
  const usize* xrev = row_plan_.bitrev();
  const usize* yrev = col_plan_.bitrev();
  kern.transpose_scale(lanes, lane_stride_, xrev, field.data(), stride, rows_, cols_, nullptr, 0);
  row_plan_.transform_strided(lanes, lane_stride_, rows_, pad, -1, xrev != nullptr);
  kern.transpose_scale(field.data(), stride, yrev, lanes, lane_stride_, cols_, rows_, nullptr, 0);
  col_plan_.transform_strided(field.data(), stride, cols_, pad, -1, yrev != nullptr);
  if (mul != nullptr) multiply_field(field, mul->data, mul->stride, mul->conj);
  if (alpha != nullptr) scale(*alpha, field);
}

void Fft2D::run_inverse(View2D<cplx> field, const Scratch& scratch, const cplx* alpha,
                        bool rows_bitrev) const {
  const backend::Kernels& kern = backend::kernels();
  cplx* lanes = scratch.lanes;
  cplx* pad = scratch.pad;
  const auto stride = static_cast<usize>(field.row_stride());
  const usize* xrev = row_plan_.bitrev();
  // A power-of-two axis runs its butterflies unnormalized; its 1/n rides
  // in the next transpose as the scale the plan would have applied.
  cplx to_lanes[1];
  usize n_to_lanes = 0;
  if (col_plan_.bitrev() != nullptr) {
    col_plan_.inverse_strided_unnormalized(field.data(), stride, cols_, rows_bitrev);
    to_lanes[n_to_lanes++] = cplx(real(1) / static_cast<real>(rows_), 0);
  } else {
    col_plan_.transform_strided(field.data(), stride, cols_, pad, +1, false);
  }
  kern.transpose_scale(lanes, lane_stride_, xrev, field.data(), stride, rows_, cols_, to_lanes,
                       n_to_lanes);
  cplx back[2];
  usize n_back = 0;
  if (xrev != nullptr) {
    row_plan_.inverse_strided_unnormalized(lanes, lane_stride_, rows_, true);
    back[n_back++] = cplx(real(1) / static_cast<real>(cols_), 0);
  } else {
    row_plan_.transform_strided(lanes, lane_stride_, rows_, pad, +1, false);
  }
  if (alpha != nullptr) back[n_back++] = *alpha;
  kern.transpose_scale(field.data(), stride, nullptr, lanes, lane_stride_, cols_, rows_, back,
                       n_back);
}

void Fft2D::forward(View2D<cplx> field) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_forward(field, thread_scratch(), nullptr, nullptr);
}

void Fft2D::inverse(View2D<cplx> field) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_inverse(field, thread_scratch(), nullptr, false);
}

void Fft2D::forward_multiply(View2D<cplx> field, View2D<const cplx> kernel,
                             bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(kernel, rows_, cols_, "kernel");
  note_transform(rows_, cols_);
  const MultiplySpec mul{kernel.data(), static_cast<usize>(kernel.row_stride()), conj_kernel};
  run_forward(field, thread_scratch(), &mul, nullptr);
}

void Fft2D::convolve(View2D<cplx> field, View2D<const cplx> kernel, bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(kernel, rows_, cols_, "kernel");
  note_transform(rows_, cols_);
  note_transform(rows_, cols_);
  const Scratch scratch = thread_scratch();
  const MultiplySpec mul{kernel.data(), static_cast<usize>(kernel.row_stride()), conj_kernel};
  const usize* yrev = col_plan_.bitrev();
  if (yrev == nullptr) {
    run_forward(field, scratch, &mul, nullptr);
    run_inverse(field, scratch, nullptr, false);
    return;
  }
  run_forward(field, scratch, nullptr, nullptr);
  // The row-pass scratch is idle between the passes: its first cols_
  // elements serve as the swap buffer.
  multiply_field_bitrev(field, mul.data, mul.stride, mul.conj, yrev, scratch.lanes);
  run_inverse(field, scratch, nullptr, true);
}

void Fft2D::forward_scale(View2D<cplx> field, cplx alpha) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_forward(field, thread_scratch(), nullptr, &alpha);
}

void Fft2D::inverse_scale(View2D<cplx> field, cplx alpha) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  run_inverse(field, thread_scratch(), &alpha, false);
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
