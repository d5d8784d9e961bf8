// Two-dimensional planned FFT over View2D<cplx>, plus fftshift helpers.
//
// The multislice operator transforms each probe-sized wavefield twice per
// slice, so Fft2D is the hottest kernel in the library. Both passes run
// over the whole window in one lane-major layout, through one batched
// strided Plan1D call each, so every butterfly inner loop vectorizes
// across all rows or all columns at once:
//
//   column pass: in place on the caller's field, the lanes being its
//                `cols` columns (stride = row_stride, so windows of a
//                larger array work as well);
//   row pass:    the field is transposed once into a pooled rows x cols
//                lane-major scratch, transformed, and transposed back.
//
// For power-of-two extents the bit-reversal permutation is folded into
// those transposes instead of running as a separate swap pass:
//
//   forward: transpose with bitrev(x) -> row butterflies -> transpose
//            back with bitrev(y) -> column butterflies in place;
//   inverse: column pass in place (with its usual swap) -> transpose with
//            bitrev(x) -> row butterflies -> plain transpose back.
//
// Bluestein extents use the same layout without the fold. Every lane runs
// the exact per-element operation sequence of the contiguous Plan1D
// transform; only data movement differs. The fused entry points fold
// point-wise spectral work into the same call:
//
//   forward_multiply  = forward  then field *= kernel   (after the column
//                       pass, on the field)
//   multiply_inverse  = field *= kernel then inverse    (before the column
//                       pass, on the field)
//   forward_scale     = forward then field *= alpha (after the column pass)
//   inverse_scale     = inverse then field *= alpha (on the row scratch,
//                       before the transpose back)
//
// Each fused call is bitwise identical to its composed two-step sequence
// (the folded op runs the same dispatched per-element kernels). Scratch
// lives in a small plan-owned pool (acquired once per call), so a single
// Fft2D is safe to share across concurrently executing workers.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "fft/plan.hpp"
#include "tensor/array.hpp"

namespace ptycho::fft {

class Fft2D {
 public:
  /// Plan for `rows x cols` transforms.
  Fft2D(usize rows, usize cols);

  [[nodiscard]] usize rows() const { return row_plan_.size() == 0 ? 0 : rows_; }
  [[nodiscard]] usize cols() const { return cols_; }
  [[nodiscard]] usize size() const { return rows_ * cols_; }

  /// In-place unnormalized forward transform.
  void forward(View2D<cplx> field) const;

  /// In-place inverse with 1/(rows*cols) normalization.
  void inverse(View2D<cplx> field) const;

  /// Adjoint of `forward` = size() * inverse (see plan.hpp conventions).
  void adjoint_forward(View2D<cplx> field) const;

  /// Adjoint of `inverse` = (1/size()) * forward.
  void adjoint_inverse(View2D<cplx> field) const;

  /// Fused forward(field); field[i] *= kernel[i] (conj(kernel[i]) when
  /// `conj_kernel`). Bitwise identical to the composed sequence; the
  /// multiply costs no extra pass over the field.
  void forward_multiply(View2D<cplx> field, View2D<const cplx> kernel,
                        bool conj_kernel = false) const;

  /// Fused field[i] *= kernel[i] (in the spectrum); inverse(field).
  /// Bitwise identical to the composed sequence.
  void multiply_inverse(View2D<const cplx> kernel, View2D<cplx> field,
                        bool conj_kernel = false) const;

  /// Fused forward(field); field *= alpha.
  void forward_scale(View2D<cplx> field, cplx alpha) const;

  /// Fused inverse(field); field *= alpha.
  void inverse_scale(View2D<cplx> field, cplx alpha) const;

 private:
  /// Point-wise kernel multiply folded into a transform: `data`/`stride`
  /// address the kernel's row-major storage.
  struct MultiplySpec {
    const cplx* data;
    usize stride;
    bool conj;
  };

  /// Pooled per-call scratch: the rows x cols lane-major row-pass buffer
  /// and the batched-Bluestein pad (empty when both extents are powers of
  /// two).
  struct Scratch {
    std::vector<cplx> lanes;
    std::vector<cplx> bluestein;
  };

  /// RAII lease of a pooled scratch buffer; returns it on destruction.
  class ScratchLease {
   public:
    ScratchLease(const Fft2D& plan, std::unique_ptr<Scratch> scratch)
        : plan_(plan), scratch_(std::move(scratch)) {}
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    [[nodiscard]] Scratch& get() const { return *scratch_; }

   private:
    const Fft2D& plan_;
    std::unique_ptr<Scratch> scratch_;
  };

  [[nodiscard]] ScratchLease acquire_scratch() const;

  /// forward(field), then the optional multiply and alpha scale on the field.
  void run_forward(View2D<cplx> field, const MultiplySpec* mul, const cplx* alpha) const;
  /// The optional multiply on the field, then inverse(field), then the
  /// optional alpha scale.
  void run_inverse(View2D<cplx> field, const MultiplySpec* mul, const cplx* alpha) const;

  usize rows_ = 0;
  usize cols_ = 0;
  Plan1D row_plan_;  // length cols_ (transforms along x)
  Plan1D col_plan_;  // length rows_ (transforms along y)

  // Pool of scratch buffers. Concurrent transforms each lease one
  // (allocating on first use), so sharing one plan across workers is
  // race-free and steady-state transforms allocate nothing.
  mutable std::mutex scratch_mutex_;
  mutable std::vector<std::unique_ptr<Scratch>> scratch_pool_;
};

/// Swap quadrants so the zero frequency moves to the array center.
/// In-place and allocation-free (element swaps/rotations only).
void fftshift(View2D<cplx> field);

/// Inverse of fftshift (differs from it for odd extents).
void ifftshift(View2D<cplx> field);

/// Frequency coordinate of index i in an n-point DFT, in cycles/sample
/// units of 1/n (i.e. the standard fftfreq ordering: 0, 1, ..., -1 scaled).
[[nodiscard]] double fft_freq(usize i, usize n);

}  // namespace ptycho::fft
