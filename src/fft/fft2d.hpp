// Two-dimensional planned FFT over View2D<cplx>, plus fftshift helpers.
//
// The multislice operator transforms each probe-sized wavefield twice per
// slice, so Fft2D is the hottest kernel in the library. Both passes run
// over the whole window in one lane-major layout, through one batched
// strided Plan1D call each (one dispatched backend call per radix-4
// stage), so every butterfly inner loop vectorizes across all rows or all
// columns at once:
//
//   column pass: in place on the caller's field, the lanes being its
//                `cols` columns (stride = row_stride, so windows of a
//                larger array work as well);
//   row pass:    the field is transposed (the backend's transpose_scale)
//                into a lane-major scratch, transformed, and
//                transposed back. The scratch's lane stride is `rows`,
//                padded by 4 when `rows` is a multiple of 16: a stride of
//                a large power of two maps a transpose's column walk onto
//                a few L1 sets.
//
// For power-of-two extents the bit-reversal permutation and the inverse's
// 1/n normalization ride in data movement the passes already make:
//
//   forward:  transpose with bitrev(x) -> row butterflies -> transpose
//             back with bitrev(y) -> column butterflies in place;
//   inverse:  column pass in place (bitrev(y) swap, butterflies) ->
//             transpose with bitrev(x), scaled by 1/rows -> row
//             butterflies -> transpose back, scaled by 1/cols (then by
//             inverse_scale's alpha);
//   convolve: forward -> one pass that multiplies by the kernel while
//             swapping rows into bitrev(y) order -> the inverse without
//             its swap.
//
// Each axis with a Bluestein extent keeps its plan's own permutation and
// normalization instead. Every lane runs the exact per-element operation
// sequence of the contiguous Plan1D transform (a folded normalization is
// the same cmul by (1/n, 0)); only data movement differs. The fused entry
// points fold point-wise spectral work into the same call:
//
//   forward_multiply = forward then field *= kernel (after the column
//                      pass, on the field)
//   convolve         = inverse(kernel ⊙ forward(field)), the multiply in
//                      the inverse's bit-reversal swap (two transforms)
//   forward_scale    = forward then field *= alpha (after the column pass)
//   inverse_scale    = inverse then field *= alpha (in the transpose back)
//
// Each fused call is bitwise identical to its composed sequence (the
// folded op runs the same dispatched per-element kernels). The scratch is
// the calling thread's own (a thread_local detail::AlignedScratch, 64-byte
// aligned and grow-only), so a single Fft2D is safe to share across
// concurrently executing workers, takes no lock per transform, and a
// worker never picks up a buffer another core wrote last.
#pragma once

#include "fft/plan.hpp"
#include "tensor/array.hpp"

namespace ptycho::fft {

class Fft2D {
 public:
  /// Plan for `rows x cols` transforms.
  Fft2D(usize rows, usize cols);

  [[nodiscard]] usize rows() const { return rows_; }
  [[nodiscard]] usize cols() const { return cols_; }
  [[nodiscard]] usize size() const { return rows_ * cols_; }

  /// In-place unnormalized forward transform.
  void forward(View2D<cplx> field) const;

  /// In-place inverse with 1/(rows*cols) normalization.
  void inverse(View2D<cplx> field) const;

  /// Fused forward(field); field[i] *= kernel[i] (conj(kernel[i]) when
  /// `conj_kernel`). Bitwise identical to the composed sequence; the
  /// multiply costs no extra pass over the field.
  void forward_multiply(View2D<cplx> field, View2D<const cplx> kernel,
                        bool conj_kernel = false) const;

  /// field <- inverse(kernel ⊙ forward(field)) (conj(kernel) when
  /// `conj_kernel`): a circular convolution, two transforms. Bitwise
  /// identical to forward, then the multiply, then inverse.
  void convolve(View2D<cplx> field, View2D<const cplx> kernel, bool conj_kernel = false) const;

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

  /// The calling thread's scratch for one call: the cols x lane_stride_
  /// lane-major row-pass buffer and, after it, the batched-Bluestein pad
  /// (null when both extents are powers of two). Both start on a
  /// kBufferAlignment boundary.
  struct Scratch {
    cplx* lanes;
    cplx* pad;
  };

  [[nodiscard]] Scratch thread_scratch() const;

  /// forward(field), then the optional multiply and alpha scale on the field.
  void run_forward(View2D<cplx> field, const Scratch& scratch, const MultiplySpec* mul,
                   const cplx* alpha) const;
  /// inverse(field), then the optional alpha scale. `rows_bitrev`: the
  /// field's rows already sit in bitrev(y) order (power-of-two rows only),
  /// so the column pass skips its swap.
  void run_inverse(View2D<cplx> field, const Scratch& scratch, const cplx* alpha,
                   bool rows_bitrev) const;

  usize rows_ = 0;
  usize cols_ = 0;
  usize lane_stride_ = 0;  // row-pass scratch stride (>= rows_, see the header)
  Plan1D row_plan_;  // length cols_ (transforms along x)
  Plan1D col_plan_;  // length rows_ (transforms along y)
  usize pad_offset_ = 0;  // the pad's offset in the scratch: the lanes, line-rounded
  usize pad_size_ = 0;    // batched-Bluestein pad elements (0: both extents pow2)
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
