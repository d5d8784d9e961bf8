// Planned complex-to-complex FFTs (the cuFFT substitute).
//
// Conventions (used consistently by the physics layer and its adjoints):
//   forward:  X[k] = sum_j x[j] exp(-2πi jk / n)      (unnormalized)
//   inverse:  x[j] = (1/n) sum_k X[k] exp(+2πi jk/n)
// so inverse(forward(x)) == x, and the adjoint of `forward` is
// n * inverse (used by the gradient engine — see core/gradient_engine.cpp).
//
// Power-of-two sizes run the iterative Cooley–Tukey kernel in fused
// radix-4 stage pairs (fft/radix4.cpp); any other size runs Bluestein's
// chirp-z algorithm on a padded power-of-two transform through the same
// kernel. Plans are immutable after construction and safe to share across
// rank threads (scratch is per-thread).
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"

namespace ptycho::fft {

[[nodiscard]] constexpr bool is_pow2(usize n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
[[nodiscard]] usize next_pow2(usize n);

/// One-dimensional plan for a fixed size n >= 1.
class Plan1D {
 public:
  explicit Plan1D(usize n);
  ~Plan1D();
  Plan1D(Plan1D&&) noexcept;
  Plan1D& operator=(Plan1D&&) noexcept;
  Plan1D(const Plan1D&) = delete;
  Plan1D& operator=(const Plan1D&) = delete;

  [[nodiscard]] usize size() const { return n_; }

  /// In-place transform of `n` contiguous elements.
  void forward(cplx* data) const;
  void inverse(cplx* data) const;

  /// Scratch elements a caller must provide to the strided entry points for
  /// a batch of `count` interleaved signals (0 for power-of-two sizes; the
  /// Bluestein path needs a padded m x count tile).
  [[nodiscard]] usize strided_scratch_size(usize count) const;

  /// Batched strided transform of `count` interleaved signals: element j of
  /// signal b sits at data[j*stride + b] (stride >= count). The butterflies
  /// run across the contiguous lane dimension, so a batch in this layout
  /// (Fft2D passes whole windows) vectorizes where one signal cannot.
  /// `scratch` must hold strided_scratch_size(count) elements (may be null
  /// when that is 0). Each lane runs the same operation sequence as the
  /// contiguous single-signal transform.
  void forward_strided(cplx* data, usize stride, usize count, cplx* scratch) const;
  void inverse_strided(cplx* data, usize stride, usize count, cplx* scratch) const;

 private:
  struct Pow2Tables;
  struct BluesteinTables;

  // Fft2D folds the bit-reversal permutation of its power-of-two passes
  // into the transposes it already makes, so it needs the permutation and
  // a strided entry that skips the in-place swap pass.
  friend class Fft2D;

  /// Bit-reversal table of a power-of-two plan; nullptr for Bluestein sizes.
  [[nodiscard]] const usize* bitrev() const;

  /// forward_strided (sign -1) / inverse_strided (sign +1). With
  /// `input_bitrev` the signal rows already sit in bit-reversed order
  /// (power-of-two plans only), so the permutation pass is skipped; every
  /// other operation is unchanged.
  void transform_strided(cplx* data, usize stride, usize count, cplx* scratch, int sign,
                         bool input_bitrev) const;

  usize n_ = 0;
  std::unique_ptr<Pow2Tables> pow2_;            // set when n is a power of two
  std::unique_ptr<BluesteinTables> bluestein_;  // set otherwise
};

namespace detail {
/// Bit-reversal permutation for size n (pow2).
[[nodiscard]] std::vector<usize> make_bitrev(usize n);

/// Radix-4 stage schedule for a pow2 size: the radix-2 DIT stages over
/// bit-reversal-ordered data, fused in consecutive pairs. For odd log2(n)
/// a single radix-2 stage at half-length 1 (twiddle 1, multiply-free) runs
/// first, then every remaining stage pair is one radix-4 butterfly sweep:
/// half the passes over the data of a radix-2 sweep and three complex
/// multiplies per four outputs instead of four.
struct Radix4Tables {
  /// Quarter-length h and offset of this fused stage's twiddles in `tw`
  /// (layout per stage: w1[0..h) | w2[0..h) | w3[0..h), where
  /// w1 = exp(-2πi k/2h), w2 = exp(-2πi k/4h), w3 = exp(-2πi 3k/4h)).
  struct Stage {
    usize h;
    usize offset;
  };
  bool leading_radix2 = false;  // log2(n) odd: one plain radix-2 stage first
  std::vector<Stage> stages;
  std::vector<cplx> tw;
};

/// Build the radix-4 schedule + twiddles for pow2 size n (n >= 1).
[[nodiscard]] Radix4Tables make_radix4_tables(usize n);

/// In-place DIT FFT on pow2-sized data: bit-reversal permutation, then
/// the radix-4 stage sweeps. `sign` is -1 for forward, +1 for inverse (no
/// normalization applied here).
void radix4_transform(cplx* data, usize n, int sign, const std::vector<usize>& bitrev,
                      const Radix4Tables& r4);

/// Batched variant of radix4_transform: `count` interleaved signals with
/// element j of signal b at data[j*stride + b]. Butterflies loop over the
/// contiguous lane dimension (unit stride), so the hot inner loop
/// vectorizes across the batch. `input_bitrev` skips the permutation pass
/// for input whose rows the caller already placed in bit-reversed order.
void radix4_transform_strided(cplx* data, usize n, usize stride, usize count, int sign,
                              const std::vector<usize>& bitrev, const Radix4Tables& r4,
                              bool input_bitrev);
}  // namespace detail

}  // namespace ptycho::fft
