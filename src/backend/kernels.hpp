// Runtime-dispatched SIMD kernel backend.
//
// Every hot complex inner loop in the library (FFT butterflies and the
// 2-D FFT's transposes, Bluestein chirp products, Hadamard/axpy tensor
// ops, propagator and multislice backprop kernels) calls through the
// `Kernels` table returned by `kernels()`. The table is chosen lazily at
// first use by CPU detection: AVX2 on x86-64, NEON on AArch64, falling
// back to the portable scalar table; the precision tier (set_precision,
// CLI `--precision`) then picks its strict or FMA column. There is no
// backend flag: `select("scalar"|"simd"|"auto")` is a test seam that pits
// the scalar table against the vector one.
//
// Bitwise contract: for every primitive, the SIMD implementation performs
// exactly the same IEEE-754 operations per element as the scalar one —
// same association, no fusing on either path (the strict-tier backend
// translation units compile with -ffp-contract=off) — so switching
// backends never changes a single output bit. Tests enforce this
// (tests/test_backend.cpp) and it is what preserves the any-thread-count
// determinism guarantee of the batched sweep. Each ISA's loops are written
// once (scalar_impl.hpp, vector_impl.hpp), as templates over how a complex
// multiply rounds; the strict and fast tables differ only in that policy.
//
// Selection is not synchronized with running kernels: call `select` and
// `set_precision` only while no worker thread runs a kernel.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace ptycho::backend {

/// Function table of batched complex primitives. All pointers are over
/// contiguous, arbitrarily aligned arrays of `n` elements; `dst` may alias
/// the first source operand unless noted. Implementations must be bitwise
/// deterministic and lane-independent (element i depends only on inputs i).
struct Kernels {
  /// Short stable name for logs / JSON ("scalar", "avx2", "neon").
  const char* name;

  /// dst[i] = cmul(a[i], b[i]); dst may alias a.
  void (*cmul_lanes)(cplx* dst, const cplx* a, const cplx* b, usize n);

  /// dst[i] = cmul_conj(a[i], b[i]) = a[i] * conj(b[i]); dst may alias a.
  void (*cmul_conj_lanes)(cplx* dst, const cplx* a, const cplx* b, usize n);

  /// dst[i] += cmul_conj(a[i], b[i]).
  void (*cmul_conj_acc_lanes)(cplx* dst, const cplx* a, const cplx* b, usize n);

  /// dst[i] = cmul(src[i], alpha); dst may alias src.
  void (*scale_lanes)(cplx* dst, const cplx* src, cplx alpha, usize n);

  /// dst[i] += cmul(alpha, src[i]).
  void (*axpy_lanes)(cplx* dst, const cplx* src, cplx alpha, usize n);

  /// dst[i] = conj(src[i]) * s; dst may alias src (Bluestein inverse trick).
  void (*conj_scale_lanes)(cplx* dst, const cplx* src, real s, usize n);

  /// Radix-4 butterfly block with per-lane twiddles: the fusion of two
  /// consecutive radix-2 stages (quarter-lengths h and 2h) over one
  /// bit-reversal-ordered block. With w_j = conj_tw ? conj(tw_j[i]) : tw_j[i]:
  ///   u1 = cmul(w1, x1[i]); u2 = cmul(w2, x2[i]); u3 = cmul(w3, x3[i])
  ///   s0 = x0[i] + u1; s1 = x0[i] - u1; s2 = u2 + u3; s3 = u2 - u3
  ///   r  = (conj_tw ? +i : -i) * s3   (exact re/im swap + sign flip)
  ///   x0[i] = s0 + s2; x2[i] = s0 - s2; x1[i] = s1 + r; x3[i] = s1 - r
  /// The four operand arrays must be pairwise non-overlapping.
  void (*butterfly4_block)(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1,
                           const cplx* tw2, const cplx* tw3, bool conj_tw, usize n);

  /// One whole radix-4 stage of the lane-major batched FFT
  /// (fft/radix4.cpp): `count` interleaved signals of length `n`, element
  /// j of signal b at data[j*stride + b]. `tw` holds the stage's twiddles
  /// as w1[0..h) | w2[0..h) | w3[0..h). For every base in [0, n) step 4h
  /// and k < h, the twiddles w_q = tw[(q-1)*h + k] (conjugated when
  /// `conj_tw`) are shared by all lanes of the four rows
  /// x_q = data + (base + k + q*h)*stride, and each lane runs
  /// butterfly4_block's sequence with cmul(w_q, x_q[i]). One call per
  /// stage, so no dispatch sits inside the (base, k) loops.
  void (*butterfly4_stage)(cplx* data, usize n, usize stride, usize count, usize h,
                           const cplx* tw, bool conj_tw);

  /// Blocked transpose with an optional destination row permutation and
  /// up to two scales (the 2-D FFT's lane-layout moves): for r < rows,
  /// c < cols,
  ///   dst[p(c)*dst_stride + r] = S(src[r*src_stride + c]),
  /// p(c) = perm ? perm[c] : c, where S multiplies by scales[0], then by
  /// scales[1] (the first `n_scales` <= 2 of them), each with the
  /// per-element operation of this table's scale_lanes. src and dst must
  /// not overlap.
  void (*transpose_scale)(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                          usize src_stride, usize rows, usize cols, const cplx* scales,
                          usize n_scales);

  /// Row-tiled Hadamard product between two strided 2-D tiles (the fused
  /// spectral multiply of the 2-D FFT): for r < rows, c < cols
  ///   dst[r*dst_stride + c] = conj_b ? cmul_conj(a[...], b[...])
  ///                                  : cmul(a[r*a_stride + c], b[r*b_stride + c]).
  /// dst may alias a (same pointer and stride); b must not overlap dst.
  void (*cmul_rows_tiled)(cplx* dst, usize dst_stride, const cplx* a, usize a_stride,
                          const cplx* b, usize b_stride, bool conj_b, usize rows, usize cols);

  /// Bluestein chirp product: dst[i] = cmul(src[i] * s, chirp[i]).
  void (*chirp_mul_lanes)(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n);

  /// Batched-Bluestein chirp product, one chirp value shared across lanes:
  /// dst[i] = cmul(src[i] * s, alpha). dst may alias src.
  void (*scale_chirp_lanes)(cplx* dst, const cplx* src, real s, cplx alpha, usize n);

  /// Fused multislice potential-model backprop step (one row):
  ///   gt        = cmul_conj(g[i], psi_in[i])
  ///   ist       = (-sigma * trans[i].imag(), sigma * trans[i].real())
  ///   grad_out[i] += cmul_conj(gt, ist)
  ///   g[i]      = cmul_conj(g[i], trans[i])
  void (*potential_backprop_lanes)(cplx* grad_out, cplx* g, const cplx* psi_in,
                                   const cplx* trans, real sigma, usize n);
};

/// Numerics tier. kStrict is the bitwise-deterministic contract documented
/// above (no fusing, -ffp-contract=off TUs). kFast swaps in FMA variants of
/// the same primitives — fused multiply-adds change the rounding of each
/// element (fewer roundings, not more error), so fast-tier output is
/// tolerance-gated against strict, never memcmp'd (tests/test_precision.cpp).
enum class Precision { kStrict, kFast };

/// The active table (lazily initialized as documented above).
[[nodiscard]] const Kernels& kernels();

/// The portable scalar table (always available; the reference semantics).
[[nodiscard]] const Kernels& scalar_kernels();

/// The SIMD table compiled into this binary, or nullptr when the build has
/// no vector backend for this architecture. Availability of the *pointer*
/// does not imply the CPU can run it — see simd_available().
[[nodiscard]] const Kernels* simd_kernels();

/// The scalar FMA table ("scalar-fma"): every complex multiply spelled
/// with explicit std::fma in the exact sequence the vector FMA tables use,
/// so the three fast tables are bitwise identical to EACH OTHER (a new,
/// fast-tier-internal contract — not to the strict tables). Always
/// available.
[[nodiscard]] const Kernels& scalar_fma_kernels();

/// The vector FMA table ("avx2-fma" / "neon-fma"), or nullptr when the
/// build has none for this architecture. See fma_available().
[[nodiscard]] const Kernels* fma_kernels();

/// True when a SIMD table is compiled in AND the running CPU supports it.
[[nodiscard]] bool simd_available();

/// True when a vector FMA table is compiled in AND the CPU supports it
/// (x86-64: AVX2+FMA; AArch64: architecturally guaranteed).
[[nodiscard]] bool fma_available();

/// Force a backend: "scalar", "simd" or "auto" (empty string == "auto").
/// Returns false (and leaves the active table unchanged) for an unknown
/// name or for "simd" when simd_available() is false. The active precision
/// tier is preserved across select() calls. Tests only: production code
/// always runs the CPU-detected ("auto") choice.
bool select(std::string_view name);

/// Set the numerics tier. kFast resolves the active table to the FMA
/// column of the current backend choice; when the CPU has no vector FMA,
/// a "simd" choice keeps the strict vector table (fast degrades to
/// strict rather than to scalar). Always succeeds.
void set_precision(Precision p);

/// The active numerics tier.
[[nodiscard]] Precision active_precision();

/// Name of the active table ("scalar", "avx2", "neon", "scalar-fma",
/// "avx2-fma", "neon-fma").
[[nodiscard]] const char* active_name();

}  // namespace ptycho::backend
