// The vector bodies of the backend primitives: VectorKernels<P>, once for
// AVX2 (x86-64) and once for NEON (AArch64), each a template over the
// multiply policy of scalar_impl.hpp. A vector policy supplies the same
// three multiplies on registers of interleaved complex lanes
// [re0, im0, re1, im1, ...]:
//
//   P::cmul(a, b), P::cmul_conj(a, b)   per-lane operands
//   P::cmul_bcast(wr, wi, x)            w * x with w.re / w.im broadcast
//   P::Scalar                           the scalar policy of the same
//                                       rounding, run on remainder lanes
//
// Everything else a body does is exact: loads, stores, shuffles, sign
// flips (x - (-y) == x + y), and the adds, subtracts and real multiplies
// its scalar twin performs in the same order, so a vector table is
// bitwise identical to the scalar table of its policy. The strict policy
// is instantiated in kernels_simd.cpp, the fused one in kernels_fma.cpp.
// The ODR rule of scalar_impl.hpp applies: everything here sits in an
// unnamed namespace. Internal to src/backend/ — include nowhere else.
#pragma once

#include "backend/scalar_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ptycho::backend {
namespace {

// 4 complex floats per __m256, interleaved [re0, im0, re1, im1, ...].
inline __m256 load8(const cplx* p) { return _mm256_loadu_ps(reinterpret_cast<const float*>(p)); }
inline void store8(cplx* p, __m256 v) { _mm256_storeu_ps(reinterpret_cast<float*>(p), v); }

/// Sign bit on every float: negates all lanes under xor.
inline __m256 sign_all() { return _mm256_set1_ps(-0.0f); }
/// Sign bit on imaginary (odd) lanes only: complex conjugate under xor.
inline __m256 sign_imag() {
  return _mm256_castsi256_ps(_mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL)));
}
/// Sign bit on real (even) lanes only.
inline __m256 sign_real() {
  return _mm256_castsi256_ps(_mm256_set1_epi64x(0x0000000080000000LL));
}

template <class P>
struct VectorKernels {
  using S = ScalarKernels<typename P::Scalar>;
  static constexpr usize kW = 4;

  static void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    usize i = 0;
    for (; i + kW <= n; i += kW) store8(dst + i, P::cmul(load8(a + i), load8(b + i)));
    S::cmul_lanes(dst + i, a + i, b + i, n - i);
  }

  static void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    usize i = 0;
    for (; i + kW <= n; i += kW) store8(dst + i, P::cmul_conj(load8(a + i), load8(b + i)));
    S::cmul_conj_lanes(dst + i, a + i, b + i, n - i);
  }

  static void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 t = P::cmul_conj(load8(a + i), load8(b + i));
      store8(dst + i, _mm256_add_ps(load8(dst + i), t));
    }
    S::cmul_conj_acc_lanes(dst + i, a + i, b + i, n - i);
  }

  static void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
    const __m256 wr = _mm256_set1_ps(alpha.real());
    const __m256 wi = _mm256_set1_ps(alpha.imag());
    usize i = 0;
    for (; i + kW <= n; i += kW) store8(dst + i, P::cmul_bcast(wr, wi, load8(src + i)));
    S::scale_lanes(dst + i, src + i, alpha, n - i);
  }

  static void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
    const __m256 wr = _mm256_set1_ps(alpha.real());
    const __m256 wi = _mm256_set1_ps(alpha.imag());
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 t = P::cmul_bcast(wr, wi, load8(src + i));
      store8(dst + i, _mm256_add_ps(load8(dst + i), t));
    }
    S::axpy_lanes(dst + i, src + i, alpha, n - i);
  }

  static void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
    const __m256 vs = _mm256_set1_ps(s);
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 c = _mm256_xor_ps(load8(src + i), sign_imag());
      store8(dst + i, _mm256_mul_ps(c, vs));
    }
    S::conj_scale_lanes(dst + i, src + i, s, n - i);
  }

  static void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1,
                               const cplx* tw2, const cplx* tw3, bool conj_tw, usize n) {
    const __m256 conj_mask = conj_tw ? sign_imag() : _mm256_setzero_ps();
    // -i*s = (s.im, -s.re): swap then negate odd lanes; +i*s: negate even lanes.
    const __m256 rot_mask = conj_tw ? sign_real() : sign_imag();
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 w1 = _mm256_xor_ps(load8(tw1 + i), conj_mask);
      const __m256 w2 = _mm256_xor_ps(load8(tw2 + i), conj_mask);
      const __m256 w3 = _mm256_xor_ps(load8(tw3 + i), conj_mask);
      const __m256 u1 = P::cmul(w1, load8(x1 + i));
      const __m256 u2 = P::cmul(w2, load8(x2 + i));
      const __m256 u3 = P::cmul(w3, load8(x3 + i));
      const __m256 z = load8(x0 + i);
      const __m256 s0 = _mm256_add_ps(z, u1);
      const __m256 s1 = _mm256_sub_ps(z, u1);
      const __m256 s2 = _mm256_add_ps(u2, u3);
      const __m256 s3 = _mm256_sub_ps(u2, u3);
      const __m256 r = _mm256_xor_ps(_mm256_permute_ps(s3, 0xB1), rot_mask);
      store8(x0 + i, _mm256_add_ps(s0, s2));
      store8(x2 + i, _mm256_sub_ps(s0, s2));
      store8(x1 + i, _mm256_add_ps(s1, r));
      store8(x3 + i, _mm256_sub_ps(s1, r));
    }
    S::butterfly4_block(x0 + i, x1 + i, x2 + i, x3 + i, tw1 + i, tw2 + i, tw3 + i, conj_tw,
                        n - i);
  }

  /// One shared-twiddle butterfly over four lane rows (the body of a stage).
  static void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2,
                               cplx w3, bool conj_rot, usize n) {
    const __m256 w1r = _mm256_set1_ps(w1.real());
    const __m256 w1i = _mm256_set1_ps(w1.imag());
    const __m256 w2r = _mm256_set1_ps(w2.real());
    const __m256 w2i = _mm256_set1_ps(w2.imag());
    const __m256 w3r = _mm256_set1_ps(w3.real());
    const __m256 w3i = _mm256_set1_ps(w3.imag());
    const __m256 rot_mask = conj_rot ? sign_real() : sign_imag();
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 u1 = P::cmul_bcast(w1r, w1i, load8(x1 + i));
      const __m256 u2 = P::cmul_bcast(w2r, w2i, load8(x2 + i));
      const __m256 u3 = P::cmul_bcast(w3r, w3i, load8(x3 + i));
      const __m256 z = load8(x0 + i);
      const __m256 s0 = _mm256_add_ps(z, u1);
      const __m256 s1 = _mm256_sub_ps(z, u1);
      const __m256 s2 = _mm256_add_ps(u2, u3);
      const __m256 s3 = _mm256_sub_ps(u2, u3);
      const __m256 r = _mm256_xor_ps(_mm256_permute_ps(s3, 0xB1), rot_mask);
      store8(x0 + i, _mm256_add_ps(s0, s2));
      store8(x2 + i, _mm256_sub_ps(s0, s2));
      store8(x1 + i, _mm256_add_ps(s1, r));
      store8(x3 + i, _mm256_sub_ps(s1, r));
    }
    S::butterfly4_lanes(x0 + i, x1 + i, x2 + i, x3 + i, w1, w2, w3, conj_rot, n - i);
  }

  /// 4x4 complex blocks: each complex is one 64-bit lane, so the block is
  /// a 4x4 double transpose (unpack within 128-bit halves, then swap
  /// halves). Shuffles move bits only; each scale is scale_lanes's
  /// P::cmul_bcast.
  template <usize kScales>
  static void transpose_blocks(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                               usize src_stride, usize rows, usize cols, const cplx* scales) {
    __m256 sr[kScales > 0 ? kScales : 1];
    __m256 si[kScales > 0 ? kScales : 1];
    for (usize s = 0; s < kScales; ++s) {
      sr[s] = _mm256_set1_ps(scales[s].real());
      si[s] = _mm256_set1_ps(scales[s].imag());
    }
    const usize rows4 = rows & ~usize{3};
    const usize cols4 = cols & ~usize{3};
    for (usize r = 0; r < rows4; r += 4) {
      const cplx* s0 = src + r * src_stride;
      for (usize c = 0; c < cols4; c += 4) {
        const __m256d a0 = _mm256_castps_pd(load8(s0 + c));
        const __m256d a1 = _mm256_castps_pd(load8(s0 + src_stride + c));
        const __m256d a2 = _mm256_castps_pd(load8(s0 + 2 * src_stride + c));
        const __m256d a3 = _mm256_castps_pd(load8(s0 + 3 * src_stride + c));
        const __m256d t0 = _mm256_unpacklo_pd(a0, a1);  // [a0.0 a1.0 a0.2 a1.2]
        const __m256d t1 = _mm256_unpackhi_pd(a0, a1);  // [a0.1 a1.1 a0.3 a1.3]
        const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
        const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
        __m256 o[4] = {_mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x20)),
                       _mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x20)),
                       _mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x31)),
                       _mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x31))};
        for (usize j = 0; j < 4; ++j) {
          for (usize s = 0; s < kScales; ++s) o[j] = P::cmul_bcast(sr[s], si[s], o[j]);
          store8(dst + (perm != nullptr ? perm[c + j] : c + j) * dst_stride + r, o[j]);
        }
      }
      S::transpose_scale_edge(dst, dst_stride, perm, src, src_stride, r, r + 4, cols4, cols,
                              scales, kScales);
    }
    S::transpose_scale_edge(dst, dst_stride, perm, src, src_stride, rows4, rows, 0, cols, scales,
                            kScales);
  }

  static void transpose_scale(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                              usize src_stride, usize rows, usize cols, const cplx* scales,
                              usize n_scales) {
    switch (n_scales) {
      case 0:
        return transpose_blocks<0>(dst, dst_stride, perm, src, src_stride, rows, cols, scales);
      case 1:
        return transpose_blocks<1>(dst, dst_stride, perm, src, src_stride, rows, cols, scales);
      default:
        return transpose_blocks<2>(dst, dst_stride, perm, src, src_stride, rows, cols, scales);
    }
  }

  static void cmul_rows_tiled(cplx* dst, usize dst_stride, const cplx* a, usize a_stride,
                              const cplx* b, usize b_stride, bool conj_b, usize rows,
                              usize cols) {
    for (usize r = 0; r < rows; ++r) {
      cplx* d = dst + r * dst_stride;
      const cplx* ar = a + r * a_stride;
      const cplx* br = b + r * b_stride;
      usize i = 0;
      if (conj_b) {
        for (; i + kW <= cols; i += kW) {
          store8(d + i, P::cmul_conj(load8(ar + i), load8(br + i)));
        }
        S::cmul_conj_lanes(d + i, ar + i, br + i, cols - i);
      } else {
        for (; i + kW <= cols; i += kW) store8(d + i, P::cmul(load8(ar + i), load8(br + i)));
        S::cmul_lanes(d + i, ar + i, br + i, cols - i);
      }
    }
  }

  static void chirp_mul_lanes(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n) {
    const __m256 vs = _mm256_set1_ps(s);
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 scaled = _mm256_mul_ps(load8(src + i), vs);
      store8(dst + i, P::cmul(scaled, load8(chirp + i)));
    }
    S::chirp_mul_lanes(dst + i, src + i, chirp + i, s, n - i);
  }

  static void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
    const __m256 vs = _mm256_set1_ps(s);
    const __m256 wr = _mm256_set1_ps(alpha.real());
    const __m256 wi = _mm256_set1_ps(alpha.imag());
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      store8(dst + i, P::cmul_bcast(wr, wi, _mm256_mul_ps(load8(src + i), vs)));
    }
    S::scale_chirp_lanes(dst + i, src + i, s, alpha, n - i);
  }

  static void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in,
                                       const cplx* trans, real sigma, usize n) {
    // ist = i*sigma*t = (-sigma*t.im, sigma*t.re): swap re/im of t, then
    // multiply by [-sigma, +sigma, ...] (sign flip + multiply are exact).
    const __m256 msig = _mm256_xor_ps(_mm256_set1_ps(sigma), sign_real());
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const __m256 gv = load8(g + i);
      const __m256 tv = load8(trans + i);
      const __m256 gt = P::cmul_conj(gv, load8(psi_in + i));
      const __m256 ist = _mm256_mul_ps(_mm256_permute_ps(tv, 0xB1), msig);
      store8(grad_out + i, _mm256_add_ps(load8(grad_out + i), P::cmul_conj(gt, ist)));
      store8(g + i, P::cmul_conj(gv, tv));
    }
    S::potential_backprop_lanes(grad_out + i, g + i, psi_in + i, trans + i, sigma, n - i);
  }
};

}  // namespace
}  // namespace ptycho::backend

#elif defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace ptycho::backend {
namespace {

// 2 complex floats per float32x4_t, interleaved [re0, im0, re1, im1].
inline float32x4_t load4(const cplx* p) { return vld1q_f32(reinterpret_cast<const float*>(p)); }
inline void store4(cplx* p, float32x4_t v) { vst1q_f32(reinterpret_cast<float*>(p), v); }

inline float32x4_t flip_signs(float32x4_t v, uint32x4_t mask) {
  return vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(v), mask));
}
inline uint32x4_t sign_all() { return vdupq_n_u32(0x80000000u); }
inline uint32x4_t sign_imag() {
  const uint32x4_t m = {0u, 0x80000000u, 0u, 0x80000000u};
  return m;
}
inline uint32x4_t sign_real() {
  const uint32x4_t m = {0x80000000u, 0u, 0x80000000u, 0u};
  return m;
}

template <class P>
struct VectorKernels {
  using S = ScalarKernels<typename P::Scalar>;
  static constexpr usize kW = 2;

  static void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    usize i = 0;
    for (; i + kW <= n; i += kW) store4(dst + i, P::cmul(load4(a + i), load4(b + i)));
    S::cmul_lanes(dst + i, a + i, b + i, n - i);
  }

  static void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    usize i = 0;
    for (; i + kW <= n; i += kW) store4(dst + i, P::cmul_conj(load4(a + i), load4(b + i)));
    S::cmul_conj_lanes(dst + i, a + i, b + i, n - i);
  }

  static void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const float32x4_t t = P::cmul_conj(load4(a + i), load4(b + i));
      store4(dst + i, vaddq_f32(load4(dst + i), t));
    }
    S::cmul_conj_acc_lanes(dst + i, a + i, b + i, n - i);
  }

  static void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
    const float32x4_t wr = vdupq_n_f32(alpha.real());
    const float32x4_t wi = vdupq_n_f32(alpha.imag());
    usize i = 0;
    for (; i + kW <= n; i += kW) store4(dst + i, P::cmul_bcast(wr, wi, load4(src + i)));
    S::scale_lanes(dst + i, src + i, alpha, n - i);
  }

  static void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
    const float32x4_t wr = vdupq_n_f32(alpha.real());
    const float32x4_t wi = vdupq_n_f32(alpha.imag());
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const float32x4_t t = P::cmul_bcast(wr, wi, load4(src + i));
      store4(dst + i, vaddq_f32(load4(dst + i), t));
    }
    S::axpy_lanes(dst + i, src + i, alpha, n - i);
  }

  static void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
    const float32x4_t vs = vdupq_n_f32(s);
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      store4(dst + i, vmulq_f32(flip_signs(load4(src + i), sign_imag()), vs));
    }
    S::conj_scale_lanes(dst + i, src + i, s, n - i);
  }

  static void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1,
                               const cplx* tw2, const cplx* tw3, bool conj_tw, usize n) {
    const uint32x4_t conj_mask = conj_tw ? sign_imag() : vdupq_n_u32(0u);
    // -i*s = (s.im, -s.re): swap then negate odd lanes; +i*s: negate even lanes.
    const uint32x4_t rot_mask = conj_tw ? sign_real() : sign_imag();
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const float32x4_t w1 = flip_signs(load4(tw1 + i), conj_mask);
      const float32x4_t w2 = flip_signs(load4(tw2 + i), conj_mask);
      const float32x4_t w3 = flip_signs(load4(tw3 + i), conj_mask);
      const float32x4_t u1 = P::cmul(w1, load4(x1 + i));
      const float32x4_t u2 = P::cmul(w2, load4(x2 + i));
      const float32x4_t u3 = P::cmul(w3, load4(x3 + i));
      const float32x4_t z = load4(x0 + i);
      const float32x4_t s0 = vaddq_f32(z, u1);
      const float32x4_t s1 = vsubq_f32(z, u1);
      const float32x4_t s2 = vaddq_f32(u2, u3);
      const float32x4_t s3 = vsubq_f32(u2, u3);
      const float32x4_t r = flip_signs(vrev64q_f32(s3), rot_mask);
      store4(x0 + i, vaddq_f32(s0, s2));
      store4(x2 + i, vsubq_f32(s0, s2));
      store4(x1 + i, vaddq_f32(s1, r));
      store4(x3 + i, vsubq_f32(s1, r));
    }
    S::butterfly4_block(x0 + i, x1 + i, x2 + i, x3 + i, tw1 + i, tw2 + i, tw3 + i, conj_tw,
                        n - i);
  }

  /// One shared-twiddle butterfly over four lane rows (the body of a stage).
  static void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2,
                               cplx w3, bool conj_rot, usize n) {
    const float32x4_t w1r = vdupq_n_f32(w1.real());
    const float32x4_t w1i = vdupq_n_f32(w1.imag());
    const float32x4_t w2r = vdupq_n_f32(w2.real());
    const float32x4_t w2i = vdupq_n_f32(w2.imag());
    const float32x4_t w3r = vdupq_n_f32(w3.real());
    const float32x4_t w3i = vdupq_n_f32(w3.imag());
    const uint32x4_t rot_mask = conj_rot ? sign_real() : sign_imag();
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const float32x4_t u1 = P::cmul_bcast(w1r, w1i, load4(x1 + i));
      const float32x4_t u2 = P::cmul_bcast(w2r, w2i, load4(x2 + i));
      const float32x4_t u3 = P::cmul_bcast(w3r, w3i, load4(x3 + i));
      const float32x4_t z = load4(x0 + i);
      const float32x4_t s0 = vaddq_f32(z, u1);
      const float32x4_t s1 = vsubq_f32(z, u1);
      const float32x4_t s2 = vaddq_f32(u2, u3);
      const float32x4_t s3 = vsubq_f32(u2, u3);
      const float32x4_t r = flip_signs(vrev64q_f32(s3), rot_mask);
      store4(x0 + i, vaddq_f32(s0, s2));
      store4(x2 + i, vsubq_f32(s0, s2));
      store4(x1 + i, vaddq_f32(s1, r));
      store4(x3 + i, vsubq_f32(s1, r));
    }
    S::butterfly4_lanes(x0 + i, x1 + i, x2 + i, x3 + i, w1, w2, w3, conj_rot, n - i);
  }

  /// The scalar word-block transpose: its scale chain is this policy's
  /// scalar P::cmul_bcast, the per-element sequence of scale_lanes.
  static constexpr auto transpose_scale = &S::transpose_scale;

  static void cmul_rows_tiled(cplx* dst, usize dst_stride, const cplx* a, usize a_stride,
                              const cplx* b, usize b_stride, bool conj_b, usize rows,
                              usize cols) {
    for (usize r = 0; r < rows; ++r) {
      cplx* d = dst + r * dst_stride;
      const cplx* ar = a + r * a_stride;
      const cplx* br = b + r * b_stride;
      usize i = 0;
      if (conj_b) {
        for (; i + kW <= cols; i += kW) {
          store4(d + i, P::cmul_conj(load4(ar + i), load4(br + i)));
        }
        S::cmul_conj_lanes(d + i, ar + i, br + i, cols - i);
      } else {
        for (; i + kW <= cols; i += kW) store4(d + i, P::cmul(load4(ar + i), load4(br + i)));
        S::cmul_lanes(d + i, ar + i, br + i, cols - i);
      }
    }
  }

  static void chirp_mul_lanes(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n) {
    const float32x4_t vs = vdupq_n_f32(s);
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const float32x4_t scaled = vmulq_f32(load4(src + i), vs);
      store4(dst + i, P::cmul(scaled, load4(chirp + i)));
    }
    S::chirp_mul_lanes(dst + i, src + i, chirp + i, s, n - i);
  }

  static void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
    const float32x4_t vs = vdupq_n_f32(s);
    const float32x4_t wr = vdupq_n_f32(alpha.real());
    const float32x4_t wi = vdupq_n_f32(alpha.imag());
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      store4(dst + i, P::cmul_bcast(wr, wi, vmulq_f32(load4(src + i), vs)));
    }
    S::scale_chirp_lanes(dst + i, src + i, s, alpha, n - i);
  }

  static void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in,
                                       const cplx* trans, real sigma, usize n) {
    const float32x4_t msig = flip_signs(vdupq_n_f32(sigma), sign_real());
    usize i = 0;
    for (; i + kW <= n; i += kW) {
      const float32x4_t gv = load4(g + i);
      const float32x4_t tv = load4(trans + i);
      const float32x4_t gt = P::cmul_conj(gv, load4(psi_in + i));
      const float32x4_t ist = vmulq_f32(vrev64q_f32(tv), msig);
      store4(grad_out + i, vaddq_f32(load4(grad_out + i), P::cmul_conj(gt, ist)));
      store4(g + i, P::cmul_conj(gv, tv));
    }
    S::potential_backprop_lanes(grad_out + i, g + i, psi_in + i, trans + i, sigma, n - i);
  }
};

}  // namespace
}  // namespace ptycho::backend

#endif
