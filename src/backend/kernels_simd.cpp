// Vector backends: AVX2 on x86-64, NEON on AArch64. This is the only
// translation unit built with an ISA extension flag (-mavx2; FMA stays
// off — see CMakeLists.txt), which is safe because nothing here runs
// unless dispatch.cpp verified the CPU.
//
// Bitwise contract with the scalar backend (see kernels.hpp): every lane
// performs the scalar operation sequence exactly — separate IEEE multiply
// and add/sub (no FMA intrinsics anywhere, -ffp-contract=off so the
// compiler cannot fuse the tails either), and reorderings limited to what
// IEEE-754 makes exact: commuting multiplies and adds, sign flips, and
// x - (-y) == x + y. Remainder lanes (n % width) run the shared scalar
// helpers from scalar_impl.hpp.
#include "backend/kernels.hpp"
#include "backend/scalar_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ptycho::backend {
namespace {

// 4 complex floats per __m256, interleaved [re0, im0, re1, im1, ...].
constexpr usize kW = 4;

inline __m256 load8(const cplx* p) {
  return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
}
inline void store8(cplx* p, __m256 v) {
  _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
}

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

/// cmul(a, b) on 4 interleaved complex lanes:
///   re = a.re*b.re - a.im*b.im,  im = a.im*b.re + a.re*b.im.
inline __m256 cmul8(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 bi = _mm256_movehdup_ps(b);
  const __m256 asw = _mm256_permute_ps(a, 0xB1);  // [a.im, a.re] per pair
  return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, bi));
}

/// cmul_conj(a, b) = a * conj(b): negating b.im before the addsub yields
///   re = a.re*b.re + a.im*b.im,  im = a.im*b.re - a.re*b.im
/// through the exact identities x - (-y) == x + y and x + (-y) == x - y.
inline __m256 cmul_conj8(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 nbi = _mm256_xor_ps(_mm256_movehdup_ps(b), sign_all());
  const __m256 asw = _mm256_permute_ps(a, 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, nbi));
}

/// cmul(w, x) with a scalar w broadcast across lanes:
///   re = w.re*x.re - w.im*x.im,  im = w.re*x.im + w.im*x.re.
inline __m256 cmul_broadcast8(__m256 wr, __m256 wi, __m256 x) {
  const __m256 xsw = _mm256_permute_ps(x, 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(wr, x), _mm256_mul_ps(wi, xsw));
}

void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store8(dst + i, cmul8(load8(a + i), load8(b + i)));
  scalar::cmul_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store8(dst + i, cmul_conj8(load8(a + i), load8(b + i)));
  scalar::cmul_conj_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 t = cmul_conj8(load8(a + i), load8(b + i));
    store8(dst + i, _mm256_add_ps(load8(dst + i), t));
  }
  scalar::cmul_conj_acc_lanes(dst + i, a + i, b + i, n - i);
}

void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const __m256 wr = _mm256_set1_ps(alpha.real());
  const __m256 wi = _mm256_set1_ps(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) store8(dst + i, cmul_broadcast8(wr, wi, load8(src + i)));
  scalar::scale_lanes(dst + i, src + i, alpha, n - i);
}

void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const __m256 wr = _mm256_set1_ps(alpha.real());
  const __m256 wi = _mm256_set1_ps(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 t = cmul_broadcast8(wr, wi, load8(src + i));
    store8(dst + i, _mm256_add_ps(load8(dst + i), t));
  }
  scalar::axpy_lanes(dst + i, src + i, alpha, n - i);
}

void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
  const __m256 vs = _mm256_set1_ps(s);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 c = _mm256_xor_ps(load8(src + i), sign_imag());
    store8(dst + i, _mm256_mul_ps(c, vs));
  }
  scalar::conj_scale_lanes(dst + i, src + i, s, n - i);
}

void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1, const cplx* tw2,
                      const cplx* tw3, bool conj_tw, usize n) {
  const __m256 conj_mask = conj_tw ? sign_imag() : _mm256_setzero_ps();
  // -i*s = (s.im, -s.re): swap then negate odd lanes; +i*s: negate even lanes.
  const __m256 rot_mask = conj_tw ? sign_real() : sign_imag();
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 w1 = _mm256_xor_ps(load8(tw1 + i), conj_mask);
    const __m256 w2 = _mm256_xor_ps(load8(tw2 + i), conj_mask);
    const __m256 w3 = _mm256_xor_ps(load8(tw3 + i), conj_mask);
    const __m256 u1 = cmul8(w1, load8(x1 + i));
    const __m256 u2 = cmul8(w2, load8(x2 + i));
    const __m256 u3 = cmul8(w3, load8(x3 + i));
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
  scalar::butterfly4_block(x0 + i, x1 + i, x2 + i, x3 + i, tw1 + i, tw2 + i, tw3 + i, conj_tw,
                           n - i);
}

void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2, cplx w3,
                      bool conj_rot, usize n) {
  const __m256 w1r = _mm256_set1_ps(w1.real());
  const __m256 w1i = _mm256_set1_ps(w1.imag());
  const __m256 w2r = _mm256_set1_ps(w2.real());
  const __m256 w2i = _mm256_set1_ps(w2.imag());
  const __m256 w3r = _mm256_set1_ps(w3.real());
  const __m256 w3i = _mm256_set1_ps(w3.imag());
  const __m256 rot_mask = conj_rot ? sign_real() : sign_imag();
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 u1 = cmul_broadcast8(w1r, w1i, load8(x1 + i));
    const __m256 u2 = cmul_broadcast8(w2r, w2i, load8(x2 + i));
    const __m256 u3 = cmul_broadcast8(w3r, w3i, load8(x3 + i));
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
  scalar::butterfly4_lanes(x0 + i, x1 + i, x2 + i, x3 + i, w1, w2, w3, conj_rot, n - i);
}

void cmul_rows_tiled(cplx* dst, usize dst_stride, const cplx* a, usize a_stride, const cplx* b,
                     usize b_stride, bool conj_b, usize rows, usize cols) {
  for (usize r = 0; r < rows; ++r) {
    cplx* d = dst + r * dst_stride;
    const cplx* ar = a + r * a_stride;
    const cplx* br = b + r * b_stride;
    usize i = 0;
    if (conj_b) {
      for (; i + kW <= cols; i += kW) store8(d + i, cmul_conj8(load8(ar + i), load8(br + i)));
      scalar::cmul_conj_lanes(d + i, ar + i, br + i, cols - i);
    } else {
      for (; i + kW <= cols; i += kW) store8(d + i, cmul8(load8(ar + i), load8(br + i)));
      scalar::cmul_lanes(d + i, ar + i, br + i, cols - i);
    }
  }
}

void chirp_mul_lanes(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n) {
  const __m256 vs = _mm256_set1_ps(s);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 scaled = _mm256_mul_ps(load8(src + i), vs);
    store8(dst + i, cmul8(scaled, load8(chirp + i)));
  }
  scalar::chirp_mul_lanes(dst + i, src + i, chirp + i, s, n - i);
}

void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
  const __m256 vs = _mm256_set1_ps(s);
  const __m256 wr = _mm256_set1_ps(alpha.real());
  const __m256 wi = _mm256_set1_ps(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    store8(dst + i, cmul_broadcast8(wr, wi, _mm256_mul_ps(load8(src + i), vs)));
  }
  scalar::scale_chirp_lanes(dst + i, src + i, s, alpha, n - i);
}

void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in, const cplx* trans,
                              real sigma, usize n) {
  // ist = i*sigma*t = (-sigma*t.im, sigma*t.re): swap re/im of t, then
  // multiply by [-sigma, +sigma, ...] (sign flip + multiply are exact).
  const __m256 msig = _mm256_xor_ps(_mm256_set1_ps(sigma), sign_real());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 gv = load8(g + i);
    const __m256 tv = load8(trans + i);
    const __m256 gt = cmul_conj8(gv, load8(psi_in + i));
    const __m256 ist = _mm256_mul_ps(_mm256_permute_ps(tv, 0xB1), msig);
    store8(grad_out + i, _mm256_add_ps(load8(grad_out + i), cmul_conj8(gt, ist)));
    store8(g + i, cmul_conj8(gv, tv));
  }
  scalar::potential_backprop_lanes(grad_out + i, g + i, psi_in + i, trans + i, sigma, n - i);
}

constexpr Kernels kAvx2 = {
    "avx2",
    &cmul_lanes,
    &cmul_conj_lanes,
    &cmul_conj_acc_lanes,
    &scale_lanes,
    &axpy_lanes,
    &conj_scale_lanes,
    &butterfly4_block,
    &butterfly4_lanes,
    &cmul_rows_tiled,
    &chirp_mul_lanes,
    &scale_chirp_lanes,
    &potential_backprop_lanes,
};

}  // namespace

const Kernels* simd_kernels() { return &kAvx2; }

}  // namespace ptycho::backend

#elif defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace ptycho::backend {
namespace {

// 2 complex floats per float32x4_t, interleaved [re0, im0, re1, im1].
constexpr usize kW = 2;

inline float32x4_t load4(const cplx* p) {
  return vld1q_f32(reinterpret_cast<const float*>(p));
}
inline void store4(cplx* p, float32x4_t v) {
  vst1q_f32(reinterpret_cast<float*>(p), v);
}

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

/// addsub(p1, p2): [p1.even - p2.even, p1.odd + p2.odd], via the exact
/// identity x - y == x + (-y) (negate even lanes of p2, then add).
inline float32x4_t addsub4(float32x4_t p1, float32x4_t p2) {
  return vaddq_f32(p1, flip_signs(p2, sign_real()));
}

inline float32x4_t cmul4(float32x4_t a, float32x4_t b) {
  const float32x4_t br = vtrn1q_f32(b, b);   // [b0.re, b0.re, b1.re, b1.re]
  const float32x4_t bi = vtrn2q_f32(b, b);   // [b0.im, b0.im, b1.im, b1.im]
  const float32x4_t asw = vrev64q_f32(a);    // [a0.im, a0.re, a1.im, a1.re]
  return addsub4(vmulq_f32(a, br), vmulq_f32(asw, bi));
}

inline float32x4_t cmul_conj4(float32x4_t a, float32x4_t b) {
  const float32x4_t br = vtrn1q_f32(b, b);
  const float32x4_t nbi = flip_signs(vtrn2q_f32(b, b), sign_all());
  const float32x4_t asw = vrev64q_f32(a);
  return addsub4(vmulq_f32(a, br), vmulq_f32(asw, nbi));
}

inline float32x4_t cmul_broadcast4(float32x4_t wr, float32x4_t wi, float32x4_t x) {
  const float32x4_t xsw = vrev64q_f32(x);
  return addsub4(vmulq_f32(wr, x), vmulq_f32(wi, xsw));
}

void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store4(dst + i, cmul4(load4(a + i), load4(b + i)));
  scalar::cmul_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store4(dst + i, cmul_conj4(load4(a + i), load4(b + i)));
  scalar::cmul_conj_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t t = cmul_conj4(load4(a + i), load4(b + i));
    store4(dst + i, vaddq_f32(load4(dst + i), t));
  }
  scalar::cmul_conj_acc_lanes(dst + i, a + i, b + i, n - i);
}

void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const float32x4_t wr = vdupq_n_f32(alpha.real());
  const float32x4_t wi = vdupq_n_f32(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) store4(dst + i, cmul_broadcast4(wr, wi, load4(src + i)));
  scalar::scale_lanes(dst + i, src + i, alpha, n - i);
}

void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const float32x4_t wr = vdupq_n_f32(alpha.real());
  const float32x4_t wi = vdupq_n_f32(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t t = cmul_broadcast4(wr, wi, load4(src + i));
    store4(dst + i, vaddq_f32(load4(dst + i), t));
  }
  scalar::axpy_lanes(dst + i, src + i, alpha, n - i);
}

void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
  const float32x4_t vs = vdupq_n_f32(s);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    store4(dst + i, vmulq_f32(flip_signs(load4(src + i), sign_imag()), vs));
  }
  scalar::conj_scale_lanes(dst + i, src + i, s, n - i);
}

void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1, const cplx* tw2,
                      const cplx* tw3, bool conj_tw, usize n) {
  const uint32x4_t conj_mask = conj_tw ? sign_imag() : vdupq_n_u32(0u);
  // -i*s = (s.im, -s.re): swap then negate odd lanes; +i*s: negate even lanes.
  const uint32x4_t rot_mask = conj_tw ? sign_real() : sign_imag();
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t w1 = flip_signs(load4(tw1 + i), conj_mask);
    const float32x4_t w2 = flip_signs(load4(tw2 + i), conj_mask);
    const float32x4_t w3 = flip_signs(load4(tw3 + i), conj_mask);
    const float32x4_t u1 = cmul4(w1, load4(x1 + i));
    const float32x4_t u2 = cmul4(w2, load4(x2 + i));
    const float32x4_t u3 = cmul4(w3, load4(x3 + i));
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
  scalar::butterfly4_block(x0 + i, x1 + i, x2 + i, x3 + i, tw1 + i, tw2 + i, tw3 + i, conj_tw,
                           n - i);
}

void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2, cplx w3,
                      bool conj_rot, usize n) {
  const float32x4_t w1r = vdupq_n_f32(w1.real());
  const float32x4_t w1i = vdupq_n_f32(w1.imag());
  const float32x4_t w2r = vdupq_n_f32(w2.real());
  const float32x4_t w2i = vdupq_n_f32(w2.imag());
  const float32x4_t w3r = vdupq_n_f32(w3.real());
  const float32x4_t w3i = vdupq_n_f32(w3.imag());
  const uint32x4_t rot_mask = conj_rot ? sign_real() : sign_imag();
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t u1 = cmul_broadcast4(w1r, w1i, load4(x1 + i));
    const float32x4_t u2 = cmul_broadcast4(w2r, w2i, load4(x2 + i));
    const float32x4_t u3 = cmul_broadcast4(w3r, w3i, load4(x3 + i));
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
  scalar::butterfly4_lanes(x0 + i, x1 + i, x2 + i, x3 + i, w1, w2, w3, conj_rot, n - i);
}

void cmul_rows_tiled(cplx* dst, usize dst_stride, const cplx* a, usize a_stride, const cplx* b,
                     usize b_stride, bool conj_b, usize rows, usize cols) {
  for (usize r = 0; r < rows; ++r) {
    cplx* d = dst + r * dst_stride;
    const cplx* ar = a + r * a_stride;
    const cplx* br = b + r * b_stride;
    usize i = 0;
    if (conj_b) {
      for (; i + kW <= cols; i += kW) store4(d + i, cmul_conj4(load4(ar + i), load4(br + i)));
      scalar::cmul_conj_lanes(d + i, ar + i, br + i, cols - i);
    } else {
      for (; i + kW <= cols; i += kW) store4(d + i, cmul4(load4(ar + i), load4(br + i)));
      scalar::cmul_lanes(d + i, ar + i, br + i, cols - i);
    }
  }
}

void chirp_mul_lanes(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n) {
  const float32x4_t vs = vdupq_n_f32(s);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t scaled = vmulq_f32(load4(src + i), vs);
    store4(dst + i, cmul4(scaled, load4(chirp + i)));
  }
  scalar::chirp_mul_lanes(dst + i, src + i, chirp + i, s, n - i);
}

void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
  const float32x4_t vs = vdupq_n_f32(s);
  const float32x4_t wr = vdupq_n_f32(alpha.real());
  const float32x4_t wi = vdupq_n_f32(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    store4(dst + i, cmul_broadcast4(wr, wi, vmulq_f32(load4(src + i), vs)));
  }
  scalar::scale_chirp_lanes(dst + i, src + i, s, alpha, n - i);
}

void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in, const cplx* trans,
                              real sigma, usize n) {
  const float32x4_t msig = flip_signs(vdupq_n_f32(sigma), sign_real());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t gv = load4(g + i);
    const float32x4_t tv = load4(trans + i);
    const float32x4_t gt = cmul_conj4(gv, load4(psi_in + i));
    const float32x4_t ist = vmulq_f32(vrev64q_f32(tv), msig);
    store4(grad_out + i, vaddq_f32(load4(grad_out + i), cmul_conj4(gt, ist)));
    store4(g + i, cmul_conj4(gv, tv));
  }
  scalar::potential_backprop_lanes(grad_out + i, g + i, psi_in + i, trans + i, sigma, n - i);
}

constexpr Kernels kNeon = {
    "neon",
    &cmul_lanes,
    &cmul_conj_lanes,
    &cmul_conj_acc_lanes,
    &scale_lanes,
    &axpy_lanes,
    &conj_scale_lanes,
    &butterfly4_block,
    &butterfly4_lanes,
    &cmul_rows_tiled,
    &chirp_mul_lanes,
    &scale_chirp_lanes,
    &potential_backprop_lanes,
};

}  // namespace

const Kernels* simd_kernels() { return &kNeon; }

}  // namespace ptycho::backend

#else  // no vector backend for this target

namespace ptycho::backend {
const Kernels* simd_kernels() { return nullptr; }
}  // namespace ptycho::backend

#endif
