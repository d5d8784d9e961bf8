// Fast-tier (FMA) backend tables: the same 13 primitives as the strict
// tables, with every complex multiply's first product fused. This is the
// only TU built with -mfma (-mavx2 -mfma -mf16c on x86-64 — see
// CMakeLists.txt); nothing here runs unless dispatch.cpp verified the CPU
// and the caller opted into Precision::kFast.
//
// Fast-tier bitwise contract (tests/test_precision.cpp): the three fast
// tables — "scalar-fma", "avx2-fma", "neon-fma" — are bitwise identical
// to EACH OTHER, so backend choice is still never an algorithmic variable
// within a tier. The defining operation sequence per complex multiply is
//   re = fma(a.re, b.re, -(a.im * b.im))
//   im = fma(a.im, b.re,   a.re * b.im )
// i.e. one rounded product plus one fused multiply-add per component —
// exactly what _mm256_fmaddsub_ps(a, br, asw*bi) and the NEON vfmaq
// equivalent compute. The scalar reference below spells it out with
// std::fma, which makes it deterministic under any contraction flag.
// Against the strict tier the results differ (fewer roundings), which is
// why fast is tolerance-gated, never memcmp'd.
//
// Deliberately NOT included: backend/scalar_impl.hpp. Its functions are
// `inline` and shared by the strict TUs; instantiating them here under
// FMA codegen flags would let the linker hand the contracted copies to
// the strict tables (an ODR trap that would silently break the strict
// bitwise contract).
#include <cmath>
#include <cstdint>
#include <cstring>

#include "backend/kernels.hpp"

namespace ptycho::backend {
namespace {

/// Scalar fast-tier reference semantics (see header comment).
namespace fscalar {

inline cplx cmul_fma(cplx a, cplx b) {
  return cplx(std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
              std::fma(a.imag(), b.real(), a.real() * b.imag()));
}

/// a * conj(b): the sign of b.im flips before the products (exact).
inline cplx cmul_conj_fma(cplx a, cplx b) {
  return cplx(std::fma(a.real(), b.real(), a.imag() * b.imag()),
              std::fma(a.imag(), b.real(), -(a.real() * b.imag())));
}

/// cmul(w, x) with w broadcast: matches the vector fmaddsub(wr, x, wi*xsw).
inline cplx cmul_bcast_fma(cplx w, cplx x) {
  return cplx(std::fma(w.real(), x.real(), -(w.imag() * x.imag())),
              std::fma(w.real(), x.imag(), w.imag() * x.real()));
}

inline void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul_fma(a[i], b[i]);
}

inline void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul_conj_fma(a[i], b[i]);
}

inline void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] += cmul_conj_fma(a[i], b[i]);
}

inline void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul_bcast_fma(alpha, src[i]);
}

inline void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] += cmul_bcast_fma(alpha, src[i]);
}

inline void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = std::conj(src[i]) * s;
}

inline void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1,
                             const cplx* tw2, const cplx* tw3, bool conj_tw, usize n) {
  for (usize i = 0; i < n; ++i) {
    const cplx w1 = conj_tw ? std::conj(tw1[i]) : tw1[i];
    const cplx w2 = conj_tw ? std::conj(tw2[i]) : tw2[i];
    const cplx w3 = conj_tw ? std::conj(tw3[i]) : tw3[i];
    const cplx u1 = cmul_fma(w1, x1[i]);
    const cplx u2 = cmul_fma(w2, x2[i]);
    const cplx u3 = cmul_fma(w3, x3[i]);
    const cplx z = x0[i];
    const cplx s0 = z + u1;
    const cplx s1 = z - u1;
    const cplx s2 = u2 + u3;
    const cplx s3 = u2 - u3;
    const cplx r = conj_tw ? cplx(-s3.imag(), s3.real()) : cplx(s3.imag(), -s3.real());
    x0[i] = s0 + s2;
    x2[i] = s0 - s2;
    x1[i] = s1 + r;
    x3[i] = s1 - r;
  }
}

inline void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2, cplx w3,
                             bool conj_rot, usize n) {
  for (usize i = 0; i < n; ++i) {
    const cplx u1 = cmul_bcast_fma(w1, x1[i]);
    const cplx u2 = cmul_bcast_fma(w2, x2[i]);
    const cplx u3 = cmul_bcast_fma(w3, x3[i]);
    const cplx z = x0[i];
    const cplx s0 = z + u1;
    const cplx s1 = z - u1;
    const cplx s2 = u2 + u3;
    const cplx s3 = u2 - u3;
    const cplx r = conj_rot ? cplx(-s3.imag(), s3.real()) : cplx(s3.imag(), -s3.real());
    x0[i] = s0 + s2;
    x2[i] = s0 - s2;
    x1[i] = s1 + r;
    x3[i] = s1 - r;
  }
}

inline void butterfly4_stage(cplx* data, usize n, usize stride, usize count, usize h,
                             const cplx* tw, bool conj_tw) {
  for (usize base = 0; base < n; base += 4 * h) {
    for (usize k = 0; k < h; ++k) {
      const cplx w1 = conj_tw ? std::conj(tw[k]) : tw[k];
      const cplx w2 = conj_tw ? std::conj(tw[h + k]) : tw[h + k];
      const cplx w3 = conj_tw ? std::conj(tw[2 * h + k]) : tw[2 * h + k];
      cplx* p0 = data + (base + k) * stride;
      butterfly4_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride, w1, w2,
                       w3, conj_tw, count);
    }
  }
}

/// scale_lanes's fused per-element multiply by each scale in turn.
inline cplx scale_chain(cplx v, const cplx* scales, usize n_scales) {
  for (usize s = 0; s < n_scales; ++s) v = cmul_bcast_fma(scales[s], v);
  return v;
}

inline void transpose_scale_edge(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                                 usize src_stride, usize r0, usize r1, usize c0, usize c1,
                                 const cplx* scales, usize n_scales) {
  for (usize c = c0; c < c1; ++c) {
    cplx* d = dst + (perm != nullptr ? perm[c] : c) * dst_stride;
    for (usize r = r0; r < r1; ++r) d[r] = scale_chain(src[r * src_stride + c], scales, n_scales);
  }
}

/// The strict scalar table's word-block transpose with the fused scales.
inline void transpose_scale(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                            usize src_stride, usize rows, usize cols, const cplx* scales,
                            usize n_scales) {
  using Word = std::uint64_t;
  static_assert(sizeof(Word) == sizeof(cplx), "transpose moves one cplx per word");
  const usize rows4 = rows & ~usize{3};
  const usize cols4 = cols & ~usize{3};
  for (usize r = 0; r < rows4; r += 4) {
    for (usize c = 0; c < cols4; c += 4) {
      if (n_scales != 0) {
        transpose_scale_edge(dst, dst_stride, perm, src, src_stride, r, r + 4, c, c + 4, scales,
                             n_scales);
        continue;
      }
      Word block[4][4];
      for (usize i = 0; i < 4; ++i) {
        for (usize j = 0; j < 4; ++j) {
          std::memcpy(&block[i][j], src + (r + i) * src_stride + c + j, sizeof(Word));
        }
      }
      for (usize j = 0; j < 4; ++j) {
        cplx* d = dst + (perm != nullptr ? perm[c + j] : c + j) * dst_stride + r;
        for (usize i = 0; i < 4; ++i) {
          std::memcpy(static_cast<void*>(d + i), &block[i][j], sizeof(Word));
        }
      }
    }
    transpose_scale_edge(dst, dst_stride, perm, src, src_stride, r, r + 4, cols4, cols, scales,
                         n_scales);
  }
  transpose_scale_edge(dst, dst_stride, perm, src, src_stride, rows4, rows, 0, cols, scales,
                       n_scales);
}

inline void cmul_rows_tiled(cplx* dst, usize dst_stride, const cplx* a, usize a_stride,
                            const cplx* b, usize b_stride, bool conj_b, usize rows,
                            usize cols) {
  for (usize r = 0; r < rows; ++r) {
    if (conj_b) {
      cmul_conj_lanes(dst + r * dst_stride, a + r * a_stride, b + r * b_stride, cols);
    } else {
      cmul_lanes(dst + r * dst_stride, a + r * a_stride, b + r * b_stride, cols);
    }
  }
}

inline void chirp_mul_lanes(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul_fma(src[i] * s, chirp[i]);
}

inline void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul_bcast_fma(alpha, src[i] * s);
}

inline void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in,
                                     const cplx* trans, real sigma, usize n) {
  for (usize i = 0; i < n; ++i) {
    const cplx gt = cmul_conj_fma(g[i], psi_in[i]);
    const cplx ist(-sigma * trans[i].imag(), sigma * trans[i].real());
    grad_out[i] += cmul_conj_fma(gt, ist);
    g[i] = cmul_conj_fma(g[i], trans[i]);
  }
}

}  // namespace fscalar

constexpr Kernels kScalarFma = {
    "scalar-fma",
    &fscalar::cmul_lanes,
    &fscalar::cmul_conj_lanes,
    &fscalar::cmul_conj_acc_lanes,
    &fscalar::scale_lanes,
    &fscalar::axpy_lanes,
    &fscalar::conj_scale_lanes,
    &fscalar::butterfly4_block,
    &fscalar::butterfly4_stage,
    &fscalar::transpose_scale,
    &fscalar::cmul_rows_tiled,
    &fscalar::chirp_mul_lanes,
    &fscalar::scale_chirp_lanes,
    &fscalar::potential_backprop_lanes,
};

}  // namespace

const Kernels& scalar_fma_kernels() { return kScalarFma; }

}  // namespace ptycho::backend

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ptycho::backend {
namespace {
namespace favx2 {

// 4 complex floats per __m256, interleaved [re0, im0, re1, im1, ...].
constexpr usize kW = 4;

inline __m256 load8(const cplx* p) {
  return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
}
inline void store8(cplx* p, __m256 v) {
  _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
}

inline __m256 sign_all() { return _mm256_set1_ps(-0.0f); }
inline __m256 sign_imag() {
  return _mm256_castsi256_ps(_mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL)));
}
inline __m256 sign_real() {
  return _mm256_castsi256_ps(_mm256_set1_epi64x(0x0000000080000000LL));
}

/// Fused cmul: fmaddsub(a, br, asw*bi) — per pair
///   re = fma(a.re, b.re, -(a.im*b.im)), im = fma(a.im, b.re, a.re*b.im).
inline __m256 cmul8(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 bi = _mm256_movehdup_ps(b);
  const __m256 asw = _mm256_permute_ps(a, 0xB1);  // [a.im, a.re] per pair
  return _mm256_fmaddsub_ps(a, br, _mm256_mul_ps(asw, bi));
}

/// Fused cmul_conj(a, b) = a * conj(b): negate b.im before the products.
inline __m256 cmul_conj8(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 nbi = _mm256_xor_ps(_mm256_movehdup_ps(b), sign_all());
  const __m256 asw = _mm256_permute_ps(a, 0xB1);
  return _mm256_fmaddsub_ps(a, br, _mm256_mul_ps(asw, nbi));
}

/// Fused cmul(w, x) with a scalar w broadcast across lanes.
inline __m256 cmul_broadcast8(__m256 wr, __m256 wi, __m256 x) {
  const __m256 xsw = _mm256_permute_ps(x, 0xB1);
  return _mm256_fmaddsub_ps(wr, x, _mm256_mul_ps(wi, xsw));
}

void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store8(dst + i, cmul8(load8(a + i), load8(b + i)));
  fscalar::cmul_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store8(dst + i, cmul_conj8(load8(a + i), load8(b + i)));
  fscalar::cmul_conj_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 t = cmul_conj8(load8(a + i), load8(b + i));
    store8(dst + i, _mm256_add_ps(load8(dst + i), t));
  }
  fscalar::cmul_conj_acc_lanes(dst + i, a + i, b + i, n - i);
}

void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const __m256 wr = _mm256_set1_ps(alpha.real());
  const __m256 wi = _mm256_set1_ps(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) store8(dst + i, cmul_broadcast8(wr, wi, load8(src + i)));
  fscalar::scale_lanes(dst + i, src + i, alpha, n - i);
}

void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const __m256 wr = _mm256_set1_ps(alpha.real());
  const __m256 wi = _mm256_set1_ps(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 t = cmul_broadcast8(wr, wi, load8(src + i));
    store8(dst + i, _mm256_add_ps(load8(dst + i), t));
  }
  fscalar::axpy_lanes(dst + i, src + i, alpha, n - i);
}

void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
  const __m256 vs = _mm256_set1_ps(s);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 c = _mm256_xor_ps(load8(src + i), sign_imag());
    store8(dst + i, _mm256_mul_ps(c, vs));
  }
  fscalar::conj_scale_lanes(dst + i, src + i, s, n - i);
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
  fscalar::butterfly4_block(x0 + i, x1 + i, x2 + i, x3 + i, tw1 + i, tw2 + i, tw3 + i, conj_tw,
                            n - i);
}

/// One shared-twiddle butterfly over four lane rows (the body of a stage).
inline void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2, cplx w3,
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
  fscalar::butterfly4_lanes(x0 + i, x1 + i, x2 + i, x3 + i, w1, w2, w3, conj_rot, n - i);
}

void butterfly4_stage(cplx* data, usize n, usize stride, usize count, usize h, const cplx* tw,
                      bool conj_tw) {
  for (usize base = 0; base < n; base += 4 * h) {
    for (usize k = 0; k < h; ++k) {
      const cplx w1 = conj_tw ? std::conj(tw[k]) : tw[k];
      const cplx w2 = conj_tw ? std::conj(tw[h + k]) : tw[h + k];
      const cplx w3 = conj_tw ? std::conj(tw[2 * h + k]) : tw[2 * h + k];
      cplx* p0 = data + (base + k) * stride;
      butterfly4_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride, w1, w2,
                       w3, conj_tw, count);
    }
  }
}

/// The strict AVX2 table's unpack/permute2f128 4x4 transpose, with each
/// scale through the fused cmul_broadcast8 of scale_lanes.
template <usize kScales>
void transpose_blocks(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
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
      const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
      const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
      const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
      const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
      __m256 o[4] = {_mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x20)),
                     _mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x20)),
                     _mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x31)),
                     _mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x31))};
      for (usize j = 0; j < 4; ++j) {
        for (usize s = 0; s < kScales; ++s) o[j] = cmul_broadcast8(sr[s], si[s], o[j]);
        store8(dst + (perm != nullptr ? perm[c + j] : c + j) * dst_stride + r, o[j]);
      }
    }
    fscalar::transpose_scale_edge(dst, dst_stride, perm, src, src_stride, r, r + 4, cols4, cols,
                                  scales, kScales);
  }
  fscalar::transpose_scale_edge(dst, dst_stride, perm, src, src_stride, rows4, rows, 0, cols,
                                scales, kScales);
}

void transpose_scale(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                     usize src_stride, usize rows, usize cols, const cplx* scales,
                     usize n_scales) {
  switch (n_scales) {
    case 0: return transpose_blocks<0>(dst, dst_stride, perm, src, src_stride, rows, cols, scales);
    case 1: return transpose_blocks<1>(dst, dst_stride, perm, src, src_stride, rows, cols, scales);
    default:
      return transpose_blocks<2>(dst, dst_stride, perm, src, src_stride, rows, cols, scales);
  }
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
      fscalar::cmul_conj_lanes(d + i, ar + i, br + i, cols - i);
    } else {
      for (; i + kW <= cols; i += kW) store8(d + i, cmul8(load8(ar + i), load8(br + i)));
      fscalar::cmul_lanes(d + i, ar + i, br + i, cols - i);
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
  fscalar::chirp_mul_lanes(dst + i, src + i, chirp + i, s, n - i);
}

void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
  const __m256 vs = _mm256_set1_ps(s);
  const __m256 wr = _mm256_set1_ps(alpha.real());
  const __m256 wi = _mm256_set1_ps(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    store8(dst + i, cmul_broadcast8(wr, wi, _mm256_mul_ps(load8(src + i), vs)));
  }
  fscalar::scale_chirp_lanes(dst + i, src + i, s, alpha, n - i);
}

void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in, const cplx* trans,
                              real sigma, usize n) {
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
  fscalar::potential_backprop_lanes(grad_out + i, g + i, psi_in + i, trans + i, sigma, n - i);
}

constexpr Kernels kAvx2Fma = {
    "avx2-fma",
    &cmul_lanes,
    &cmul_conj_lanes,
    &cmul_conj_acc_lanes,
    &scale_lanes,
    &axpy_lanes,
    &conj_scale_lanes,
    &butterfly4_block,
    &butterfly4_stage,
    &transpose_scale,
    &cmul_rows_tiled,
    &chirp_mul_lanes,
    &scale_chirp_lanes,
    &potential_backprop_lanes,
};

}  // namespace favx2
}  // namespace

const Kernels* fma_kernels() { return &favx2::kAvx2Fma; }

}  // namespace ptycho::backend

#elif defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace ptycho::backend {
namespace {
namespace fneon {

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

/// Fused cmul: c = asw*bi with even lanes negated, then vfmaq(c, a, br):
///   re = fma(a.re, b.re, -(a.im*b.im)), im = fma(a.im, b.re, a.re*b.im) —
/// the same sequence as the scalar-fma and avx2-fma tables.
inline float32x4_t cmul4(float32x4_t a, float32x4_t b) {
  const float32x4_t br = vtrn1q_f32(b, b);
  const float32x4_t bi = vtrn2q_f32(b, b);
  const float32x4_t asw = vrev64q_f32(a);
  const float32x4_t c = flip_signs(vmulq_f32(asw, bi), sign_real());
  return vfmaq_f32(c, a, br);
}

inline float32x4_t cmul_conj4(float32x4_t a, float32x4_t b) {
  const float32x4_t br = vtrn1q_f32(b, b);
  const float32x4_t nbi = flip_signs(vtrn2q_f32(b, b), sign_all());
  const float32x4_t asw = vrev64q_f32(a);
  const float32x4_t c = flip_signs(vmulq_f32(asw, nbi), sign_real());
  return vfmaq_f32(c, a, br);
}

inline float32x4_t cmul_broadcast4(float32x4_t wr, float32x4_t wi, float32x4_t x) {
  const float32x4_t xsw = vrev64q_f32(x);
  const float32x4_t c = flip_signs(vmulq_f32(wi, xsw), sign_real());
  return vfmaq_f32(c, wr, x);
}

void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store4(dst + i, cmul4(load4(a + i), load4(b + i)));
  fscalar::cmul_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) store4(dst + i, cmul_conj4(load4(a + i), load4(b + i)));
  fscalar::cmul_conj_lanes(dst + i, a + i, b + i, n - i);
}

void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t t = cmul_conj4(load4(a + i), load4(b + i));
    store4(dst + i, vaddq_f32(load4(dst + i), t));
  }
  fscalar::cmul_conj_acc_lanes(dst + i, a + i, b + i, n - i);
}

void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const float32x4_t wr = vdupq_n_f32(alpha.real());
  const float32x4_t wi = vdupq_n_f32(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) store4(dst + i, cmul_broadcast4(wr, wi, load4(src + i)));
  fscalar::scale_lanes(dst + i, src + i, alpha, n - i);
}

void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  const float32x4_t wr = vdupq_n_f32(alpha.real());
  const float32x4_t wi = vdupq_n_f32(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t t = cmul_broadcast4(wr, wi, load4(src + i));
    store4(dst + i, vaddq_f32(load4(dst + i), t));
  }
  fscalar::axpy_lanes(dst + i, src + i, alpha, n - i);
}

void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
  const float32x4_t vs = vdupq_n_f32(s);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    store4(dst + i, vmulq_f32(flip_signs(load4(src + i), sign_imag()), vs));
  }
  fscalar::conj_scale_lanes(dst + i, src + i, s, n - i);
}

void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1, const cplx* tw2,
                      const cplx* tw3, bool conj_tw, usize n) {
  const uint32x4_t conj_mask = conj_tw ? sign_imag() : vdupq_n_u32(0u);
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
  fscalar::butterfly4_block(x0 + i, x1 + i, x2 + i, x3 + i, tw1 + i, tw2 + i, tw3 + i, conj_tw,
                            n - i);
}

/// One shared-twiddle butterfly over four lane rows (the body of a stage).
inline void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2, cplx w3,
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
  fscalar::butterfly4_lanes(x0 + i, x1 + i, x2 + i, x3 + i, w1, w2, w3, conj_rot, n - i);
}

void butterfly4_stage(cplx* data, usize n, usize stride, usize count, usize h, const cplx* tw,
                      bool conj_tw) {
  for (usize base = 0; base < n; base += 4 * h) {
    for (usize k = 0; k < h; ++k) {
      const cplx w1 = conj_tw ? std::conj(tw[k]) : tw[k];
      const cplx w2 = conj_tw ? std::conj(tw[h + k]) : tw[h + k];
      const cplx w3 = conj_tw ? std::conj(tw[2 * h + k]) : tw[2 * h + k];
      cplx* p0 = data + (base + k) * stride;
      butterfly4_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride, w1, w2,
                       w3, conj_tw, count);
    }
  }
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
      fscalar::cmul_conj_lanes(d + i, ar + i, br + i, cols - i);
    } else {
      for (; i + kW <= cols; i += kW) store4(d + i, cmul4(load4(ar + i), load4(br + i)));
      fscalar::cmul_lanes(d + i, ar + i, br + i, cols - i);
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
  fscalar::chirp_mul_lanes(dst + i, src + i, chirp + i, s, n - i);
}

void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
  const float32x4_t vs = vdupq_n_f32(s);
  const float32x4_t wr = vdupq_n_f32(alpha.real());
  const float32x4_t wi = vdupq_n_f32(alpha.imag());
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    store4(dst + i, cmul_broadcast4(wr, wi, vmulq_f32(load4(src + i), vs)));
  }
  fscalar::scale_chirp_lanes(dst + i, src + i, s, alpha, n - i);
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
  fscalar::potential_backprop_lanes(grad_out + i, g + i, psi_in + i, trans + i, sigma, n - i);
}

constexpr Kernels kNeonFma = {
    "neon-fma",
    &cmul_lanes,
    &cmul_conj_lanes,
    &cmul_conj_acc_lanes,
    &scale_lanes,
    &axpy_lanes,
    &conj_scale_lanes,
    &butterfly4_block,
    &butterfly4_stage,
    // The scalar-fma word-block transpose: its scale_chain is the fused
    // per-element sequence of this table's scale_lanes.
    &fscalar::transpose_scale,
    &cmul_rows_tiled,
    &chirp_mul_lanes,
    &scale_chirp_lanes,
    &potential_backprop_lanes,
};

}  // namespace fneon
}  // namespace

const Kernels* fma_kernels() { return &fneon::kNeonFma; }

}  // namespace ptycho::backend

#else  // no vector FMA backend for this target

namespace ptycho::backend {
const Kernels* fma_kernels() { return nullptr; }
}  // namespace ptycho::backend

#endif
