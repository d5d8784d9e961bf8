// Scalar reference implementations of the backend primitives, shared
// between the scalar table (kernels_scalar.cpp) and the vector tables'
// tail loops (kernels_simd.cpp). Keeping both in one header guarantees
// the remainder lanes of a SIMD kernel run exactly the operation sequence
// of the scalar backend. Internal to src/backend/ — include nowhere else.
//
// Both including TUs compile with -ffp-contract=off, so `a*b + c` here is
// a rounded multiply followed by a rounded add on every architecture —
// the association the bitwise contract in kernels.hpp is defined against.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/types.hpp"

namespace ptycho::backend::scalar {

inline void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul(a[i], b[i]);
}

inline void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul_conj(a[i], b[i]);
}

inline void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] += cmul_conj(a[i], b[i]);
}

inline void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul(src[i], alpha);
}

inline void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] += cmul(alpha, src[i]);
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
    const cplx u1 = cmul(w1, x1[i]);
    const cplx u2 = cmul(w2, x2[i]);
    const cplx u3 = cmul(w3, x3[i]);
    const cplx z = x0[i];
    const cplx s0 = z + u1;
    const cplx s1 = z - u1;
    const cplx s2 = u2 + u3;
    const cplx s3 = u2 - u3;
    // The +-i rotation is an exact re/im swap with one sign flip.
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
    const cplx u1 = cmul(w1, x1[i]);
    const cplx u2 = cmul(w2, x2[i]);
    const cplx u3 = cmul(w3, x3[i]);
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

/// scale_lanes's per-element multiply by each of the first `n_scales`
/// scales in turn (the vector tables' transpose edges run this too).
inline cplx scale_chain(cplx v, const cplx* scales, usize n_scales) {
  for (usize s = 0; s < n_scales; ++s) v = cmul(v, scales[s]);
  return v;
}

/// The element-copy edges of a blocked transpose: rows [r0, r1) x
/// cols [c0, c1) of the transpose_scale contract.
inline void transpose_scale_edge(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
                                 usize src_stride, usize r0, usize r1, usize c0, usize c1,
                                 const cplx* scales, usize n_scales) {
  for (usize c = c0; c < c1; ++c) {
    cplx* d = dst + (perm != nullptr ? perm[c] : c) * dst_stride;
    for (usize r = r0; r < r1; ++r) d[r] = scale_chain(src[r * src_stride + c], scales, n_scales);
  }
}

/// Moves 4x4 blocks through registers as 8-byte words (memcpy compiles to
/// plain loads and stores), so each side reads or writes four adjacent
/// elements at a time; scaled blocks run scale_chain per element.
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
  for (usize i = 0; i < n; ++i) dst[i] = cmul(src[i] * s, chirp[i]);
}

inline void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = cmul(src[i] * s, alpha);
}

inline void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in,
                                     const cplx* trans, real sigma, usize n) {
  for (usize i = 0; i < n; ++i) {
    const cplx gt = cmul_conj(g[i], psi_in[i]);
    const cplx ist(-sigma * trans[i].imag(), sigma * trans[i].real());
    grad_out[i] += cmul_conj(gt, ist);
    g[i] = cmul_conj(g[i], trans[i]);
  }
}

}  // namespace ptycho::backend::scalar
