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
