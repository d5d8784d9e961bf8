// The scalar body of the backend primitives, written once as templates
// over a multiply policy `P`. The strict and fast (FMA) tables differ
// only in how one complex multiply rounds, so that is all a policy
// supplies:
//
//   P::cmul(a, b)        a * b
//   P::cmul_conj(a, b)   a * conj(b)
//   P::cmul_bcast(w, x)  w * x with one w shared by every lane of a call
//                        (scale factors, stage twiddles); the vector
//                        bodies broadcast it, and the fused sequence is
//                        defined with w as the first factor.
//
// ScalarKernels<P> is the whole "scalar" / "scalar-fma" table and the
// remainder-lane loop of every vector table built on the same rounding
// (vector_impl.hpp), so a vector kernel's tail runs exactly its scalar
// table's sequence. StrictScalar below is the strict policy; the fused
// policies live in kernels_fma.cpp. make_table() turns any body into the
// 13-entry Kernels table.
//
// ODR rule, for this header and vector_impl.hpp: everything sits in an
// unnamed namespace, and so does every policy. Each including TU compiles
// its own private copy under its own flags, so a body compiled in
// kernels_fma.cpp (-mfma) can never be linked into a strict table.
// Internal to src/backend/ — include nowhere else.
#pragma once

#include <cstdint>
#include <cstring>

#include "backend/kernels.hpp"
#include "common/types.hpp"

namespace ptycho::backend {
namespace {

/// Unfused rounding: a rounded product per term, then a rounded add/sub
/// (the TUs that instantiate it build with -ffp-contract=off). The arithmetic of
/// ptycho::cmul / cmul_conj, spelled here so that no function with
/// external linkage is compiled under the backend's flags.
struct StrictScalar {
  static cplx cmul(cplx a, cplx b) {
    return cplx(a.real() * b.real() - a.imag() * b.imag(),
                a.real() * b.imag() + a.imag() * b.real());
  }
  static cplx cmul_conj(cplx a, cplx b) {
    return cplx(a.real() * b.real() + a.imag() * b.imag(),
                a.imag() * b.real() - a.real() * b.imag());
  }
  static cplx cmul_bcast(cplx w, cplx x) { return cmul(w, x); }
};

template <class P>
struct ScalarKernels {
  static void cmul_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] = P::cmul(a[i], b[i]);
  }

  static void cmul_conj_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] = P::cmul_conj(a[i], b[i]);
  }

  static void cmul_conj_acc_lanes(cplx* dst, const cplx* a, const cplx* b, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] += P::cmul_conj(a[i], b[i]);
  }

  static void scale_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] = P::cmul_bcast(alpha, src[i]);
  }

  static void axpy_lanes(cplx* dst, const cplx* src, cplx alpha, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] += P::cmul_bcast(alpha, src[i]);
  }

  static void conj_scale_lanes(cplx* dst, const cplx* src, real s, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] = std::conj(src[i]) * s;
  }

  static void butterfly4_block(cplx* x0, cplx* x1, cplx* x2, cplx* x3, const cplx* tw1,
                               const cplx* tw2, const cplx* tw3, bool conj_tw, usize n) {
    for (usize i = 0; i < n; ++i) {
      const cplx w1 = conj_tw ? std::conj(tw1[i]) : tw1[i];
      const cplx w2 = conj_tw ? std::conj(tw2[i]) : tw2[i];
      const cplx w3 = conj_tw ? std::conj(tw3[i]) : tw3[i];
      const cplx u1 = P::cmul(w1, x1[i]);
      const cplx u2 = P::cmul(w2, x2[i]);
      const cplx u3 = P::cmul(w3, x3[i]);
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

  /// One shared-twiddle butterfly over four lane rows (the body of a stage).
  static void butterfly4_lanes(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2,
                               cplx w3, bool conj_rot, usize n) {
    for (usize i = 0; i < n; ++i) {
      const cplx u1 = P::cmul_bcast(w1, x1[i]);
      const cplx u2 = P::cmul_bcast(w2, x2[i]);
      const cplx u3 = P::cmul_bcast(w3, x3[i]);
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

  /// scale_lanes's per-element multiply by each of the first `n_scales`
  /// scales in turn (the vector tables' transpose edges run this too).
  static cplx scale_chain(cplx v, const cplx* scales, usize n_scales) {
    for (usize s = 0; s < n_scales; ++s) v = P::cmul_bcast(scales[s], v);
    return v;
  }

  /// The element-copy edges of a blocked transpose: rows [r0, r1) x
  /// cols [c0, c1) of the transpose_scale contract.
  static void transpose_scale_edge(cplx* dst, usize dst_stride, const usize* perm,
                                   const cplx* src, usize src_stride, usize r0, usize r1,
                                   usize c0, usize c1, const cplx* scales, usize n_scales) {
    for (usize c = c0; c < c1; ++c) {
      cplx* d = dst + (perm != nullptr ? perm[c] : c) * dst_stride;
      for (usize r = r0; r < r1; ++r) d[r] = scale_chain(src[r * src_stride + c], scales, n_scales);
    }
  }

  /// Moves 4x4 blocks through registers as 8-byte words (memcpy compiles
  /// to plain loads and stores), so each side reads or writes four
  /// adjacent elements at a time; scaled blocks run scale_chain per element.
  static void transpose_scale(cplx* dst, usize dst_stride, const usize* perm, const cplx* src,
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

  static void cmul_rows_tiled(cplx* dst, usize dst_stride, const cplx* a, usize a_stride,
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

  static void chirp_mul_lanes(cplx* dst, const cplx* src, const cplx* chirp, real s, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] = P::cmul(src[i] * s, chirp[i]);
  }

  static void scale_chirp_lanes(cplx* dst, const cplx* src, real s, cplx alpha, usize n) {
    for (usize i = 0; i < n; ++i) dst[i] = P::cmul_bcast(alpha, src[i] * s);
  }

  static void potential_backprop_lanes(cplx* grad_out, cplx* g, const cplx* psi_in,
                                       const cplx* trans, real sigma, usize n) {
    for (usize i = 0; i < n; ++i) {
      const cplx gt = P::cmul_conj(g[i], psi_in[i]);
      const cplx ist(-sigma * trans[i].imag(), sigma * trans[i].real());
      grad_out[i] += P::cmul_conj(gt, ist);
      g[i] = P::cmul_conj(g[i], trans[i]);
    }
  }
};

/// The butterfly4_stage entry of every table: the (base, k) walk of one
/// radix-4 stage, running `Body::butterfly4_lanes` (one shared-twiddle
/// butterfly over four lane rows) per twiddle triple.
template <class Body>
void butterfly4_stage(cplx* data, usize n, usize stride, usize count, usize h, const cplx* tw,
                      bool conj_tw) {
  for (usize base = 0; base < n; base += 4 * h) {
    for (usize k = 0; k < h; ++k) {
      const cplx w1 = conj_tw ? std::conj(tw[k]) : tw[k];
      const cplx w2 = conj_tw ? std::conj(tw[h + k]) : tw[h + k];
      const cplx w3 = conj_tw ? std::conj(tw[2 * h + k]) : tw[2 * h + k];
      cplx* p0 = data + (base + k) * stride;
      Body::butterfly4_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride, w1,
                             w2, w3, conj_tw, count);
    }
  }
}

/// The Kernels table of one body (ScalarKernels<P> or VectorKernels<P>).
template <class Impl>
constexpr Kernels make_table(const char* name) {
  return {name,
          Impl::cmul_lanes,
          Impl::cmul_conj_lanes,
          Impl::cmul_conj_acc_lanes,
          Impl::scale_lanes,
          Impl::axpy_lanes,
          Impl::conj_scale_lanes,
          Impl::butterfly4_block,
          butterfly4_stage<Impl>,
          Impl::transpose_scale,
          Impl::cmul_rows_tiled,
          Impl::chirp_mul_lanes,
          Impl::scale_chirp_lanes,
          Impl::potential_backprop_lanes};
}

}  // namespace
}  // namespace ptycho::backend
