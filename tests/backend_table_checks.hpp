// Bitwise table-vs-table checks for the backend's multi-row entries (the
// radix-4 stage, the scaled transpose and the row-tiled multiply), shared
// by the strict scalar == SIMD tests (test_backend.cpp) and the fast-tier
// scalar-fma == vector-fma tests (test_precision.cpp).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "backend/kernels.hpp"
#include "common/random.hpp"

namespace ptycho::testing {

inline std::vector<cplx> random_cplx(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  return v;
}

inline bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

/// butterfly4_stage on tables `a` and `b`: every stage length h of
/// n = 4..64 (both log2 parities), odd and vector-multiple lane counts,
/// dense and padded strides, a one-element misalignment, both twiddle
/// directions. Whole buffers are compared, so lanes past `count` must be
/// left untouched too.
inline void expect_stage_tables_equal(const backend::Kernels& a, const backend::Kernels& b) {
  for (const usize n : {usize{4}, usize{8}, usize{16}, usize{32}, usize{64}}) {
    for (usize h = 1; 4 * h <= n; h *= 2) {
      const std::vector<cplx> tw = random_cplx(3 * h, 101 * n + h);
      for (const usize count : {usize{1}, usize{3}, usize{4}, usize{7}, usize{8}, usize{13}}) {
        for (const usize stride : {count, count + 3}) {
          for (const usize offset : {usize{0}, usize{1}}) {
            for (const bool conj_tw : {false, true}) {
              const std::vector<cplx> data = random_cplx(offset + n * stride, 7 * count + n);
              std::vector<cplx> out_a = data;
              std::vector<cplx> out_b = data;
              a.butterfly4_stage(out_a.data() + offset, n, stride, count, h, tw.data(), conj_tw);
              b.butterfly4_stage(out_b.data() + offset, n, stride, count, h, tw.data(), conj_tw);
              EXPECT_TRUE(same_bits(out_a, out_b))
                  << a.name << " vs " << b.name << ": n=" << n << " h=" << h
                  << " count=" << count << " stride=" << stride << " offset=" << offset
                  << " conj=" << conj_tw;
            }
          }
        }
      }
    }
  }
}

/// transpose_scale on tables `a` and `b`: ragged and block-multiple
/// shapes, padded strides on both sides, misaligned source and
/// destination, permutation on and off, 0, 1 and 2 scales. The
/// destination starts from random content, so stray writes show.
inline void expect_transpose_tables_equal(const backend::Kernels& a, const backend::Kernels& b) {
  const cplx scales[2] = {cplx(real(0.37), real(-1.21)), cplx(real(1) / real(64), 0)};
  for (const usize rows : {usize{1}, usize{3}, usize{4}, usize{5}, usize{8}, usize{13}}) {
    for (const usize cols : {usize{1}, usize{4}, usize{7}, usize{8}, usize{16}}) {
      // A permutation of the destination rows (one per source column).
      std::vector<usize> perm(cols);
      std::iota(perm.begin(), perm.end(), usize{0});
      std::reverse(perm.begin(), perm.end());
      if (cols > 2) std::swap(perm[0], perm[cols / 2]);
      const usize src_stride = cols + 2;
      const usize dst_stride = rows + 3;
      for (const usize offset : {usize{0}, usize{1}}) {
        const std::vector<cplx> src = random_cplx(offset + rows * src_stride, 13 * rows + cols);
        const std::vector<cplx> dst0 = random_cplx(offset + cols * dst_stride, 17 * rows + cols);
        for (const bool permute : {false, true}) {
          for (const usize n_scales : {usize{0}, usize{1}, usize{2}}) {
            std::vector<cplx> out_a = dst0;
            std::vector<cplx> out_b = dst0;
            const usize* p = permute ? perm.data() : nullptr;
            a.transpose_scale(out_a.data() + offset, dst_stride, p, src.data() + offset,
                              src_stride, rows, cols, scales, n_scales);
            b.transpose_scale(out_b.data() + offset, dst_stride, p, src.data() + offset,
                              src_stride, rows, cols, scales, n_scales);
            EXPECT_TRUE(same_bits(out_a, out_b))
                << a.name << " vs " << b.name << ": " << rows << "x" << cols
                << " offset=" << offset << " perm=" << permute << " scales=" << n_scales;
          }
        }
      }
    }
  }
}

/// cmul_rows_tiled on tables `a` and `b`: 5-row tiles whose widths cover
/// sub-width rows, vector multiples and tails, a distinct stride per
/// operand, both conj_b values, and the aliased in-place form (dst == a).
/// Whole buffers are compared, so the stride gaps must stay untouched.
inline void expect_rows_tiled_tables_equal(const backend::Kernels& a, const backend::Kernels& b) {
  const usize rows = 5;
  for (const usize cols : {usize{0}, usize{1}, usize{2}, usize{3}, usize{4}, usize{5}, usize{7},
                           usize{8}, usize{15}, usize{16}, usize{100}, usize{257}}) {
    for (const bool conj_b : {false, true}) {
      const usize dst_stride = cols + 2;
      const usize x_stride = cols + 3;
      const usize y_stride = cols + 1;
      const std::vector<cplx> x = random_cplx(rows * x_stride + 1, 73 * cols + 1);
      const std::vector<cplx> y = random_cplx(rows * y_stride + 1, 73 * cols + 2);
      const std::vector<cplx> dst0 = random_cplx(rows * dst_stride + 1, 73 * cols + 3);
      std::vector<cplx> out_a = dst0;
      std::vector<cplx> out_b = dst0;
      a.cmul_rows_tiled(out_a.data(), dst_stride, x.data(), x_stride, y.data(), y_stride, conj_b,
                        rows, cols);
      b.cmul_rows_tiled(out_b.data(), dst_stride, x.data(), x_stride, y.data(), y_stride, conj_b,
                        rows, cols);
      EXPECT_TRUE(same_bits(out_a, out_b))
          << a.name << " vs " << b.name << ": cols=" << cols << " conj=" << conj_b;
      std::vector<cplx> alias_a = dst0;
      std::vector<cplx> alias_b = dst0;
      a.cmul_rows_tiled(alias_a.data(), dst_stride, alias_a.data(), dst_stride, y.data(),
                        y_stride, conj_b, rows, cols);
      b.cmul_rows_tiled(alias_b.data(), dst_stride, alias_b.data(), dst_stride, y.data(),
                        y_stride, conj_b, rows, cols);
      EXPECT_TRUE(same_bits(alias_a, alias_b))
          << a.name << " vs " << b.name << ": aliased cols=" << cols << " conj=" << conj_b;
    }
  }
}

/// The transpose_scale contract on one table: the scaled, permuted
/// transpose equals a plain element-by-element transpose followed by the
/// table's own scale_lanes, once per scale.
inline void expect_transpose_matches_scale_lanes(const backend::Kernels& k) {
  const cplx scales[2] = {cplx(real(0.37), real(-1.21)), cplx(real(1) / real(64), 0)};
  for (const usize rows : {usize{3}, usize{8}, usize{13}}) {
    for (const usize cols : {usize{4}, usize{7}, usize{16}}) {
      std::vector<usize> perm(cols);
      std::iota(perm.begin(), perm.end(), usize{0});
      std::reverse(perm.begin(), perm.end());
      const std::vector<cplx> src = random_cplx(rows * cols, 19 * rows + cols);
      for (const usize n_scales : {usize{0}, usize{1}, usize{2}}) {
        std::vector<cplx> expected(cols * rows);
        for (usize r = 0; r < rows; ++r) {
          for (usize c = 0; c < cols; ++c) expected[perm[c] * rows + r] = src[r * cols + c];
        }
        for (usize s = 0; s < n_scales; ++s) {
          k.scale_lanes(expected.data(), expected.data(), scales[s], expected.size());
        }
        std::vector<cplx> out(cols * rows);
        k.transpose_scale(out.data(), rows, perm.data(), src.data(), cols, rows, cols, scales,
                          n_scales);
        EXPECT_TRUE(same_bits(out, expected))
            << k.name << ": " << rows << "x" << cols << " scales=" << n_scales;
      }
    }
  }
}

}  // namespace ptycho::testing
