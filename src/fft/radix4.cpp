// The power-of-two FFT kernel: an iterative decimation-in-time transform
// over bit-reversal-ordered data whose radix-2 stages run fused in pairs.
// Two consecutive radix-2 stages (half-lengths h and 2h) form one radix-4
// butterfly sweep: each element is loaded and stored once per pair of
// stages instead of twice, and the trivial +-i twiddle of the second stage
// becomes an exact re/im swap, cutting the complex multiplies from four to
// three per four points.
#include <cmath>
#include <utility>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "fft/plan.hpp"

namespace ptycho::fft::detail {

std::vector<usize> make_bitrev(usize n) {
  PTYCHO_CHECK(is_pow2(n), "bitrev requires a power-of-two size");
  std::vector<usize> rev(n, 0);
  usize bits = 0;
  while ((usize(1) << bits) < n) ++bits;
  for (usize i = 0; i < n; ++i) {
    usize r = 0;
    for (usize b = 0; b < bits; ++b) {
      if ((i >> b) & 1u) r |= usize(1) << (bits - 1 - b);
    }
    rev[i] = r;
  }
  return rev;
}

namespace {
/// Bit-reversal permutation of `count` interleaved signals (layout of
/// radix4_transform_strided): swaps whole lane rows once per pair.
void bitrev_permute_strided(cplx* data, usize n, usize stride, usize count,
                            const std::vector<usize>& bitrev) {
  for (usize i = 0; i < n; ++i) {
    const usize j = bitrev[i];
    if (i < j) {
      cplx* a = data + i * stride;
      cplx* b = data + j * stride;
      for (usize lane = 0; lane < count; ++lane) std::swap(a[lane], b[lane]);
    }
  }
}

cplx unit_root(double numerator, double denominator) {
  const double angle = -2.0 * 3.14159265358979323846 * numerator / denominator;
  return cplx(static_cast<real>(std::cos(angle)), static_cast<real>(std::sin(angle)));
}
}  // namespace

Radix4Tables make_radix4_tables(usize n) {
  PTYCHO_CHECK(is_pow2(n), "radix-4 tables require a power-of-two size");
  Radix4Tables r4;
  usize bits = 0;
  while ((usize(1) << bits) < n) ++bits;
  r4.leading_radix2 = (bits % 2) != 0;
  usize h = r4.leading_radix2 ? 2 : 1;
  for (; 4 * h <= n; h *= 4) {
    r4.stages.push_back({h, r4.tw.size()});
    r4.tw.resize(r4.tw.size() + 3 * h);
    cplx* w1 = r4.tw.data() + r4.stages.back().offset;
    cplx* w2 = w1 + h;
    cplx* w3 = w2 + h;
    for (usize k = 0; k < h; ++k) {
      const auto dk = static_cast<double>(k);
      const auto d4h = static_cast<double>(4 * h);
      w1[k] = unit_root(2.0 * dk, d4h);
      w2[k] = unit_root(dk, d4h);
      w3[k] = unit_root(3.0 * dk, d4h);
    }
  }
  return r4;
}

void radix4_transform(cplx* data, usize n, int sign, const std::vector<usize>& bitrev,
                      const Radix4Tables& r4) {
  for (usize i = 0; i < n; ++i) {
    const usize j = bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const bool conj_tw = sign > 0;
  const backend::Kernels& kern = backend::kernels();
  if (r4.leading_radix2) {
    // Odd log2: one radix-2 stage at half-length 1. Its twiddle is exp(0),
    // so the butterfly is a pure add/sub pair — no multiply at all.
    for (usize base = 0; base < n; base += 2) {
      const cplx u = data[base];
      const cplx t = data[base + 1];
      data[base] = u + t;
      data[base + 1] = u - t;
    }
  }
  for (const Radix4Tables::Stage& st : r4.stages) {
    const usize h = st.h;
    const cplx* tw1 = r4.tw.data() + st.offset;
    const cplx* tw2 = tw1 + h;
    const cplx* tw3 = tw2 + h;
    if (h < 4) {
      // Blocks below any vector width (these hold most of the blocks): run
      // the backend butterfly4 operation sequence inline to spare the
      // dispatch overhead. The per-element arithmetic is identical, so the
      // result does not depend on the selected backend.
      for (usize base = 0; base < n; base += 4 * h) {
        for (usize k = 0; k < h; ++k) {
          const cplx w1 = conj_tw ? std::conj(tw1[k]) : tw1[k];
          const cplx w2 = conj_tw ? std::conj(tw2[k]) : tw2[k];
          const cplx w3 = conj_tw ? std::conj(tw3[k]) : tw3[k];
          cplx* p0 = data + base + k;
          const cplx u1 = cmul(w1, p0[h]);
          const cplx u2 = cmul(w2, p0[2 * h]);
          const cplx u3 = cmul(w3, p0[3 * h]);
          const cplx z = p0[0];
          const cplx s0 = z + u1;
          const cplx s1 = z - u1;
          const cplx s2 = u2 + u3;
          const cplx s3 = u2 - u3;
          const cplx r = conj_tw ? cplx(-s3.imag(), s3.real()) : cplx(s3.imag(), -s3.real());
          p0[0] = s0 + s2;
          p0[2 * h] = s0 - s2;
          p0[h] = s1 + r;
          p0[3 * h] = s1 - r;
        }
      }
      continue;
    }
    for (usize base = 0; base < n; base += 4 * h) {
      kern.butterfly4_block(data + base, data + base + h, data + base + 2 * h,
                            data + base + 3 * h, tw1, tw2, tw3, conj_tw, h);
    }
  }
}

void radix4_transform_strided(cplx* data, usize n, usize stride, usize count, int sign,
                              const std::vector<usize>& bitrev, const Radix4Tables& r4,
                              bool input_bitrev) {
  if (!input_bitrev) bitrev_permute_strided(data, n, stride, count, bitrev);
  const bool conj_tw = sign > 0;
  const backend::Kernels& kern = backend::kernels();
  if (r4.leading_radix2) {
    // The same multiply-free add/sub pairs as the contiguous path — not a
    // unit-twiddle cmul, whose 0*x terms would flip signed zeros and break
    // bitwise parity between the lane-major and contiguous transforms. The
    // plain add/sub loop over the contiguous lane dimension auto-vectorizes.
    for (usize base = 0; base < n; base += 2) {
      cplx* a = data + base * stride;
      cplx* b = data + (base + 1) * stride;
      for (usize lane = 0; lane < count; ++lane) {
        const cplx u = a[lane];
        const cplx t = b[lane];
        a[lane] = u + t;
        b[lane] = u - t;
      }
    }
  }
  // Each (base, k) pair is one shared-twiddle butterfly over four lane rows.
  for (const Radix4Tables::Stage& st : r4.stages) {
    const usize h = st.h;
    const cplx* tw1 = r4.tw.data() + st.offset;
    const cplx* tw2 = tw1 + h;
    const cplx* tw3 = tw2 + h;
    for (usize base = 0; base < n; base += 4 * h) {
      for (usize k = 0; k < h; ++k) {
        cplx w1 = tw1[k];
        cplx w2 = tw2[k];
        cplx w3 = tw3[k];
        if (conj_tw) {
          w1 = std::conj(w1);
          w2 = std::conj(w2);
          w3 = std::conj(w3);
        }
        cplx* p0 = data + (base + k) * stride;
        kern.butterfly4_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride, w1,
                              w2, w3, conj_tw, count);
      }
    }
  }
}

}  // namespace ptycho::fft::detail
