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

std::vector<cplx> make_twiddles(usize n) {
  // Layout: stage with half-length L contributes L entries starting at
  // offset L-1 (i.e. offsets 0,1,3,7,... for L=1,2,4,8,...). Entry k at
  // stage L is exp(-2πi k / (2L)). Total n-1 entries.
  std::vector<cplx> tw(n > 0 ? n - 1 : 0);
  for (usize half = 1; half < n; half *= 2) {
    const double step = -2.0 * 3.14159265358979323846 / static_cast<double>(2 * half);
    for (usize k = 0; k < half; ++k) {
      const double angle = step * static_cast<double>(k);
      tw[half - 1 + k] = cplx(static_cast<real>(std::cos(angle)),
                              static_cast<real>(std::sin(angle)));
    }
  }
  return tw;
}

void radix2_transform(cplx* data, usize n, int sign, const std::vector<usize>& bitrev,
                      const std::vector<cplx>& twiddles_fwd) {
  // Bit-reversal permutation (swap once per pair).
  for (usize i = 0; i < n; ++i) {
    const usize j = bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Butterfly stages: each (stage, base) pair is one contiguous block with
  // per-lane twiddles, dispatched through the active kernel backend.
  const backend::Kernels& kern = backend::kernels();
  for (usize half = 1; half < n; half *= 2) {
    const cplx* tw = twiddles_fwd.data() + (half - 1);
    if (half < 4) {
      // The two smallest stages hold 3/4 of all blocks but are below any
      // vector width; run them inline to spare the dispatch overhead.
      // The per-element sequence is the backend butterfly_block one, so
      // the result does not depend on the selected backend.
      for (usize base = 0; base < n; base += 2 * half) {
        for (usize k = 0; k < half; ++k) {
          cplx w = tw[k];
          if (sign > 0) w = std::conj(w);
          const cplx t = cmul(w, data[base + k + half]);
          const cplx u = data[base + k];
          data[base + k] = u + t;
          data[base + k + half] = u - t;
        }
      }
      continue;
    }
    for (usize base = 0; base < n; base += 2 * half) {
      kern.butterfly_block(data + base, data + base + half, tw, sign > 0, half);
    }
  }
}

void bitrev_permute_strided(cplx* data, usize n, usize stride, usize count,
                            const std::vector<usize>& bitrev) {
  // Swap whole lane rows once per pair.
  for (usize i = 0; i < n; ++i) {
    const usize j = bitrev[i];
    if (i < j) {
      cplx* a = data + i * stride;
      cplx* b = data + j * stride;
      for (usize lane = 0; lane < count; ++lane) std::swap(a[lane], b[lane]);
    }
  }
}

void radix2_transform_strided(cplx* data, usize n, usize stride, usize count, int sign,
                              const std::vector<usize>& bitrev,
                              const std::vector<cplx>& twiddles_fwd, bool input_bitrev) {
  if (!input_bitrev) bitrev_permute_strided(data, n, stride, count, bitrev);
  // Butterfly stages; the lane dimension is contiguous, so each (base, k)
  // pair is one shared-twiddle butterfly block across the batch.
  const backend::Kernels& kern = backend::kernels();
  for (usize half = 1; half < n; half *= 2) {
    const cplx* tw = twiddles_fwd.data() + (half - 1);
    for (usize base = 0; base < n; base += 2 * half) {
      for (usize k = 0; k < half; ++k) {
        cplx w = tw[k];
        if (sign > 0) w = std::conj(w);
        kern.butterfly_lanes(data + (base + k) * stride, data + (base + k + half) * stride, w,
                             count);
      }
    }
  }
}

}  // namespace ptycho::fft::detail
