// Bluestein's chirp-z transform is implemented inside Plan1D (fft/plan.cpp),
// where its padded power-of-two convolution runs through the same radix-4
// kernel as the power-of-two plans. This file carries the standalone
// reference DFT used by tests and by the plan self-check utility.
#include <cmath>
#include <vector>

#include "fft/reference.hpp"

namespace ptycho::fft {

std::vector<cplx> reference_dft(const std::vector<cplx>& input, int sign) {
  const usize n = input.size();
  std::vector<cplx> out(n, cplx{});
  const double base = sign * 2.0 * 3.14159265358979323846 / static_cast<double>(n);
  for (usize k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (usize j = 0; j < n; ++j) {
      const double angle = base * static_cast<double>((j * k) % n);
      acc += std::complex<double>(input[j]) * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = cplx(static_cast<real>(acc.real()), static_cast<real>(acc.imag()));
  }
  return out;
}

}  // namespace ptycho::fft
