#include "physics/propagator.hpp"

#include <cmath>

namespace ptycho {

Propagator::Propagator(const OpticsGrid& grid)
    : fft_(grid.probe_n, grid.probe_n),
      kernel_(static_cast<index_t>(grid.probe_n), static_cast<index_t>(grid.probe_n)) {
  const usize n = grid.probe_n;
  const double band_limit = (2.0 / 3.0) * grid.nyquist();
  for (usize iy = 0; iy < n; ++iy) {
    const double ky = grid.freq(iy);
    for (usize ix = 0; ix < n; ++ix) {
      const double kx = grid.freq(ix);
      const double k2 = kx * kx + ky * ky;
      if (std::sqrt(k2) > band_limit) {
        kernel_(static_cast<index_t>(iy), static_cast<index_t>(ix)) = cplx{};
        continue;
      }
      const double phase = -3.14159265358979323846 * grid.wavelength_pm * grid.dz_pm * k2;
      kernel_(static_cast<index_t>(iy), static_cast<index_t>(ix)) =
          cplx(static_cast<real>(std::cos(phase)), static_cast<real>(std::sin(phase)));
    }
  }
}

void Propagator::apply(View2D<cplx> psi) const { fft_.convolve(psi, kernel_.view()); }

void Propagator::apply_adjoint(View2D<cplx> psi) const {
  fft_.convolve(psi, kernel_.view(), /*conj_kernel=*/true);
}

}  // namespace ptycho
