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

void Propagator::apply_kernel(View2D<cplx> psi, bool conjugate) const {
  // The H (or conj H) product rides in an FFT call: `apply` folds it in
  // after the forward's column pass, `apply_adjoint` before the inverse's,
  // so both fused entry points stay hot in the per-probe loop. Results are
  // bitwise identical to the composed forward / multiply / inverse.
  if (conjugate) {
    fft_.forward(psi);
    fft_.multiply_inverse(kernel_.view(), psi, /*conj_kernel=*/true);
  } else {
    fft_.forward_multiply(psi, kernel_.view());
    fft_.inverse(psi);
  }
}

void Propagator::apply(View2D<cplx> psi) const { apply_kernel(psi, false); }

void Propagator::apply_adjoint(View2D<cplx> psi) const { apply_kernel(psi, true); }

}  // namespace ptycho
