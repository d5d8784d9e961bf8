// Fresnel (angular-spectrum) free-space propagation between slices.
//
// Propagation over one slice thickness dz is
//   psi <- IFFT( FFT(psi) * H ),   H(k) = exp(-i*pi*lambda*dz*|k|^2)
// with a 2/3-Nyquist band limit (standard multislice anti-aliasing).
// The adjoint (needed by the gradient engine) is the same sandwich with
// conj(H) — see the normalization argument in fft/plan.hpp. The H product
// rides inside an FFT call (Fft2D::forward_multiply / multiply_inverse)
// instead of a standalone full-field sweep, bitwise-identically.
#pragma once

#include "fft/fft2d.hpp"
#include "physics/grid.hpp"
#include "tensor/array.hpp"

namespace ptycho {

class Propagator {
 public:
  /// Kernel for one dz step on a probe_n x probe_n window.
  explicit Propagator(const OpticsGrid& grid);

  /// psi <- P(psi).
  void apply(View2D<cplx> psi) const;

  /// psi <- P^H(psi) (adjoint).
  void apply_adjoint(View2D<cplx> psi) const;

  [[nodiscard]] const CArray2D& kernel() const { return kernel_; }
  [[nodiscard]] const fft::Fft2D& fft() const { return fft_; }

 private:
  void apply_kernel(View2D<cplx> psi, bool conjugate) const;

  fft::Fft2D fft_;
  CArray2D kernel_;
};

}  // namespace ptycho
