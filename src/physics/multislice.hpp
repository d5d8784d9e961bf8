// The multi-slice forward operator G(p_i, V) of Eqn. (1) and its adjoint.
//
// Forward (Maiden/Humphry/Rodenburg 2012, ref [14] of the paper):
//   psi_0 = probe;   for each slice s:  psi <- Prop( psi .* t_s )
//   far field Psi = FFT(psi_S);  simulated magnitudes |Psi|.
// The per-probe cost is f_i(V) = sum_k ( |y_i[k]| - |Psi[k]| )^2 and the
// gradient dF/dV is obtained by reverse-mode differentiation through the
// slice chain. The gradient has support only inside the probe window —
// the "special property" (Sec. III) the whole decomposition rests on.
#pragma once

#include <cstdint>
#include <vector>

#include "physics/probe.hpp"
#include "physics/propagator.hpp"
#include "tensor/framed.hpp"
#include "tensor/ops.hpp"

namespace ptycho {

/// How the complex volume V parameterizes the per-slice transmittance.
enum class ObjectModel {
  kTransmittance,  ///< t_s = V_s directly (V is the complex transmittance)
  kPotential,      ///< t_s = exp(i * sigma * V_s) (V is the scattering potential)
};

/// Reusable per-thread buffers for one probe evaluation; sized for a given
/// probe window and slice count. Keeping these out of the operator makes
/// the operator shareable across ranks.
struct MultisliceWorkspace {
  CArray2D psi;                    ///< current wavefield (probe_n x probe_n)
  std::vector<CArray2D> psi_in;    ///< wavefield entering each slice (pre-multiply)
  std::vector<CArray2D> trans;     ///< kPotential transmittance of each slice (lazily sized)
  CArray2D far;                    ///< far-field wavefield FFT(psi_S)
  CArray2D grad;                   ///< backprop wavefield
  CArray2D scratch;

  /// Opt-in transmittance cache for ObjectModel::kPotential: when enabled,
  /// compute_transmittance skips the per-slice exp/cos/sin rebuild if the
  /// same (volume revision, window) repeats. Enable only on paths where
  /// every volume mutation between evaluations goes through apply_gradient
  /// (which bumps the revision) — the solver sweep loops qualify; ad-hoc
  /// voxel pokes in tests do not.
  bool cache_transmittance = false;
  std::uint64_t trans_revision = 0;  ///< revision ws.trans was built from (0 = none)
  Rect trans_window{};               ///< window ws.trans was built for

  MultisliceWorkspace() = default;
  MultisliceWorkspace(index_t probe_n, index_t slices);
};

/// One workspace per execution slot of a sweep's thread pool. The pool is
/// sized once (on the constructing thread, so per-rank memory tracking
/// charges every buffer to the owning rank) and handed out by slot index —
/// workspace identity follows the slot, not the item, which is safe
/// because a workspace is pure scratch: per-item results never depend on
/// which slot (and therefore which workspace) evaluated them.
class WorkspacePool {
 public:
  WorkspacePool(index_t probe_n, index_t slices, int slots, bool cache_transmittance);

  [[nodiscard]] int slots() const { return static_cast<int>(workspaces_.size()); }
  [[nodiscard]] MultisliceWorkspace& operator[](int slot) {
    return workspaces_[static_cast<usize>(slot)];
  }

 private:
  std::vector<MultisliceWorkspace> workspaces_;
};

/// |z| in double as the cost and the gradient seed compute it, once per
/// far-field pixel: sqrt(re^2 + im^2) over the widened parts (the squares
/// are exact; the sum and the sqrt round once each), at a fraction of the
/// cost of the double hypot (std::abs of a complex<double>). Non-finite
/// results (inf or NaN parts) fall back to that std::abs. The cost term
/// (|Psi| - |y|)^2 therefore may differ from a hypot-based one in the last
/// double ulp (the two disagree on a few percent of float inputs); cost()
/// and cost_and_gradient() share this formula and agree bitwise.
[[nodiscard]] double far_magnitude(cplx z);

/// |z| as the gradient seed computes it: far_magnitude(z) rounded to real,
/// which is what glibc's hypotf returns for finite input. Non-finite
/// results (inf or NaN parts, or a magnitude past the float range) fall
/// back to std::abs, so on glibc the value is bitwise std::abs(z) for
/// every input (tests/test_physics.cpp checks the edge cases).
[[nodiscard]] real seed_magnitude(cplx z);

struct MultisliceConfig {
  ObjectModel model = ObjectModel::kTransmittance;
  real sigma = real(1);  ///< interaction constant for ObjectModel::kPotential
};

class MultisliceOperator {
 public:
  MultisliceOperator(const OpticsGrid& grid, MultisliceConfig config = {});

  [[nodiscard]] const OpticsGrid& grid() const { return grid_; }
  [[nodiscard]] const MultisliceConfig& config() const { return config_; }
  [[nodiscard]] const Propagator& propagator() const { return propagator_; }

  /// Run the forward model for the probe positioned at global rect
  /// `window` (probe_n x probe_n, inside V.frame). Leaves the far-field
  /// wavefield in ws.far and the stored intermediates for backprop.
  void forward(const Probe& probe, const FramedVolume& volume, const Rect& window,
               MultisliceWorkspace& ws) const;

  /// Simulated magnitudes |G(p, V)| into `out` (probe_n x probe_n).
  void simulate_magnitude(const Probe& probe, const FramedVolume& volume, const Rect& window,
                          MultisliceWorkspace& ws, View2D<real> out) const;

  /// Cost f_i for measured magnitudes `y_mag` (requires a prior forward()).
  [[nodiscard]] double cost_from_far(View2D<const real> y_mag,
                                     const MultisliceWorkspace& ws) const;

  /// Full evaluation: forward + cost + gradient. The gradient of f_i with
  /// respect to V is *added* into `grad_out` over `window` (same frame
  /// semantics as `volume`). If `probe_grad_out` is non-null, the gradient
  /// of f_i with respect to the probe wavefield is *added* into it (the
  /// backpropagated wavefield entering slice 0 — joint object+probe
  /// refinement comes for free from the adjoint chain). Returns f_i.
  double cost_and_gradient(const Probe& probe, const FramedVolume& volume, const Rect& window,
                           View2D<const real> y_mag, FramedVolume& grad_out,
                           MultisliceWorkspace& ws,
                           View2D<cplx>* probe_grad_out = nullptr) const;

  /// Cost only (cheaper: no intermediates retained beyond the forward).
  double cost(const Probe& probe, const FramedVolume& volume, const Rect& window,
              View2D<const real> y_mag, MultisliceWorkspace& ws) const;

 private:
  /// Fill ws.trans[s] from the volume window. A no-op for kTransmittance.
  void compute_transmittance(const FramedVolume& volume, const Rect& window,
                             MultisliceWorkspace& ws) const;

  /// Slice transmittance for use in the forward/adjoint chain: the volume
  /// window itself (kTransmittance) or the plane ws.trans[s] (kPotential).
  [[nodiscard]] View2D<const cplx> slice_transmittance(const FramedVolume& volume,
                                                       const Rect& window,
                                                       const MultisliceWorkspace& ws,
                                                       index_t s) const;

  OpticsGrid grid_;
  MultisliceConfig config_;
  Propagator propagator_;
};

}  // namespace ptycho
