// GradientEngine: per-probe cost/gradient evaluation bound to a dataset.
//
// This is the compute kernel of Alg. 1 step 6: given the current tile
// volume V_k, evaluate f_i = (|y_i| - |G(p_i, V_k)|)^2 and its gradient
// over the probe window. One engine per rank (each "GPU" owns its FFT
// plans, like a cuFFT handle per device).
#pragma once

#include "data/dataset.hpp"

namespace ptycho {

class GradientEngine {
 public:
  explicit GradientEngine(const Dataset& dataset)
      : dataset_(dataset), op_(dataset.spec.grid, dataset.spec.model) {}

  [[nodiscard]] const Dataset& dataset() const { return dataset_; }
  [[nodiscard]] const MultisliceOperator& op() const { return op_; }

  /// Global rect of probe i's window.
  [[nodiscard]] const Rect& window(index_t probe_id) const {
    return dataset_.scan[probe_id].window;
  }

  /// ePIE-style step preconditioner: solvers scale the configured step by
  /// this (1 / max probe intensity) so update magnitudes are independent
  /// of grid and probe size.
  [[nodiscard]] real step_scale() const {
    return static_cast<real>(1.0 / dataset_.probe.max_intensity());
  }

  [[nodiscard]] MultisliceWorkspace make_workspace(
      compact::Format compact_trans = compact::Format::kNone) const {
    return MultisliceWorkspace(static_cast<index_t>(dataset_.spec.grid.probe_n),
                               dataset_.spec.slices, compact_trans);
  }

  /// f_i plus gradient accumulation into `grad` over the window, for an
  /// explicit probe (the dataset's, or a refined one) and an explicit
  /// measurement (the dataset's frame, or a decoded compact copy). The
  /// probe gradient is accumulated into `probe_grad` when non-null (probe
  /// refinement).
  double probe_gradient_joint(index_t probe_id, const Probe& probe,
                              View2D<const real> measurement, const FramedVolume& volume,
                              FramedVolume& grad, MultisliceWorkspace& ws,
                              View2D<cplx>* probe_grad = nullptr) const {
    return op_.cost_and_gradient(probe, volume, window(probe_id), measurement, grad, ws,
                                 probe_grad);
  }

  /// f_i only.
  double probe_cost(index_t probe_id, const FramedVolume& volume,
                    MultisliceWorkspace& ws) const {
    return op_.cost(dataset_.probe, volume, window(probe_id), dataset_.frame(probe_id).view(),
                    ws);
  }

 private:
  const Dataset& dataset_;
  MultisliceOperator op_;
};

}  // namespace ptycho
