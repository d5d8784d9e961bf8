// High-level facade: one entry point that dispatches to the serial,
// Gradient Decomposition or Halo Voxel Exchange solver. This is the API
// the examples and the quickstart use.
#pragma once

#include <string>
#include <vector>

#include "core/halo_voxel_exchange.hpp"
#include "core/serial_solver.hpp"

namespace ptycho {

enum class Method {
  kSerial,
  kGradientDecomposition,
  kHaloVoxelExchange,
};

[[nodiscard]] const char* to_string(Method method);

struct ReconstructionRequest {
  Method method = Method::kGradientDecomposition;
  int nranks = 4;                ///< ignored for kSerial
  int iterations = 10;           ///< TOTAL iterations (a restore continues toward this)
  real step = real(0.1);
  int passes_per_iteration = 1;  ///< GD comm frequency / serial chunks
  /// Execution knobs — threads, checkpoint policy,
  /// trace/metrics sinks, progress cadence, transport, numerics tier.
  /// Copied wholesale into whichever solver config the method selects;
  /// every field but the tier is bitwise-neutral (see ExecOptions).
  ExecOptions exec;
  UpdateMode mode = UpdateMode::kSgd;
  SyncPolicy sync;               ///< GD only
  /// Joint object+probe refinement (serial and GD; the probe-refinement
  /// pass is inserted into the pipeline when set).
  bool refine_probe = false;
  int hve_local_epochs = 1;      ///< HVE only
  int hve_extra_rings = 2;       ///< HVE only
  bool record_cost = true;
  /// Resume from a loaded snapshot — any rank count: the solvers re-tile
  /// elastically when the snapshot's layout differs from this request.
  const ckpt::Snapshot* restore = nullptr;
  /// Fault injection for recovery testing (GD only).
  rt::FaultPlan fault;
  /// Where a socket rank leaves its owned region (GD and HVE; in-process
  /// and serial runs return the whole volume instead).
  VolumeOutput output;
};

/// The inputs one process reads for a request: the probe ids whose
/// diffraction frames its ranks sweep and the warm-start window they copy.
struct LocalInputs {
  std::vector<index_t> frames;
  Rect window;
};

struct ReconstructionOutcome {
  FramedVolume volume;  ///< empty on a socket rank (it wrote request.output.path)
  FramedVolume image;   ///< socket rank 0: the middle slice, when request.output.image
  CostHistory cost;
  double wall_seconds = 0.0;
  double mean_peak_bytes = 0.0;  ///< 0 for serial (single address space)
  std::vector<rt::BreakdownEntry> breakdown;  ///< empty for serial
};

class Reconstructor {
 public:
  explicit Reconstructor(const Dataset& dataset) : dataset_(dataset) {}

  /// Run a reconstruction, warm-started from `initial` unless it is empty.
  /// The run owns the warm start: a socket rank, whose warm start is its
  /// extended tile alone, frees it before the sweep (see reconstruct_gd);
  /// every other run reads it, in every attempt.
  ///
  /// Self-healing: when `request.exec.max_restarts > 0` and checkpointing
  /// is enabled, a RankFailure does not surface — the facade discovers the
  /// newest valid snapshot in the checkpoint directory, drops the failed
  /// rank if the failure consumed one, bumps the cluster generation and
  /// re-runs toward the original iteration budget (exponential backoff
  /// between attempts, `runtime.recovery.*` metrics emitted). The error
  /// only propagates once the restart budget is exhausted. Distributed
  /// (socket) runs are supervised by their launch parent instead — each
  /// process exits and is respawned with a fresh roster.
  [[nodiscard]] ReconstructionOutcome run(const ReconstructionRequest& request,
                                          FramedVolume initial = {}) const;

  /// What this process's ranks read of the inputs, from the same
  /// partition the solver builds. A socket rank (the transport hosts one
  /// rank here) needs its tile's probes — own, plus replicated under HVE —
  /// and its extended tile. Serial and in-process runs need every frame
  /// and the whole field. Needs only the dataset's header: its frames may
  /// all be unloaded.
  [[nodiscard]] LocalInputs local_inputs(const ReconstructionRequest& request) const;

  [[nodiscard]] const Dataset& dataset() const { return dataset_; }

 private:
  /// One un-supervised attempt: dispatch to the selected solver.
  [[nodiscard]] ReconstructionOutcome run_once(const ReconstructionRequest& request,
                                               FramedVolume* initial) const;

  const Dataset& dataset_;
};

}  // namespace ptycho
