// GradientDecomposition solver — the paper's contribution (Alg. 1).
//
// Each rank of the virtual cluster owns one extended tile of the image
// gradient and the measurements of its own probe locations only. Per
// probe: local gradient, AccBuf accumulation and (in SGD mode) an
// immediate local update; every 1/passes_per_iteration of the sweep the
// accumulated buffers are reconciled through the forward/backward passes
// (APPP) and applied. Finally halos are dropped and the owned tiles
// stitched (steps 20-21).
#pragma once

#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/timer.hpp"
#include "core/convergence.hpp"
#include "core/exec_options.hpp"
#include "core/gradient_engine.hpp"
#include "core/optimizer.hpp"
#include "core/passes.hpp"
#include "runtime/perfmodel.hpp"

namespace ptycho {

struct GdConfig {
  /// Ranks ("GPUs") of the virtual cluster; a near-square mesh is chosen
  /// automatically unless mesh_rows/cols are set explicitly.
  int nranks = 4;
  int mesh_rows = 0;  ///< 0 = choose automatically
  int mesh_cols = 0;
  int iterations = 10;
  real step = real(0.1);
  /// Communication frequency: bi-directional passes per iteration (Fig. 9
  /// sweeps this: once/iter, twice/iter, or probe_count/iter == per probe).
  int passes_per_iteration = 1;
  UpdateMode mode = UpdateMode::kSgd;
  SyncPolicy sync;  ///< scheme + APPP on/off
  /// Execution knobs (threads per rank, scheduler, pipeline mode,
  /// checkpoint policy, progress cadence, transport) — shared across every
  /// solver config; all bitwise-neutral (see ExecOptions). exec.threads=0
  /// means hardware concurrency divided by nranks, floored at 1, so the
  /// whole virtual cluster does not oversubscribe the host. A socket
  /// transport in exec.transport makes this process host exactly one rank
  /// of a K-process job (same messages, same result).
  ExecOptions exec;
  bool record_cost = true;
  /// Joint object+probe refinement. The probe is a *global* quantity, so
  /// each iteration the ranks all-reduce their probe-gradient buffers
  /// (one probe_n^2 message — negligible next to the tile passes) and
  /// apply the identical update, keeping probe copies consistent.
  bool refine_probe = false;
  real probe_step = real(0.3);
  int probe_warmup_iterations = 1;
  /// Resume from this snapshot; `iterations` then counts the run's TOTAL
  /// iterations. A snapshot whose tiling matches this config resumes
  /// exactly (including mid-iteration states); any other snapshot is
  /// restored elastically — re-tiled through partition/assignment and
  /// redistributed through the fabric — and must sit at an iteration
  /// boundary.
  const ckpt::Snapshot* restore = nullptr;
  /// Fault injection (testing): kill a rank at a configured step.
  rt::FaultPlan fault;
};

/// Result common to both decomposed solvers.
struct ParallelResult {
  FramedVolume volume;                         ///< stitched reconstruction (rank-0 view)
  CostHistory cost;                            ///< global F(V) per iteration
  std::vector<rt::BreakdownEntry> breakdown;   ///< per-rank compute/wait/comm seconds
  double mean_peak_bytes = 0.0;                ///< tracked per-rank peak memory, averaged
  usize max_peak_bytes = 0;
  rt::FabricStats fabric;                      ///< message/byte counts per rank
  double wall_seconds = 0.0;
  CArray2D probe_field;                        ///< refined probe (when enabled)
  [[nodiscard]] rt::BreakdownEntry mean_breakdown() const;
};

[[nodiscard]] ParallelResult reconstruct_gd(const Dataset& dataset, const GdConfig& config,
                                            const FramedVolume* initial = nullptr);

/// The partition a GdConfig implies (exposed for benches/tests).
[[nodiscard]] Partition make_gd_partition(const Dataset& dataset, const GdConfig& config);

// Shared by both decomposed solvers (gradient decomposition and the halo
// voxel exchange baseline).

/// The explicit mesh_rows x mesh_cols mesh when both are set (their product
/// must be nranks), else the mesh rt::choose_mesh picks for the field.
[[nodiscard]] rt::Mesh2D resolve_mesh(const Dataset& dataset, int nranks, int mesh_rows,
                                      int mesh_cols);

/// One rank's compute/wait/comm seconds from its phase profile (update
/// time counts as compute).
[[nodiscard]] rt::BreakdownEntry breakdown_from(const PhaseProfiler& prof);

}  // namespace ptycho
