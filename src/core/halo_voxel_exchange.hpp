// Halo Voxel Exchange baseline (paper Sec. II-C; refs [7,8,9]).
//
// Each rank's tile is extended with large halos covering its own probes
// *plus* `extra_rings` rings of neighbouring probe locations, whose
// measurements are replicated locally (redundant memory + compute). Tiles
// update embarrassingly parallel; after each sweep every rank pastes its
// *owned* voxels into the halos of every overlapping neighbour through
// synchronous point-to-point copies. The pastes are what create the seam
// artifacts measured in the Fig. 8 experiment.
#pragma once

#include "core/gradient_decomposition.hpp"

namespace ptycho {

struct HveConfig {
  int nranks = 4;
  int mesh_rows = 0;  ///< 0 = choose automatically
  int mesh_cols = 0;
  int iterations = 10;
  real step = real(0.1);
  /// Local SGD sweeps between paste rounds.
  int local_epochs = 1;
  /// Local update rule: kSgd is the historical per-probe immediate-update
  /// loop; kFullBatch accumulates each epoch's gradients through the
  /// multi-threaded BatchSweeper and applies once per epoch (a batched
  /// variant of the local algorithm — results differ from SGD, as they do
  /// for the other solvers' mode knob).
  UpdateMode mode = UpdateMode::kSgd;
  /// Execution knobs (threads per rank, transport) — shared across every
  /// solver config (see ExecOptions). HVE takes no checkpoints, so
  /// exec.checkpoint is ignored.
  ExecOptions exec;
  /// Rings of replicated neighbour probes ("two extra rows", Sec. VI-A).
  int extra_rings = 2;
  bool record_cost = true;
  /// Where a socket rank leaves its owned region (see GdConfig::output).
  VolumeOutput output;
};

/// Throws ptycho::Error if the partition violates the paste-feasibility
/// constraint (tiles smaller than halos — the "NA" cells of Table II).
/// `initial` is read, and freed by a socket rank, as by reconstruct_gd.
[[nodiscard]] ParallelResult reconstruct_hve(const Dataset& dataset, const HveConfig& config,
                                             FramedVolume* initial = nullptr);

[[nodiscard]] Partition make_hve_partition(const Dataset& dataset, const HveConfig& config);

/// Check without running: can HVE run at this configuration?
[[nodiscard]] bool hve_feasible(const Dataset& dataset, const HveConfig& config);

}  // namespace ptycho
