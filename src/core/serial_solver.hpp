// Serial reference solver: Alg. 1 on a single rank over the full field.
//
// Runs the identical update rule as the decomposed solver (per-probe SGD
// step + delayed accumulated-gradient step every chunk) so that the
// decomposed solvers can be validated against it: in full-batch mode
// GradientDecomposition must match this solver to fp tolerance for any
// mesh (the central invariant, DESIGN.md Sec. 5).
#pragma once

#include "ckpt/snapshot.hpp"
#include "common/parallel.hpp"
#include "core/convergence.hpp"
#include "core/exec_options.hpp"
#include "core/gradient_engine.hpp"
#include "core/optimizer.hpp"
#include "core/pipeline.hpp"

namespace ptycho {

struct SerialConfig {
  int iterations = 10;
  /// ePIE-style step: the effective per-voxel step is step / max|p|^2
  /// (preconditioned by the probe's peak intensity). ~0.05-0.2 is stable
  /// across dataset scales; >~0.5 diverges.
  real step = real(0.1);
  /// How many times per iteration the accumulated-gradient update runs
  /// (the communication-frequency parameter T of Alg. 1, expressed as
  /// chunks of the probe sweep; 1 = once per iteration).
  int chunks_per_iteration = 1;
  UpdateMode mode = UpdateMode::kSgd;
  /// Execution knobs (threads, checkpoint policy,
  /// progress cadence) — shared across every solver config; all
  /// bitwise-neutral (see ExecOptions). The serial solver ignores the
  /// transport (it has no cluster).
  ExecOptions exec;
  bool record_cost = true;
  /// Joint object+probe refinement: after `probe_warmup_iterations`, each
  /// iteration also descends the probe wavefield along its accumulated
  /// gradient (then renormalizes to the initial total intensity, removing
  /// the object/probe scale ambiguity).
  bool refine_probe = false;
  /// Probe descent step; the accumulated sweep gradient is divided by the
  /// probe count, so ~0.1-0.5 is stable independent of dataset size.
  real probe_step = real(0.3);
  int probe_warmup_iterations = 1;
  /// Resume from this snapshot: `iterations` then counts the run's TOTAL
  /// iterations, so a restore continues from snapshot.manifest.iteration
  /// up to `iterations`. A single-rank snapshot resumes exactly (including
  /// mid-iteration states); a multi-rank snapshot is restored elastically
  /// and must sit at an iteration boundary.
  const ckpt::Snapshot* restore = nullptr;
};

struct SerialResult {
  FramedVolume volume;
  CostHistory cost;
  double wall_seconds = 0.0;
  /// Refined probe wavefield (empty unless refine_probe was set).
  CArray2D probe_field;
};

/// Reconstruct from scratch (vacuum initial guess) or from `initial`.
[[nodiscard]] SerialResult reconstruct_serial(const Dataset& dataset, const SerialConfig& config,
                                              const FramedVolume* initial = nullptr);

}  // namespace ptycho
