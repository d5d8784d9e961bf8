// BatchSweeper: the multi-threaded batched gradient sweep shared by the
// serial and gradient-decomposition solvers.
//
// Probe positions are evaluated in parallel in fixed batches of kBatch
// items; each item writes into its own (item-indexed, not thread-indexed)
// gradient buffer, and the batch is then merged into the accumulation
// buffer in ascending item order. Because the batch structure and the
// merge order depend only on the item range — never on the pool's thread
// count or which slot evaluated an item — a full-batch sweep is bitwise
// identical for any --threads value, and bitwise identical to the
// historical sequential loop.
//
// The work-stealing dispatcher decides only WHICH slot computes an item
// (and therefore which pooled workspace it scratches in); workspaces are
// pure scratch, so per-item results are slot-independent. Per-item
// callbacks cross the hot path as non-allocating function_refs.
//
// SGD mode is NOT routed through this class: its per-probe update feeds
// probe i+1's forward model from probe i's descent step, an inherently
// sequential dependency. The solvers keep SGD on the sequential path (see
// SerialConfig::threads).
#pragma once

#include <vector>

#include "common/function_ref.hpp"
#include "common/parallel.hpp"
#include "core/accbuf.hpp"
#include "core/gradient_engine.hpp"

namespace ptycho {

class BatchSweeper {
 public:
  /// Items evaluated concurrently per merge round. Fixed (independent of
  /// the thread count) — load-balance knob AND determinism requirement.
  static constexpr index_t kBatch = 16;

  /// Maps a sweep item index to the dataset probe id it evaluates.
  using ProbeIdFn = function_ref<index_t(index_t item)>;
  /// Maps a sweep item index to its measured magnitudes.
  using MeasurementFn = function_ref<View2D<const real>(index_t item)>;

  /// Allocates one workspace per pool slot and kBatch item-gradient
  /// buffers up front (on the calling thread, so per-rank memory tracking
  /// sees them); sweeps reuse them. `compact_trans` (fast tier only) makes
  /// the pooled transmittance caches persist their planes in 16-bit form.
  BatchSweeper(const GradientEngine& engine, ThreadPool& pool,
               compact::Format compact_trans = compact::Format::kNone);

  /// Fast-tier measurement source: when set, items are read by decoding
  /// frame `item` of `frames` into per-slot scratch instead of calling
  /// `measurement_of` — frames must be indexed exactly like the
  /// measurement callback. Pass nullptr to restore the callback path. The
  /// stack must outlive every subsequent sweep() call.
  void set_compact_measurements(const compact::FrameStack* frames);

  /// Evaluate items [begin, end): per-item object gradients are merged
  /// into `accbuf` in item order, per-item probe gradients (when
  /// `probe_grad` is non-null) are added into it in item order, and the
  /// per-item costs are accumulated onto `cost` in item order — folding
  /// onto the caller's running value keeps the fp association identical to
  /// the historical per-probe loop across chunk boundaries too. The
  /// callbacks are only invoked during the call (function_ref lifetime
  /// contract).
  void sweep(index_t begin, index_t end, const Probe& probe, const FramedVolume& volume,
             AccumulationBuffer& accbuf, double& cost, View2D<cplx>* probe_grad,
             ProbeIdFn probe_id_of, MeasurementFn measurement_of);

 private:
  const GradientEngine& engine_;
  WorkStealingScheduler scheduler_;
  WorkspacePool workspaces_;             ///< one per pool slot
  std::vector<FramedVolume> item_grad_;  ///< kBatch window gradients
  std::vector<CArray2D> item_probe_grad_;  ///< kBatch probe gradients
  std::vector<double> item_cost_;
  const compact::FrameStack* compact_meas_ = nullptr;  ///< fast tier only
};

}  // namespace ptycho
