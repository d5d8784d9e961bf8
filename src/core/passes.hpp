// The pass layer: every stage a ReconstructionPipeline can be built from,
// plus the communication engine the synchronization passes run on.
//
// Layering: PassEngine (bottom of this file) implements the paper's
// forward/backward accumulated-gradient passes over the fabric — raw
// communication schedules. The Pass subclasses above it are pipeline
// stages (core/pipeline.hpp): sweep, gradient synchronization, optimizer
// update, probe refinement, convergence recording, checkpointing, fault
// points and HVE's halo pastes. Solvers compose these into a pass graph
// instead of hand-rolling iteration loops.
//
// The communication schemes (paper Secs. III-V), selectable per run:
//
//  * kSweep (the paper's method, Sec. IV + V): four directional chain
//    passes — vertical forward (each tile *adds* its buffer into the tile
//    below over their overlap), vertical backward (the lower tile's buffer
//    *replaces* the upper's over the overlap), then the same horizontally.
//    Chains in different columns/rows proceed independently and a rank
//    enters the next direction as soon as its own sends are posted — the
//    Asynchronous Pipelining for Parallel Passes falls out of the
//    per-rank dataflow order with eager non-blocking sends (Fig. 5).
//
//  * kDirectNeighbors (Sec. III): pairwise add with the 8-connected
//    neighborhood only. Exact when probes overlap only adjacent tiles;
//    insufficient for high overlap ratios (Fig. 3(d)) — kept as an
//    ablation.
//
//  * run_allreduce: the "natural choice" the paper rejects — a global
//    all-reduce of the full-field gradient. Exact but unscalable; it is
//    the without-APPP baseline of Fig. 7b.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "core/optimizer.hpp"
#include "core/pipeline.hpp"
#include "core/precision.hpp"
#include "core/sweep.hpp"
#include "partition/overlap.hpp"
#include "runtime/cluster.hpp"
#include "tensor/framed.hpp"
#include "tensor/ops.hpp"

namespace ptycho {

enum class PassScheme {
  kSweep,
  kDirectNeighbors,
};

[[nodiscard]] const char* to_string(PassScheme scheme);

class PassEngine {
 public:
  PassEngine(const Partition& partition, int rank);

  /// One bi-directional sweep (vf, vb, hf, hb) over `buf`. All ranks must
  /// call the same number of times (chains match by an internal counter).
  void run_sweep(rt::RankContext& ctx, FramedVolume& buf);

  /// Pairwise 8-neighbour accumulate (Sec. III base scheme).
  void run_direct(rt::RankContext& ctx, FramedVolume& buf);

  /// Global all-reduce of the full-field gradient; buf's extended window
  /// is replaced with the exact global sum.
  void run_allreduce(rt::RankContext& ctx, FramedVolume& buf);

 private:
  const Partition& partition_;
  int rank_;
  CardinalOverlaps card_;
  std::vector<std::pair<int, Rect>> neighbor8_;  ///< (rank, overlap) pairs
  std::int64_t sweep_counter_ = 0;
  std::int64_t direct_counter_ = 0;
  std::int64_t allreduce_counter_ = 0;
};

// Tag phases used by the decomposition layer are the central registry in
// runtime/channel.hpp (rt::Phase) — the scattered comm_phase ints this
// namespace used to define now live there with a uniqueness static_assert.

/// GradientSynchronizer: the policy object that decides *how* a rank's
/// accumulated gradients are reconciled with its neighbours each time
/// Alg. 1 reaches step 9 — the paper's APPP sweep, the Sec. III direct
/// scheme, or the rejected global all-reduce (the without-APPP baseline).
struct SyncPolicy {
  PassScheme scheme = PassScheme::kSweep;
  /// false = replace the pipelined passes with a barrier + global
  /// all-reduce (the "w/o APPP" configuration of Fig. 7b).
  bool appp = true;
};

class GradientSynchronizer {
 public:
  GradientSynchronizer(const Partition& partition, int rank, SyncPolicy policy)
      : engine_(partition, rank), policy_(policy) {}

  /// Reconcile `accbuf` across ranks according to the policy. Collective:
  /// all ranks must call the same number of times.
  void synchronize(rt::RankContext& ctx, FramedVolume& accbuf) {
    if (!policy_.appp) {
      ctx.barrier();
      engine_.run_allreduce(ctx, accbuf);
      return;
    }
    switch (policy_.scheme) {
      case PassScheme::kSweep:
        engine_.run_sweep(ctx, accbuf);
        return;
      case PassScheme::kDirectNeighbors:
        engine_.run_direct(ctx, accbuf);
        return;
    }
  }

  [[nodiscard]] const SyncPolicy& policy() const { return policy_; }

 private:
  PassEngine engine_;
  SyncPolicy policy_;
};

// ---- pipeline passes --------------------------------------------------------

/// When joint object+probe refinement contributes to an iteration.
struct RefineSchedule {
  bool enabled = false;
  int warmup_iterations = 1;

  [[nodiscard]] bool due(int iteration) const {
    return enabled && iteration >= warmup_iterations;
  }
};

/// A one-value tag that one SweepPass constructor still accepts, so the
/// call in bench/e2e/bench_layers.cpp keeps compiling. It selects nothing:
/// full-batch sweeps always dispatch by work-stealing.
enum class SweepSchedule { kAuto };

/// The gradient sweep of Alg. 1 steps 5-8: evaluates this rank's item
/// range for the chunk. Full-batch mode dispatches through a BatchSweeper
/// on a work-stealing pool (accumulate only); SGD mode runs the
/// inherently sequential per-probe loop with immediate local updates.
/// Only the active mode's machinery is allocated (it counts toward the
/// rank's tracked memory footprint).
class SweepPass final : public Pass {
 public:
  /// How sweep items map to dataset probes. The default (null) is the
  /// identity mapping over the engine's dataset — the serial solver. Tiled
  /// solvers point it at the tile's own-probe ids. Either way the frames
  /// are read in place from the engine's dataset.
  struct Items {
    const std::vector<index_t>* ids = nullptr;
  };

  /// `threads` is the resolved worker count for the full-batch sweeper
  /// (callers apply their own auto-division policy before constructing).
  /// `precision` (fast tier) selects the FMA kernel column process-wide at
  /// the dispatch layer — here it only controls compact storage: with a
  /// 16-bit format the pass encodes its items' frames, in item order, into
  /// a compact::FrameStack (decoded per item into workspace scratch) and the
  /// pooled transmittance caches persist compactly. Strict default leaves
  /// every byte of the historical path untouched.
  SweepPass(const GradientEngine& engine, UpdateMode mode, int threads, Items items,
            RefineSchedule refine, PrecisionPolicy precision = {});
  /// Exists only for the bench_layers call; the tag is ignored.
  SweepPass(const GradientEngine& engine, UpdateMode mode, int threads, SweepSchedule,
            Items items, RefineSchedule refine, PrecisionPolicy precision = {})
      : SweepPass(engine, mode, threads, items, refine, precision) {}

  [[nodiscard]] const char* name() const override { return "sweep"; }
  [[nodiscard]] obs::Phase phase() const override { return obs::Phase::kCompute; }
  /// Full-batch: reads V and the probe, writes AccBuf. SGD also descends V
  /// in place. kProbeGrad is written only on refinement iterations, so a
  /// non-refining sweep never fences on a background checkpoint that is
  /// still reading the gradient field.
  [[nodiscard]] PassAccess chunk_access(const StepPoint& point) const override {
    PassAccess a;
    a.read(Resource::kVolume).read(Resource::kProbe).write(Resource::kAccBuf);
    if (mode_ == UpdateMode::kSgd) a.write(Resource::kVolume);
    if (refine_.due(point.iteration)) a.write(Resource::kProbeGrad);
    return a;
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState& state, const StepPoint& point) override;

 private:
  [[nodiscard]] index_t probe_id(index_t item) const {
    return items_.ids != nullptr ? (*items_.ids)[static_cast<usize>(item)] : item;
  }
  [[nodiscard]] View2D<const real> measurement(index_t item) const {
    return engine_.dataset().frame(probe_id(item)).view();
  }

  const GradientEngine& engine_;
  UpdateMode mode_;
  Items items_;
  RefineSchedule refine_;
  PrecisionPolicy precision_;
  /// Fast tier: the pass's own compact copy of its items' frames,
  /// item-indexed exactly like measurement(). Unset on the strict tier.
  std::optional<compact::FrameStack> compact_meas_;
  // Full-batch machinery (unset in SGD mode).
  std::optional<ThreadPool> pool_;
  std::optional<BatchSweeper> sweeper_;
  // SGD machinery (unset in full-batch mode).
  std::optional<MultisliceWorkspace> workspace_;
  std::optional<FramedVolume> grad_scratch_;
};

/// Alg. 1 steps 9-13 on the tiled path: reconcile AccBuf across ranks.
/// In SGD mode the chunk's local updates are first undone (while AccBuf
/// still holds exactly the own contributions) so the post-sync apply
/// installs the full total once — the consistency-preserving reading that
/// keeps overlap copies of V identical across ranks (see
/// gradient_decomposition.hpp for the argument).
class SyncGradientsPass final : public Pass {
 public:
  SyncGradientsPass(const Partition& partition, int rank, SyncPolicy policy, UpdateMode mode)
      : sync_(partition, rank, policy), mode_(mode) {}

  [[nodiscard]] const char* name() const override { return "sync"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    PassAccess a;
    a.read(Resource::kAccBuf).write(Resource::kAccBuf).write(Resource::kFabric);
    // SGD first undoes the chunk's local updates on V (see on_chunk).
    if (mode_ == UpdateMode::kSgd) a.read(Resource::kVolume).write(Resource::kVolume);
    return a;
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState& state, const StepPoint& point) override;

 private:
  GradientSynchronizer sync_;
  UpdateMode mode_;
};

/// Alg. 1 steps 14-16: apply the accumulated (and, tiled, reconciled)
/// gradient, then clear AccBuf. On the single-rank SGD path every local
/// gradient was already applied in step 8 and there are no neighbour
/// contributions, so the delta is zero and the apply is skipped entirely
/// (an undo/redo round-trip would perturb fp state); tiled SGD applies the
/// synchronized delta unconditionally.
class ApplyUpdatePass final : public Pass {
 public:
  ApplyUpdatePass(UpdateMode mode, bool apply_in_sgd)
      : mode_(mode), apply_in_sgd_(apply_in_sgd) {}

  [[nodiscard]] const char* name() const override { return "update"; }
  [[nodiscard]] obs::Phase phase() const override { return obs::Phase::kUpdate; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    PassAccess a;
    a.read(Resource::kAccBuf).write(Resource::kAccBuf);  // apply + reset
    a.read(Resource::kVolume).write(Resource::kVolume);
    return a;
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState& state, const StepPoint& point) override;

 private:
  UpdateMode mode_;
  bool apply_in_sgd_;
};

/// Recoverable-boundary marker for fault-injection testing: chunk
/// boundaries are exactly where overlap copies of V are consistent again —
/// the only states a snapshot may capture, and the natural place to lose a
/// rank recoverably.
class FaultPointPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "fault-point"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    return PassAccess{}.write(Resource::kFabric);
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState& state, const StepPoint& point) override;
};

/// Joint probe refinement: once per iteration past the warmup, descend the
/// probe wavefield along its accumulated sweep gradient, then restore the
/// total intensity (the object absorbs the scale). The probe is a *global*
/// quantity, so tiled runs all-reduce the gradient buffers first (one
/// probe_n^2 message — negligible next to the tile passes) and apply the
/// identical update everywhere, keeping probe copies consistent.
class ProbeRefinePass final : public Pass {
 public:
  ProbeRefinePass(RefineSchedule refine, real probe_step, index_t global_probe_count,
                  double initial_probe_energy)
      : refine_(refine),
        probe_step_(probe_step),
        probe_count_(global_probe_count),
        initial_energy_(initial_probe_energy) {}

  [[nodiscard]] const char* name() const override { return "probe-refine"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override { return {}; }
  [[nodiscard]] PassAccess iteration_access(int iteration) const override {
    if (!refine_.due(iteration)) return {};
    PassAccess a;
    a.read(Resource::kProbe).write(Resource::kProbe);
    a.read(Resource::kProbeGrad).write(Resource::kProbeGrad);
    a.write(Resource::kFabric);
    return a;
  }
  void on_iteration(SolverState& state, int iteration) override;

 private:
  RefineSchedule refine_;
  real probe_step_;
  index_t probe_count_;
  double initial_energy_;
};

/// Convergence recording: per-iteration values of the global cost F(V).
/// Tiled runs all-reduce the per-rank sweep costs and record on rank 0
/// (under the shared result mutex). A cost that is not finite ends the run
/// with a ptycho::Error naming the iteration, on every rank.
class CostRecordPass final : public Pass {
 public:
  explicit CostRecordPass(bool record) : record_(record) {}

  [[nodiscard]] const char* name() const override { return "cost-record"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override { return {}; }
  [[nodiscard]] PassAccess iteration_access(int) const override {
    if (!record_) return {};
    PassAccess a;
    a.read(Resource::kCost).write(Resource::kCost).write(Resource::kFabric);
    return a;
  }
  void on_iteration(SolverState& state, int iteration) override;

 private:
  bool record_;
};

/// Periodic one-line progress report (--progress N): every N completed
/// iterations, rank 0 (or the serial solver) logs iteration position, the
/// latest recorded cost (falling back to the running sweep cost) and the
/// probe throughput since the previous report. Pure observation — no
/// state mutation, no communication.
class ProgressPass final : public Pass {
 public:
  ProgressPass(int every, index_t probes_per_iteration, int total_iterations)
      : every_(every), probes_(probes_per_iteration), total_(total_iterations) {}

  [[nodiscard]] const char* name() const override { return "progress"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override { return {}; }
  [[nodiscard]] PassAccess iteration_access(int) const override {
    return PassAccess{}.read(Resource::kCost);
  }
  void on_iteration(SolverState& state, int iteration) override;

 private:
  int every_;
  index_t probes_;
  int total_;
  WallTimer since_last_;
  int iterations_since_last_ = 0;
};

/// Periodic checkpointing as a pipeline stage: mid-iteration snapshots at
/// chunk boundaries (carrying the partial sweep cost) and one at each
/// iteration boundary. The write protocol is the subsystem's
/// manifest-last completion contract: every rank writes its shard, all
/// ranks barrier, rank 0 writes the manifest — identical shape on the
/// single-rank path with the barriers elided.
///
/// The hook does the fabric-free half on the background slot — create the
/// step directory, write this rank's shard, capture the cost history — and
/// queues a pending record; a CheckpointFinalizePass on the rank lane later
/// runs the barrier + manifest-last completion. Shard I/O thus overlaps
/// later chunks; an unfinalized snapshot simply has no manifest yet, so
/// crash semantics are unchanged (find_latest_step ignores it).
class CheckpointPass final : public Pass {
 public:
  CheckpointPass(ckpt::Policy policy, ckpt::RunInfo run)
      : policy_(std::move(policy)), run_(std::move(run)) {}

  [[nodiscard]] const char* name() const override { return "checkpoint"; }
  /// A due snapshot reads every piece of state it serializes and writes
  /// the directory tree. Not-due points declare nothing, so the common
  /// chunk never fences on background I/O (and runs the no-op hook on the
  /// rank lane).
  [[nodiscard]] PassAccess chunk_access(const StepPoint& point) const override {
    return point.chunk + 1 < point.chunks
               ? access_if_due(point.iteration, point.chunk + 1)
               : PassAccess{};
  }
  [[nodiscard]] PassAccess iteration_access(int iteration) const override {
    return access_if_due(iteration + 1, 0);
  }
  [[nodiscard]] bool background_eligible() const override { return true; }
  void on_chunk(SolverState& state, const StepPoint& point) override;
  void on_iteration(SolverState& state, int iteration) override;

  /// Complete every queued snapshot: per record, all ranks barrier (shards
  /// are known written — the caller's hazard fence waited for the
  /// background task), then rank 0 writes the manifest. Called by
  /// CheckpointFinalizePass on the rank lane.
  void finalize_pending(SolverState& state);

 private:
  struct PendingSnapshot {
    std::string dir;
    int next_iteration = 0;
    int next_chunk = 0;
    std::vector<double> cost_values;  ///< captured on rank 0 at write time
  };

  [[nodiscard]] PassAccess access_if_due(int next_iteration, int next_chunk) const;
  void maybe_write(SolverState& state, int next_iteration, int next_chunk,
                   double partial_cost);
  void write_manifest_completion(const std::string& dir, int next_iteration, int next_chunk,
                                 std::vector<double> cost_values);

  ckpt::Policy policy_;
  ckpt::RunInfo run_;
  std::mutex pending_mutex_;  ///< guards pending_ (background producer, rank-lane consumer)
  std::vector<PendingSnapshot> pending_;
};

/// Rank-lane completion stage for checkpoints: runs the barrier +
/// manifest-last half of the protocol for every snapshot whose shard write
/// has finished. Its kCheckpointDir read hazards with the in-flight shard
/// task's write, so the executor's fence guarantees every rank observes
/// the same pending set — the per-snapshot barrier count is deterministic.
/// Placed before the fault point so a snapshot whose shards completed by
/// chunk N is manifest-complete before rank loss at chunk N can fire.
class CheckpointFinalizePass final : public Pass {
 public:
  explicit CheckpointFinalizePass(CheckpointPass& writer) : writer_(writer) {}

  [[nodiscard]] const char* name() const override { return "checkpoint-finalize"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    return PassAccess{}.read(Resource::kCheckpointDir).write(Resource::kFabric);
  }
  [[nodiscard]] PassAccess iteration_access(int) const override {
    return PassAccess{}.read(Resource::kCheckpointDir).write(Resource::kFabric);
  }
  void on_chunk(SolverState& state, const StepPoint&) override {
    writer_.finalize_pending(state);
  }
  void on_iteration(SolverState& state, int) override { writer_.finalize_pending(state); }
  void on_finish(SolverState& state) override { writer_.finalize_pending(state); }

 private:
  CheckpointPass& writer_;
};

/// HVE's embarrassingly parallel local reconstruction: `epochs` local
/// sweeps over the tile's assigned probes (own + replicated). SGD mode is
/// the historical sequential loop with immediate updates; full-batch mode
/// dispatches each epoch through a work-stealing BatchSweeper,
/// accumulating into a pass-private AccBuf and applying once
/// per epoch (a different — batched — local algorithm, not a reordering
/// of the SGD one). Only *owned* probes' first-epoch costs are counted,
/// so the recorded global cost sums each f_i exactly once.
class HveLocalSweepPass final : public Pass {
 public:
  /// `probes` lists the own probes first, then the replicated ones, whose
  /// frames are read in place from the engine's dataset. `threads` sizes
  /// the full-batch sweeper's pool; SGD mode ignores them (its machinery is
  /// inherently sequential). `precision` compacts the full-batch sweeper's
  /// measurement frames and workspace caches like SweepPass; the SGD loop
  /// reads the f32 frames (its sequential per-probe walk is not
  /// bandwidth-bound).
  HveLocalSweepPass(const GradientEngine& engine, const std::vector<index_t>& probes,
                    usize own_count, int epochs, UpdateMode mode = UpdateMode::kSgd,
                    int threads = 1, PrecisionPolicy precision = {});

  [[nodiscard]] const char* name() const override { return "hve-local-sweep"; }
  [[nodiscard]] obs::Phase phase() const override { return obs::Phase::kCompute; }
  /// The pass-private AccBuf is not a declared resource (nothing else can
  /// touch it); the probe is the engine's immutable dataset copy.
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    PassAccess a;
    a.read(Resource::kVolume).write(Resource::kVolume);
    return a;
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState& state, const StepPoint& point) override;

 private:
  const GradientEngine& engine_;
  const std::vector<index_t>& probes_;
  usize own_count_;
  int epochs_;
  UpdateMode mode_;
  // SGD machinery (unset in full-batch mode).
  std::optional<MultisliceWorkspace> workspace_;
  std::optional<FramedVolume> grad_scratch_;
  // Full-batch machinery (unset in SGD mode); accbuf_ sized lazily off the
  // tile volume on the first chunk.
  std::optional<ThreadPool> pool_;
  std::optional<BatchSweeper> sweeper_;
  std::optional<compact::FrameStack> compact_meas_;  ///< fast tier only
  std::optional<AccumulationBuffer> accbuf_;
};

/// HVE's synchronous halo exchange: owned voxels overwrite neighbour
/// halos along the precomputed paste schedule. The pastes are what create
/// the seam artifacts measured in the Fig. 8 experiment.
class HaloPastePass final : public Pass {
 public:
  explicit HaloPastePass(std::vector<PasteEdge> pastes) : pastes_(std::move(pastes)) {}

  [[nodiscard]] const char* name() const override { return "halo-paste"; }
  [[nodiscard]] PassAccess chunk_access(const StepPoint&) const override {
    PassAccess a;
    a.read(Resource::kVolume).write(Resource::kVolume).write(Resource::kFabric);
    return a;
  }
  [[nodiscard]] PassAccess iteration_access(int) const override { return {}; }
  void on_chunk(SolverState& state, const StepPoint& point) override;

 private:
  std::vector<PasteEdge> pastes_;
  std::int64_t round_ = 0;
};

}  // namespace ptycho
