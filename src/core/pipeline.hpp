// ReconstructionPipeline: the single execution layer every solver runs on.
//
// A reconstruction is a pass graph driven over a fixed iteration/chunk
// schedule:
//
//   per chunk:      sweep -> [sync] -> optimizer update
//                   -> checkpoint finalize -> [fault point] -> checkpoint
//   per iteration:  checkpoint finalize -> probe refinement
//                   -> convergence record -> checkpoint
//
// The serial solver, the gradient-decomposition solver and the HVE
// baseline all instantiate this pipeline with different pass lists
// instead of hand-rolling their own loops: the tiled paths insert the
// gradient-synchronization / halo-exchange and fault-point passes, the
// serial path omits them, and the checkpoint hook is itself a pass. The
// pipeline owns the loop structure (chunk ranges, restored start
// positions, the per-iteration running cost) so restart/convergence
// semantics cannot drift between solvers.
//
// Every pass declares the resources its hooks read and write (Resource /
// PassAccess below), and the executor runs the list on two lanes:
//
//  * the rank lane runs every pass in list order. Fabric-touching passes
//    must stay there: collective matching order must be identical on
//    every rank, and the tagless barrier makes reordering them unsound.
//  * a per-rank BackgroundWorker slot runs the hooks of
//    background-eligible passes (checkpoint shard I/O). The worker thread
//    starts on the first background dispatch, so a run that never takes a
//    snapshot starts no extra thread. An in-flight background hook fences
//    every later hook it has a read/write hazard with (HazardTracker). A
//    snapshot does not read the AccBuf (it is zero at every snapshot
//    point, so shards omit it), so chunk N's in-flight checkpoint never
//    fences chunk N+1's sweep.
//
// Because the rank lane never reorders and background hooks operate on a
// value snapshot of the state behind hazard fences, a run's volume, cost
// history and snapshot bytes do not depend on when background work
// completes, and the same volume and cost history come out with
// checkpointing on or off (asserted in tests/test_async_pipeline.cpp).
//
// Passes mutate shared per-rank state through SolverState, which carries
// raw pointers into the owning solver's buffers (the pipeline borrows,
// never owns). `ctx` is null on the single-rank path; passes that need a
// fabric (sync, halo paste, fault points) are simply not added there.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/accbuf.hpp"
#include "core/convergence.hpp"
#include "obs/trace.hpp"
#include "physics/probe.hpp"
#include "tensor/framed.hpp"

namespace ptycho {

namespace rt {
class RankContext;
}  // namespace rt

/// Shared mutable solver state the passes operate on. All pointers borrow
/// from the owning solver; optional members are null when the pass list
/// does not use them (e.g. accbuf/probe on the HVE path).
struct SolverState {
  FramedVolume* volume = nullptr;
  Probe* probe = nullptr;
  AccumulationBuffer* accbuf = nullptr;
  CArray2D* probe_grad_field = nullptr;  ///< accumulated probe gradient
  real step = real(0);                   ///< preconditioned object descent step
  double sweep_cost = 0.0;               ///< running cost of the current iteration
  rt::RankContext* ctx = nullptr;        ///< null on the single-rank path
  CostHistory* cost = nullptr;           ///< recorded history sink
  std::mutex* cost_mutex = nullptr;      ///< guards *cost on tiled runs (else null)
};

/// Position of one chunk inside the schedule, including its item range
/// (the probe-sweep slice this chunk evaluates).
struct StepPoint {
  int iteration = 0;
  int chunk = 0;
  int chunks = 1;      ///< chunks per iteration
  index_t begin = 0;   ///< first sweep item of this chunk
  index_t end = 0;     ///< one past the last sweep item
};

// ---- resources & access sets ------------------------------------------------

/// The named shared resources passes operate on. Value members of
/// SolverState (sweep_cost, step) are NOT resources: the rank lane mutates
/// them in program order and background passes receive a value snapshot.
enum class Resource : std::uint8_t {
  kVolume = 0,      ///< the rank's (extended-tile) object volume
  kProbe,           ///< the probe wavefield
  kProbeGrad,       ///< the accumulated probe-gradient field
  kAccBuf,          ///< the rank's accumulation buffer
  kCost,            ///< the recorded CostHistory sink
  kFabric,          ///< the rank's message fabric + barriers (ordering!)
  kCheckpointDir,   ///< the snapshot directory tree on disk
};
inline constexpr int kResourceCount = 7;

[[nodiscard]] const char* to_string(Resource resource);

[[nodiscard]] constexpr std::uint32_t resource_bit(Resource r) {
  return std::uint32_t{1} << static_cast<int>(r);
}

/// A pass hook's declared read/write sets, as resource bitmasks. The
/// default for an unannotated pass is all(): reads and writes everything,
/// which conflicts with everything and therefore serializes — always
/// safe, never fast.
struct PassAccess {
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;

  PassAccess& read(Resource r) {
    reads |= resource_bit(r);
    return *this;
  }
  PassAccess& write(Resource r) {
    writes |= resource_bit(r);
    return *this;
  }
  [[nodiscard]] bool touches(Resource r) const {
    return ((reads | writes) & resource_bit(r)) != 0;
  }
  [[nodiscard]] static PassAccess all() {
    PassAccess a;
    a.reads = a.writes = (std::uint32_t{1} << kResourceCount) - 1;
    return a;
  }
  /// True when a pass with *this* access, issued earlier, must complete
  /// before one with `later` may run: RAW, WAR or WAW on any resource.
  [[nodiscard]] bool hazard_with(const PassAccess& later) const {
    return ((writes & (later.reads | later.writes)) | (reads & later.writes)) != 0;
  }
};

/// One stage of the pass graph. A pass may act per chunk, per iteration,
/// or both; the pipeline invokes the hooks of every pass in list order at
/// each point. The list order is the reference execution order, and the
/// executor only ever deviates from it (a background hook still running
/// while later hooks start) where the declared access sets prove the
/// deviation unobservable.
class Pass {
 public:
  virtual ~Pass() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Which Fig. 7b phase this pass's chunk hook is accounted under. The
  /// pipeline wraps every hook in an obs::SpanScope carrying this phase,
  /// so phase totals are derived from the same spans the tracer exports.
  /// kNone (the default) still traces the hook but attributes no phase —
  /// right for passes whose time is accounted at a finer grain inside
  /// (communication, waits, checkpoint writes).
  [[nodiscard]] virtual obs::Phase phase() const { return obs::Phase::kNone; }

  /// Resources the chunk hook reads/writes at `point`. The conservative
  /// default serializes; passes override with tight sets so the executor
  /// can prove overlap with a background hook safe. Access may depend on
  /// the point (e.g. the sweep only writes kProbeGrad on refinement
  /// iterations) but must be identical across ranks for a given point.
  [[nodiscard]] virtual PassAccess chunk_access(const StepPoint& point) const {
    (void)point;
    return PassAccess::all();
  }

  /// Resources the iteration hook reads/writes. Same contract as
  /// chunk_access.
  [[nodiscard]] virtual PassAccess iteration_access(int iteration) const {
    (void)iteration;
    return PassAccess::all();
  }

  /// True when the pass's hooks run on the background slot: the hook must
  /// not touch kFabric (validated — collective order must stay on the rank
  /// lane), must treat SolverState value members as a snapshot, and must
  /// tolerate running concurrently with later non-conflicting passes. A
  /// hook that declares no access at its point (a checkpoint hook off its
  /// cadence) has nothing to overlap and runs on the rank lane.
  [[nodiscard]] virtual bool background_eligible() const { return false; }

  /// Runs once per chunk.
  virtual void on_chunk(SolverState& state, const StepPoint& point) {
    (void)state;
    (void)point;
  }

  /// Runs once per completed iteration (after the iteration's last chunk
  /// hooks).
  virtual void on_iteration(SolverState& state, int iteration) {
    (void)state;
    (void)iteration;
  }

  /// Runs once after the full schedule, with no background work in
  /// flight — the place to complete deferred protocols (e.g. the last
  /// snapshot's manifest). Collective on tiled runs like the other hooks.
  virtual void on_finish(SolverState& state) { (void)state; }
};

/// The iteration/chunk schedule a pipeline runs: total extent plus the
/// restored start position of a resumed run.
struct PipelineSchedule {
  int iterations = 1;
  int chunks_per_iteration = 1;
  int start_iteration = 0;
  int start_chunk = 0;                  ///< within start_iteration (exact resume)
  double restored_partial_cost = 0.0;   ///< sweep cost already accumulated there
  index_t items = 0;                    ///< local sweep items per full iteration
};

class ReconstructionPipeline {
 public:
  /// Append a pass; returns it for further configuration. List order is
  /// execution order for both hooks.
  Pass& add(std::unique_ptr<Pass> pass);

  /// Construct-and-append convenience.
  template <class P, class... Args>
  P& emplace(Args&&... args) {
    return static_cast<P&>(add(std::make_unique<P>(std::forward<Args>(args)...)));
  }

  [[nodiscard]] usize size() const { return passes_.size(); }

  /// "sweep -> update -> checkpoint" — the graph as a human-readable
  /// string (logging and tests).
  [[nodiscard]] std::string describe() const;

  /// Drive the pass graph over the schedule. Collective on tiled runs:
  /// every rank must run the same schedule with a structurally identical
  /// pass list, and background completion never influences rank-lane
  /// collective order.
  void run(SolverState& state, const PipelineSchedule& schedule);

 private:
  /// Throws when the pass list is unsound for background execution (a
  /// background-eligible pass declaring fabric access).
  void validate_background() const;

  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace ptycho
