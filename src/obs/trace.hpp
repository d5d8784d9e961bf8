// Span tracer + phase ledger: the observability core.
//
// Two consumers share one instrumentation point (SpanScope):
//
//  * The tracer records every span — name, [start, end) in ns, rank,
//    thread, iteration/chunk args — into a per-thread lock-free SPSC ring
//    drained at chunk boundaries into a process-wide collector, exported
//    as Chrome trace_event JSON (chrome://tracing, Perfetto).
//  * The phase ledger accumulates span durations into the five canonical
//    phases (compute/wait/comm/update/checkpoint) per rank, merged into
//    the rank's PhaseProfiler at chunk boundaries. The Fig. 7b breakdown
//    is therefore *derived from spans*: the profiler totals and the trace
//    are two views of the same measurements and cannot drift apart.
//
// Overhead contract: when tracing is off and no ledger is installed on the
// current thread, constructing a SpanScope is one relaxed atomic load, one
// TLS read and a branch — no clock reads, no allocation. Enabling tracing
// never allocates on the hot path either: rings are fixed-capacity and
// spans that do not fit are dropped (and counted).
//
// Thread model: each thread owns its ring (single producer); the collector
// is the only consumer and serializes drains under its mutex. Rank/ledger
// identity travels via a thread-local ThreadContext installed by the
// virtual cluster's rank threads and propagated to pool workers alongside
// the allocation hooks (common/parallel.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace ptycho::obs {

// ---- enable flags -----------------------------------------------------------

namespace detail {
/// Backing store for tracing_enabled(); use the accessors, not this.
extern std::atomic<bool> g_tracing;
}  // namespace detail

/// Cheap cached-atomic check; every instrumentation site branches on this.
/// Inline so hot paths pay one relaxed load, not a cross-TU call.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool on) noexcept;

// ---- phases -----------------------------------------------------------------

/// The canonical Fig. 7b phases plus kNone (traced but not accounted).
enum class Phase : std::uint8_t {
  kNone = 0,
  kCompute,
  kWait,
  kComm,
  kUpdate,
  kCheckpoint,
};
inline constexpr int kPhaseCount = 6;

/// Maps a phase to its ptycho::phase::* profiler key ("" for kNone).
[[nodiscard]] const char* phase_key(Phase phase) noexcept;

/// Per-rank span-duration accumulator, safe for concurrent adds from the
/// rank thread and its pool workers: threads hash onto cache-line-padded
/// slots of relaxed atomics, so the hot path is one fetch_add with no
/// sharing in the common case. merge_into() drains the cells into a
/// PhaseProfiler — call it only from the owning rank's thread at points
/// where no sweep is in flight (chunk boundaries, end of run).
class PhaseLedger {
 public:
  static constexpr int kSlots = 16;

  /// Add `ns` to `phase` from any thread (relaxed; no ordering needed —
  /// merge points are already synchronized by the pool join / barrier).
  void add(Phase phase, std::uint64_t ns) noexcept;

  /// Drain every cell into `prof` (exchange-to-zero, so repeated merges
  /// never double-count). kNone durations are not accumulated.
  void merge_into(PhaseProfiler& prof) noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> ns[kPhaseCount];
  };
  Cell cells_[kSlots];
};

// ---- thread context ---------------------------------------------------------

/// Rank identity + phase sink for the current thread. Installed by the
/// virtual cluster on rank threads; ThreadPool workers adopt the
/// submitting thread's context for the duration of a parallel region.
struct ThreadContext {
  int rank = -1;                  ///< -1: single-rank / unattributed
  PhaseLedger* ledger = nullptr;  ///< null: no phase accounting
};

[[nodiscard]] ThreadContext thread_context() noexcept;
/// Install `ctx` for this thread; returns the previous context (restore
/// it when leaving the scope that installed it).
ThreadContext set_thread_context(const ThreadContext& ctx) noexcept;

// ---- records ----------------------------------------------------------------

/// Nanoseconds since the process-wide trace epoch (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// One completed span (or instant event) as stored in the rings. `name`
/// must be a string with static storage duration — the rings never copy.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t rank = -1;
  std::int32_t tid = 0;
  std::int32_t iteration = -1;  ///< -1: not tied to a schedule position
  std::int32_t chunk = -1;
  Phase phase = Phase::kNone;
  bool instant = false;  ///< true: a point event ("i"), duration ignored
};

// ---- tracer -----------------------------------------------------------------

/// Process-wide collector of drained spans. Thread rings register lazily
/// on first push and are never deallocated (threads may outlive runs);
/// clear() empties collected spans and resets rings without invalidating
/// any thread's registration.
class Tracer {
 public:
  static Tracer& instance();

  /// Push onto the calling thread's ring (drops + counts when full).
  /// Callers should gate on tracing_enabled(); push itself is
  /// unconditional so tests can drive it directly.
  void push(const SpanRecord& record);

  /// Move every ring's pending records into the collector. Safe from any
  /// thread, any time (consumer side is serialized internally).
  void drain_all();

  /// drain_all() + copy of everything collected so far.
  [[nodiscard]] std::vector<SpanRecord> snapshot();

  /// Spans lost to full rings since the last clear().
  [[nodiscard]] std::uint64_t dropped();

  /// Drop collected spans, empty the rings, reset the drop counter.
  void clear();

  /// Chrome trace_event JSON of everything collected (drains first).
  /// ts/dur are microseconds; pid is the rank (-1 folds to 0), tid the
  /// ring's registration id. Loadable in Perfetto / chrome://tracing.
  [[nodiscard]] std::string chrome_trace_json();
  void write_chrome_trace(const std::string& path);

 private:
  Tracer() = default;
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();
  void drain_one(ThreadBuffer& buffer);  // caller holds collect_mutex_

  std::mutex collect_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // registration order
  std::vector<SpanRecord> collected_;
  std::uint64_t dropped_total_ = 0;
};

// ---- scopes -----------------------------------------------------------------

/// RAII span: actives itself only when the trace or the ledger wants the
/// measurement, otherwise costs a branch. One clock read per end.
class SpanScope {
 public:
  explicit SpanScope(const char* name, Phase phase = Phase::kNone, int iteration = -1,
                     int chunk = -1) noexcept
      : name_(name), iteration_(iteration), chunk_(chunk), phase_(phase) {
    traced_ = tracing_enabled();
    if (phase != Phase::kNone) ledger_ = thread_context().ledger;
    if (traced_ || ledger_ != nullptr) start_ns_ = now_ns();
  }
  ~SpanScope() { finish(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void finish() noexcept;

  const char* name_;
  PhaseLedger* ledger_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::int32_t iteration_;
  std::int32_t chunk_;
  Phase phase_;
  bool traced_ = false;
};

/// Account an externally measured duration ending "now": adds `seconds`
/// to the thread's ledger under `phase` and, when tracing, emits a span
/// covering [now - seconds, now]. Used where the blocked time is reported
/// by the primitive itself (fabric recv, barrier).
void account(const char* name, Phase phase, double seconds, int iteration = -1,
             int chunk = -1) noexcept;

/// Emit an instant event (tracing only; no ledger effect).
void instant(const char* name) noexcept;

}  // namespace ptycho::obs
