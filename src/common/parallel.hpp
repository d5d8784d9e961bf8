// Intra-rank parallel execution: a reusable thread pool plus the
// work-stealing dispatcher that divides a sweep's batch across the pool's
// slots.
//
// The pool exists so the per-probe gradient sweep (the hot path of every
// solver) can scale with cores *without* changing results. Work-stealing
// keeps uneven per-item cost from leaving a straggler slot serializing
// the tail.
//
// Scheduling is deterministic where it matters: it only decides WHICH
// slot computes an item, never the order results are combined — callers
// that need a reduction merge per-item results in ascending item order
// (see core/sweep.hpp for the canonical pattern), so reconstructions are
// bitwise identical across thread counts. Worker threads temporarily
// adopt the submitting thread's allocation hooks, so tensor allocations
// made inside a parallel region are charged to the owning virtual-cluster
// rank exactly as sequential allocations are.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"
#include "common/memory.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace ptycho {

class ThreadPool {
 public:
  /// A pool that runs work on `threads` slots (>= 1). `threads == 0` uses
  /// hardware_threads(). One slot runs on the calling thread, so a pool of
  /// 1 spawns no workers and parallel_for degenerates to a plain loop.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution slots (worker threads + the calling thread).
  [[nodiscard]] int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads();

  /// Run fn(i, slot) for every i in [begin, end). The range is split into
  /// contiguous blocks, one per slot; slot s runs items
  /// [begin + s*chunk, begin + (s+1)*chunk) with chunk = ceil(n/slots).
  /// `slot` (in [0, threads())) identifies the per-worker scratch the call
  /// may use. Blocks until every item ran; the first exception thrown by
  /// any item is rethrown on the caller after the region completes. The
  /// callable only needs to live for the duration of the call.
  void parallel_for(index_t begin, index_t end, function_ref<void(index_t item, int slot)> fn);

 private:
  struct Region {
    function_ref<void(index_t, int)> fn;
    index_t begin = 0;
    index_t end = 0;
    index_t chunk = 0;
    AllocHooks hooks;        ///< submitting thread's hooks, adopted by workers
    obs::ThreadContext octx;  ///< submitting thread's obs identity, ditto
  };

  void worker_loop(int slot);
  void run_slot(const Region& region, int slot);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Region region_;
  std::uint64_t generation_ = 0;  ///< bumped once per parallel_for
  int pending_ = 0;               ///< workers still running the generation
  bool stop_ = false;
  std::exception_ptr first_error_;
};

// ---- background slot --------------------------------------------------------

/// Completion handle for one task submitted to a BackgroundWorker.
/// Default-constructed tickets are empty (valid() == false).
class BackgroundTicket {
 public:
  BackgroundTicket() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// True once the task has run (successfully or not). Non-blocking.
  [[nodiscard]] bool done() const;

  /// Block until the task finishes; rethrows the exception it threw, if
  /// any. Safe to call repeatedly (an error rethrows each time).
  void wait();

 private:
  friend class BackgroundWorker;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  };
  explicit BackgroundTicket(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// One background execution slot: a single worker thread draining a FIFO
/// of submitted tasks. Each task adopts the submitting thread's allocation
/// hooks, observability identity and log rank for its duration (the same
/// propagation ThreadPool regions perform), so background work — e.g. a
/// checkpoint shard write lifted off the rank lane — is still charged and
/// attributed to the owning virtual-cluster rank.
///
/// Tasks run strictly in submission order; the queue is unbounded.
/// Exceptions are captured into the task's ticket and rethrown by wait();
/// tasks nobody waits on have their errors dropped at destruction.
class BackgroundWorker {
 public:
  BackgroundWorker();
  /// Drains the queue (pending tasks still run to completion), then joins.
  ~BackgroundWorker();

  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  [[nodiscard]] BackgroundTicket submit(std::function<void()> task);

 private:
  struct Job {
    std::function<void()> fn;
    std::shared_ptr<BackgroundTicket::State> state;
    AllocHooks hooks;         ///< submitting thread's hooks, adopted for the task
    obs::ThreadContext octx;  ///< submitting thread's obs identity, ditto
  };

  void loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;
  bool stop_ = false;
  std::thread thread_;
};

// ---- sweep scheduling -------------------------------------------------------

/// Work-stealing over a pool's slots. Every slot starts with a contiguous
/// block of the range, pops items one at a time from its front, and —
/// once dry — scans the other slots in rotation order and steals the back
/// half of the first non-empty victim range it finds. Ranges are packed
/// {lo,hi} in one 64-bit atomic, so both the owner's pop and a thief's
/// steal are single CAS operations and the two ends never contend on the
/// same boundary until a range is nearly empty.
///
/// dispatch() runs fn(i, slot) exactly once per item with slot in
/// [0, slots()), blocks until every item ran, and rethrows the first
/// exception per ThreadPool::parallel_for. It never combines results —
/// callers own the (item-ordered) reduction. A one-slot pool runs a plain
/// loop.
class WorkStealingScheduler {
 public:
  explicit WorkStealingScheduler(ThreadPool& pool);

  /// Run fn(i, slot) for every i in [begin, end).
  void dispatch(index_t begin, index_t end, function_ref<void(index_t item, int slot)> fn);

 private:
  struct alignas(64) PackedRange {  // one cache line per slot: no false sharing
    std::atomic<std::uint64_t> bits{0};
  };

  ThreadPool& pool_;
  std::unique_ptr<PackedRange[]> ranges_;
};

}  // namespace ptycho
