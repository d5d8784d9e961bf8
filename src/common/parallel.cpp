#include "common/parallel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace ptycho {

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  if (threads == 0) threads = hardware_threads();
  PTYCHO_REQUIRE(threads >= 1, "thread pool needs at least one slot");
  workers_.reserve(static_cast<usize>(threads - 1));
  for (int s = 1; s < threads; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_slot(const Region& region, int slot) {
  const index_t lo = region.begin + static_cast<index_t>(slot) * region.chunk;
  const index_t hi = std::min(region.end, lo + region.chunk);
  for (index_t i = lo; i < hi; ++i) region.fn(i, slot);
}

void ThreadPool::worker_loop(int slot) {
  std::uint64_t seen = 0;
  for (;;) {
    Region region;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      region = region_;
    }
    // Account this worker's allocations to the submitting thread's tracker
    // (per-rank device-memory accounting must not depend on thread count),
    // and adopt its observability identity so spans emitted inside the
    // region carry the owning rank and phase time lands in its ledger.
    const AllocHooks previous = set_thread_alloc_hooks(region.hooks);
    const obs::ThreadContext prev_octx = obs::set_thread_context(region.octx);
    const int prev_rank = log::set_thread_rank(region.octx.rank);
    std::exception_ptr error;
    try {
      run_slot(region, slot);
    } catch (...) {
      error = std::current_exception();
    }
    log::set_thread_rank(prev_rank);
    obs::set_thread_context(prev_octx);
    set_thread_alloc_hooks(previous);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error != nullptr && first_error_ == nullptr) first_error_ = error;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(index_t begin, index_t end, function_ref<void(index_t, int)> fn) {
  const index_t n = end - begin;
  if (n <= 0) return;
  const auto slots = static_cast<index_t>(threads());
  if (slots == 1 || n == 1) {
    for (index_t i = begin; i < end; ++i) fn(i, 0);
    return;
  }
  Region region;
  region.fn = fn;
  region.begin = begin;
  region.end = end;
  region.chunk = (n + slots - 1) / slots;
  region.hooks = thread_alloc_hooks();
  region.octx = obs::thread_context();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    region_ = region;
    first_error_ = nullptr;
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller is slot 0 — it works instead of idling while workers run.
  std::exception_ptr caller_error;
  try {
    run_slot(region, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  std::exception_ptr error = caller_error != nullptr ? caller_error : first_error_;
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

// ---- background slot --------------------------------------------------------

bool BackgroundTicket::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void BackgroundTicket::wait() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error != nullptr) std::rethrow_exception(state_->error);
}

BackgroundWorker::BackgroundWorker() : thread_([this] { loop(); }) {}

BackgroundWorker::~BackgroundWorker() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

BackgroundTicket BackgroundWorker::submit(std::function<void()> task) {
  PTYCHO_REQUIRE(task != nullptr, "cannot submit an empty background task");
  auto state = std::make_shared<BackgroundTicket::State>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PTYCHO_REQUIRE(!stop_, "background worker is shutting down");
    queue_.push_back(Job{std::move(task), state, thread_alloc_hooks(), obs::thread_context()});
  }
  work_cv_.notify_all();
  return BackgroundTicket(std::move(state));
}

void BackgroundWorker::loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // Same adoption dance as ThreadPool::worker_loop: charge allocations
    // and attribute spans/logs to the submitting rank.
    const AllocHooks previous = set_thread_alloc_hooks(job.hooks);
    const obs::ThreadContext prev_octx = obs::set_thread_context(job.octx);
    const int prev_rank = log::set_thread_rank(job.octx.rank);
    std::exception_ptr error;
    try {
      job.fn();
    } catch (...) {
      error = std::current_exception();
    }
    log::set_thread_rank(prev_rank);
    obs::set_thread_context(prev_octx);
    set_thread_alloc_hooks(previous);
    {
      std::lock_guard<std::mutex> lock(job.state->mutex);
      job.state->done = true;
      job.state->error = error;
    }
    job.state->cv.notify_all();
  }
}

// ---- sweep scheduling -------------------------------------------------------

namespace {

constexpr std::uint64_t pack_range(std::uint64_t lo, std::uint64_t hi) {
  return (lo << 32) | hi;
}
constexpr index_t range_lo(std::uint64_t bits) { return static_cast<index_t>(bits >> 32); }
constexpr index_t range_hi(std::uint64_t bits) {
  return static_cast<index_t>(bits & 0xffffffffu);
}

}  // namespace

WorkStealingScheduler::WorkStealingScheduler(ThreadPool& pool)
    : pool_(pool), ranges_(std::make_unique<PackedRange[]>(static_cast<usize>(pool.threads()))) {}

void WorkStealingScheduler::dispatch(index_t begin, index_t end,
                                     function_ref<void(index_t, int)> fn) {
  const index_t n = end - begin;
  if (n <= 0) return;
  const auto nslots = static_cast<index_t>(pool_.threads());
  if (nslots == 1 || n == 1) {
    for (index_t i = begin; i < end; ++i) fn(i, 0);
    return;
  }
  // Ranges are packed as two 32-bit halves; sweep batches are tiny (a
  // handful of probes per dispatch), so this bound is structural only.
  PTYCHO_REQUIRE(n < (index_t{1} << 31), "work-stealing range exceeds 2^31 items");

  // Seed each slot with the static partition's block, offsets in [0, n).
  const index_t block = (n + nslots - 1) / nslots;
  for (index_t s = 0; s < nslots; ++s) {
    const index_t lo = std::min(n, s * block);
    const index_t hi = std::min(n, lo + block);
    ranges_[static_cast<usize>(s)].bits.store(
        pack_range(static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)),
        std::memory_order_relaxed);
  }

  auto& ranges = ranges_;
  // Flags are sampled once per dispatch so the hot loops below pay a plain
  // bool test, not an atomic load per item.
  const bool count = obs::metrics_enabled();
  const bool traced = obs::tracing_enabled();
  std::atomic<std::uint64_t> pops{0};
  std::atomic<std::uint64_t> steals{0};
  const auto worker = [&ranges, nslots, begin, fn, count, traced, &pops, &steals](index_t s,
                                                                                   int slot) {
    (void)s;  // with n == nslots parallel_for maps item s onto slot s
    // Drain our own block from the front, one item per CAS.
    auto& own = ranges[static_cast<usize>(slot)].bits;
    for (;;) {
      std::uint64_t bits = own.load(std::memory_order_acquire);
      const index_t lo = range_lo(bits);
      const index_t hi = range_hi(bits);
      if (lo >= hi) break;
      if (!own.compare_exchange_weak(
              bits, pack_range(static_cast<std::uint64_t>(lo + 1), static_cast<std::uint64_t>(hi)),
              std::memory_order_acq_rel)) {
        continue;  // a thief moved hi (or a retry raced); re-read
      }
      if (count) pops.fetch_add(1, std::memory_order_relaxed);
      fn(begin + lo, slot);
    }
    // Steal: scan the other slots until a full pass finds everyone dry.
    // Thieves take the back half (at least one item), leaving the owner's
    // front-pop end untouched — owner and thief only collide on the CAS
    // when a range is nearly empty.
    for (;;) {
      bool any_left = false;
      for (index_t k = 1; k < nslots; ++k) {
        const index_t victim = (static_cast<index_t>(slot) + k) % nslots;
        auto& bits_ref = ranges[static_cast<usize>(victim)].bits;
        std::uint64_t bits = bits_ref.load(std::memory_order_acquire);
        const index_t lo = range_lo(bits);
        const index_t hi = range_hi(bits);
        if (lo >= hi) continue;
        any_left = true;
        const index_t remaining = hi - lo;
        const index_t take = std::max<index_t>(1, remaining / 2);
        const index_t new_hi = hi - take;
        if (!bits_ref.compare_exchange_weak(
                bits, pack_range(static_cast<std::uint64_t>(lo),
                                 static_cast<std::uint64_t>(new_hi)),
                std::memory_order_acq_rel)) {
          continue;  // raced; the rescan will retry this victim
        }
        if (count) steals.fetch_add(1, std::memory_order_relaxed);
        if (traced) obs::instant("steal");
        for (index_t i = new_hi; i < hi; ++i) fn(begin + i, slot);
      }
      if (!any_left) return;
    }
  };
  // One "item" per slot: parallel_for's static map runs worker s on slot s,
  // reusing the pool's alloc-hook propagation and exception rethrow.
  pool_.parallel_for(0, nslots, worker);
  if (count) {
    static obs::Counter& pop_counter = obs::registry().counter("scheduler_pops_total");
    static obs::Counter& steal_counter = obs::registry().counter("scheduler_steals_total");
    pop_counter.add(pops.load(std::memory_order_relaxed));
    steal_counter.add(steals.load(std::memory_order_relaxed));
  }
}

}  // namespace ptycho
