#include "runtime/channel.hpp"

#include <chrono>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptycho::rt {

namespace {
using Key = std::pair<int, Tag>;  // (src, tag)

// A blocking receive whose message is not there yet polls the mailbox's
// arrival counter for up to kPollBudget before it parks on the condition
// variable. On a 4-vCPU KVM guest a park costs the receiver a futex sleep
// and a vCPU wake-up, and most of gd-tiny-sync's APPP hops arrive within
// the budget: its median scaled_time_to_solution_s went from 0.974 to
// 0.904 s (9 of 10 alternating pairs; 0.988 to 0.898 s, 10 of 10, on a
// second seed). gd-small's millisecond-long imbalance waits mostly
// outlast the budget and park as before.
constexpr auto kPollBudget = std::chrono::microseconds(100);
// CPU relax hints per poll. Each poll then yields, so a sender that is
// descheduled on the receiver's core gets the CPU: with the yield, 9 rank
// threads on 4 vCPUs ran 300 GD iterations of `tiny` in 408 ms against
// 493 ms with a bare park (medians of 6 alternating pairs).
constexpr int kRelaxPerPoll = 1;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}
}  // namespace

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kVerticalForward: return "vertical-forward";
    case Phase::kVerticalBackward: return "vertical-backward";
    case Phase::kHorizontalForward: return "horizontal-forward";
    case Phase::kHorizontalBackward: return "horizontal-backward";
    case Phase::kDirect: return "direct";
    case Phase::kAllreduce: return "allreduce";
    case Phase::kPaste: return "paste";
    case Phase::kCost: return "cost";
    case Phase::kProbe: return "probe";
    case Phase::kRestore: return "restore";
    case Phase::kRestoreProbe: return "restore-probe";
    case Phase::kBarrier: return "barrier";
    case Phase::kTest: return "test";
    case Phase::kImage: return "image";
    case Phase::kOutput: return "output";
    case Phase::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

struct Fabric::Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<Key, std::deque<std::vector<cplx>>> queues;
  // Bumped under `mutex` by every deliver(): a polling receiver reads it
  // without the lock and takes the lock only when it moved.
  std::atomic<std::uint64_t> arrivals{0};
};

struct RecvRequest::State {
  Fabric* fabric = nullptr;
  Fabric::Mailbox* box = nullptr;
  Key key;
  bool taken = false;
};

Fabric::~Fabric() {
  // The transport must die first: a socket backend's progress thread keeps
  // calling deliver() / poison_local() until ~Transport joins it, so the
  // mailboxes and poison state it touches have to outlive the transport
  // regardless of member declaration order.
  transport_.reset();
}

Fabric::Fabric(int nranks) : Fabric(std::make_unique<InProcTransport>(nranks)) {}

Fabric::Fabric(std::unique_ptr<Transport> transport) : transport_(std::move(transport)) {
  PTYCHO_REQUIRE(transport_ != nullptr, "fabric needs a transport");
  nranks_ = transport_->nranks();
  PTYCHO_REQUIRE(nranks_ >= 1, "fabric needs at least one rank");
  mailboxes_.reserve(static_cast<usize>(nranks_));
  for (int r = 0; r < nranks_; ++r) mailboxes_.push_back(std::make_unique<Mailbox>());
  stats_.bytes_sent.assign(static_cast<usize>(nranks_), 0);
  stats_.messages_sent.assign(static_cast<usize>(nranks_), 0);
  // Resolve metric objects up front: the registry hands out stable
  // references, and per-backend names mean a static local cannot be used
  // (it would freeze whichever backend constructed a fabric first).
  const std::string backend = transport_->name();
  messages_counter_ = &obs::registry().counter("fabric_messages_total");
  bytes_counter_ = &obs::registry().counter("fabric_bytes_total");
  backend_messages_counter_ =
      &obs::registry().counter("fabric_messages_total_" + backend);
  backend_bytes_counter_ = &obs::registry().counter("fabric_bytes_total_" + backend);
  recv_polled_counter_ = &obs::registry().counter("fabric_recv_polled_total");
  recv_parked_counter_ = &obs::registry().counter("fabric_recv_parked_total");
  // attach() last: a socket transport starts its progress thread here and
  // may deliver() immediately, so the mailboxes must already exist.
  transport_->attach(*this);
}

Fabric::Mailbox& Fabric::mailbox(int dst) {
  PTYCHO_CHECK(dst >= 0 && dst < nranks_, "invalid destination rank " << dst);
  PTYCHO_CHECK(is_local(dst), "rank " << dst << " is not hosted by this process");
  return *mailboxes_[static_cast<usize>(dst)];
}

void Fabric::isend(int src, int dst, Tag tag, std::vector<cplx> payload) {
  PTYCHO_CHECK(src >= 0 && src < nranks_, "invalid source rank " << src);
  PTYCHO_CHECK(dst >= 0 && dst < nranks_, "invalid destination rank " << dst);
  if (poisoned()) return;  // the job is dead; drop traffic silently
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.bytes_sent[static_cast<usize>(src)] += payload.size() * sizeof(cplx);
    stats_.messages_sent[static_cast<usize>(src)] += 1;
  }
  if (obs::metrics_enabled()) {
    messages_counter_->add(1);
    bytes_counter_->add(payload.size() * sizeof(cplx));
    backend_messages_counter_->add(1);
    backend_bytes_counter_->add(payload.size() * sizeof(cplx));
  }
  transport_->send(src, dst, tag, std::move(payload));
}

void Fabric::deliver(int src, int dst, Tag tag, std::vector<cplx> payload) {
  if (poisoned()) return;  // a poisoned fabric is dead: don't re-litter mailboxes
  Mailbox& box = mailbox(dst);
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[Key{src, tag}].push_back(std::move(payload));
    box.arrivals.fetch_add(1, std::memory_order_release);
  }
  box.cv.notify_all();
}

RecvRequest Fabric::irecv(int dst, int src, Tag tag) {
  PTYCHO_CHECK(src >= 0 && src < nranks_, "invalid source rank " << src);
  RecvRequest req;
  req.state_ = std::make_shared<RecvRequest::State>();
  req.state_->fabric = this;
  req.state_->box = &mailbox(dst);
  req.state_->key = Key{src, tag};
  return req;
}

std::vector<cplx> Fabric::recv(int dst, int src, Tag tag, double* wait_seconds) {
  RecvRequest req = irecv(dst, src, tag);
  const double waited = req.wait();
  if (wait_seconds != nullptr) *wait_seconds = waited;
  return req.take();
}

FabricStats Fabric::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Fabric::poison_local() noexcept {
  poisoned_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) {
    // Take the mailbox lock so a receiver between its predicate check and
    // its cv wait cannot miss the wake-up.
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
}

void Fabric::poison() noexcept {
  poison_local();
  transport_->broadcast_poison();
}

bool RecvRequest::test() {
  PTYCHO_CHECK(state_ != nullptr, "RecvRequest not initialized");
  std::lock_guard<std::mutex> lock(state_->box->mutex);
  auto it = state_->box->queues.find(state_->key);
  if (it != state_->box->queues.end() && !it->second.empty()) return true;
  // Same contract as wait(): a message that can no longer arrive must
  // surface the failure, not leave the poller spinning forever.
  if (state_->fabric->poisoned()) {
    throw RankFailure("receive aborted: fabric poisoned by a rank failure");
  }
  return false;
}

double RecvRequest::wait() {
  PTYCHO_CHECK(state_ != nullptr, "RecvRequest not initialized");
  auto& box = *state_->box;
  Fabric& fabric = *state_->fabric;
  const auto start = std::chrono::steady_clock::now();
  const auto has_message = [&] {
    auto it = box.queues.find(state_->key);
    return it != box.queues.end() && !it->second.empty();
  };
  const auto arrived_or_dead = [&] { return fabric.poisoned() || has_message(); };
  std::unique_lock<std::mutex> lock(box.mutex);
  if (!arrived_or_dead()) {
    // Poll: the lock is taken again only when the arrival count moved, and
    // stays held once ours is there. The count is read under the lock, so
    // every delivery after the check above moves it.
    std::uint64_t seen = box.arrivals.load(std::memory_order_relaxed);
    lock.unlock();
    const auto poll_end = start + kPollBudget;
    while (!fabric.poisoned()) {
      const std::uint64_t now_seen = box.arrivals.load(std::memory_order_acquire);
      if (now_seen != seen) {
        seen = now_seen;
        lock.lock();
        if (has_message()) break;
        lock.unlock();
      }
      if (std::chrono::steady_clock::now() >= poll_end) break;
      for (int i = 0; i < kRelaxPerPoll; ++i) cpu_relax();
      std::this_thread::yield();
    }
    if (!lock.owns_lock()) lock.lock();
    if (arrived_or_dead()) {
      if (obs::metrics_enabled() && has_message()) fabric.recv_polled_counter_->add(1);
    } else {
      if (obs::metrics_enabled()) fabric.recv_parked_counter_->add(1);
      // Park. The deadline counts from entry, so the poll does not extend it.
      const int deadline_ms = fabric.recv_deadline_ms();
      if (deadline_ms > 0) {
        if (!box.cv.wait_until(lock, start + std::chrono::milliseconds(deadline_ms),
                               arrived_or_dead)) {
          // Nothing arrived within the deadline: some rank is hung or dead.
          // Poison (cluster-wide, via the transport) so every peer's blocked
          // communication aborts too, then surface the failure here.
          lock.unlock();
          fabric.poison();
          throw RankFailure("receive timed out: no matching message within the recv deadline");
        }
      } else {
        box.cv.wait(lock, arrived_or_dead);
      }
    }
  }
  if (!has_message()) {
    throw RankFailure("receive aborted: fabric poisoned by a rank failure");
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::vector<cplx> RecvRequest::take() {
  PTYCHO_CHECK(state_ != nullptr, "RecvRequest not initialized");
  PTYCHO_CHECK(!state_->taken, "RecvRequest payload already taken");
  wait();
  auto& box = *state_->box;
  std::lock_guard<std::mutex> lock(box.mutex);
  auto it = box.queues.find(state_->key);
  PTYCHO_CHECK(it != box.queues.end() && !it->second.empty(), "message vanished");
  std::vector<cplx> payload = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) box.queues.erase(it);
  state_->taken = true;
  return payload;
}

}  // namespace ptycho::rt
