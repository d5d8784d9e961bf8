#include "runtime/channel.hpp"

#include <chrono>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptycho::rt {

namespace {
using Key = std::pair<int, Tag>;  // (src, tag)
}

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
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto arrived_or_dead = [&] {
    if (state_->fabric->poisoned()) return true;
    auto it = box.queues.find(state_->key);
    return it != box.queues.end() && !it->second.empty();
  };
  const int deadline_ms = state_->fabric->recv_deadline_ms();
  if (deadline_ms > 0) {
    if (!box.cv.wait_for(lock, std::chrono::milliseconds(deadline_ms), arrived_or_dead)) {
      // Nothing arrived within the deadline: some rank is hung or dead.
      // Poison (cluster-wide, via the transport) so every peer's blocked
      // communication aborts too, then surface the failure here.
      lock.unlock();
      state_->fabric->poison();
      throw RankFailure("receive timed out: no matching message within the recv deadline");
    }
  } else {
    box.cv.wait(lock, arrived_or_dead);
  }
  {
    auto it = box.queues.find(state_->key);
    const bool have_message = it != box.queues.end() && !it->second.empty();
    if (!have_message && state_->fabric->poisoned()) {
      throw RankFailure("receive aborted: fabric poisoned by a rank failure");
    }
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
