// Point-to-point message fabric for the cluster.
//
// Models the MPI subset the paper's APPP technique needs: eager
// non-blocking sends (isend), non-blocking receives with request handles
// (irecv + test/wait), tag matching per (source, tag), and per-rank
// traffic statistics. The fabric itself is only the tag-matching layer:
// message *delivery* is delegated to a pluggable rt::Transport
// (runtime/transport.hpp) — a shared-memory handoff when all ranks are
// threads of this process, or TCP frames when each rank is its own
// process. Payloads are moved, never copied, on the in-process path; the
// *modeled* wire cost lives in runtime/perfmodel.
//
// Every transport ends in the same mailbox (Fabric::deliver), and every
// blocking receive takes one path: it polls the mailbox's arrival counter
// for a short wall-clock budget, yielding between polls, and only then
// parks on the mailbox's condition variable. A message that is
// microseconds away is taken without a futex sleep and wake-up; a long
// wait costs one budget of polling more than a bare park.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "runtime/transport.hpp"

namespace ptycho::obs {
class Counter;
}  // namespace ptycho::obs

namespace ptycho::rt {

/// Thrown on the failing rank by an injected fault, and on every other
/// rank whose blocking communication can no longer complete because the
/// fabric was poisoned by that failure (or, on the socket transport, by a
/// peer process disappearing). Catch this (rather than plain Error) to
/// implement checkpoint-based recovery.
class RankFailure : public Error {
 public:
  using Error::Error;
};

// ---------------------------------------------------------------------------
// Tag registry
// ---------------------------------------------------------------------------

/// Every communication phase in the system, centrally registered so two
/// subsystems can never collide on a tag space. A tag is
/// (phase << 48) | stage — see make_tag — so uniqueness of the phase ids
/// below is exactly tag-space disjointness between phases.
///
/// Adding a phase: append it here with the next free id, add it to
/// kAllPhases, and the uniqueness static_assert plus the registry test in
/// tests/test_transport.cpp keep the invariant honest.
enum class Phase : int {
  kVerticalForward = 1,    ///< APPP sweep chain, vertical forward passes
  kVerticalBackward = 2,   ///< APPP sweep chain, vertical backward passes
  kHorizontalForward = 3,  ///< APPP sweep chain, horizontal forward passes
  kHorizontalBackward = 4, ///< APPP sweep chain, horizontal backward passes
  kDirect = 5,             ///< direct pairwise gradient exchange
  kAllreduce = 6,          ///< gradient allreduce (non-APPP baseline)
  kPaste = 8,              ///< HVE halo paste exchange
  kCost = 9,               ///< global cost reduction
  kProbe = 10,             ///< probe refinement sync
  kRestore = 11,           ///< elastic checkpoint scatter-restore
  kRestoreProbe = 12,      ///< probe broadcast during restore
  kBarrier = 13,           ///< message-based barrier (distributed clusters)
  kTest = 14,              ///< reserved for unit tests
  kHeartbeat = 15,         ///< socket liveness pings (never tag-matched)
  kImage = 16,             ///< one slice gathered on rank 0 for --image (socket runs)
  kOutput = 17,            ///< socket ranks' check that they share one output
};

inline constexpr Phase kAllPhases[] = {
    Phase::kVerticalForward,  Phase::kVerticalBackward, Phase::kHorizontalForward,
    Phase::kHorizontalBackward, Phase::kDirect,         Phase::kAllreduce,
    Phase::kPaste,            Phase::kCost,             Phase::kProbe,
    Phase::kRestore,          Phase::kRestoreProbe,     Phase::kBarrier,
    Phase::kTest,             Phase::kHeartbeat,        Phase::kImage,
    Phase::kOutput,
};

[[nodiscard]] constexpr bool phases_unique() {
  for (usize i = 0; i < std::size(kAllPhases); ++i) {
    for (usize j = i + 1; j < std::size(kAllPhases); ++j) {
      if (kAllPhases[i] == kAllPhases[j]) return false;
    }
  }
  return true;
}
static_assert(phases_unique(), "rt::Phase ids must be unique — tag spaces would collide");

[[nodiscard]] const char* to_string(Phase phase);

/// Compose a tag from a registered phase and a sub-stage counter. The
/// stage is phase-private: collectives fold an instance number and a tree
/// step into it, point-to-point passes use chain step counters.
[[nodiscard]] constexpr Tag make_tag(Phase phase, std::int64_t stage) {
  return (static_cast<Tag>(phase) << 48) | (stage & ((Tag(1) << 48) - 1));
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

struct FabricStats {
  std::vector<std::uint64_t> bytes_sent;     ///< per source rank
  std::vector<std::uint64_t> messages_sent;  ///< per source rank
};

class Fabric;

/// Handle for a pending receive.
class RecvRequest {
 public:
  RecvRequest() = default;

  /// True once a matching message has arrived (non-blocking).
  [[nodiscard]] bool test();

  /// Block until the message arrives: poll briefly, then park. Returns
  /// the seconds from entry to arrival. Throws RankFailure when the
  /// fabric is poisoned or the recv deadline (counted from entry) passes.
  double wait();

  /// Take the payload (wait()s first if needed).
  [[nodiscard]] std::vector<cplx> take();

 private:
  friend class Fabric;
  struct State;
  std::shared_ptr<State> state_;
};

class Fabric {
 public:
  /// Historical constructor: all ranks in-process (InProcTransport).
  explicit Fabric(int nranks);
  /// Explicit-backend constructor; the fabric owns the transport.
  explicit Fabric(std::unique_ptr<Transport> transport);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] int nranks() const { return nranks_; }

  /// True when `rank`'s mailbox lives in this process. Receives may only
  /// be posted for local ranks; sends may target any rank.
  [[nodiscard]] bool is_local(int rank) const { return transport_->is_local(rank); }

  [[nodiscard]] const char* transport_name() const { return transport_->name(); }
  [[nodiscard]] TransportStats transport_stats() const { return transport_->stats(); }

  /// Non-blocking eager send; local destinations are enqueued immediately
  /// (local completion), remote ones are framed onto the wire by the
  /// transport. Matching is FIFO per (src, tag).
  void isend(int src, int dst, Tag tag, std::vector<cplx> payload);

  /// Post a receive for (src, tag) at local rank dst.
  [[nodiscard]] RecvRequest irecv(int dst, int src, Tag tag);

  /// Blocking receive convenience; returns the payload.
  [[nodiscard]] std::vector<cplx> recv(int dst, int src, Tag tag, double* wait_seconds = nullptr);

  [[nodiscard]] FabricStats stats() const;

  /// Transport-facing: enqueue a message into local rank dst's mailbox and
  /// wake its waiters. This is the single entry point through which every
  /// backend feeds the tag matcher.
  void deliver(int src, int dst, Tag tag, std::vector<cplx> payload);

  /// Mark the fabric dead (a rank failed): every blocked receive wakes and
  /// throws RankFailure, as does every receive posted afterwards. Sends
  /// become no-ops. The poison is propagated to peer processes by the
  /// transport, modeling the collective teardown a real MPI job
  /// experiences when a node disappears.
  void poison() noexcept;

  /// Transport-facing: poison without re-broadcasting (used when the
  /// poison *arrived* from a peer, or when the transport itself detected a
  /// dead peer — re-broadcasting would echo forever).
  void poison_local() noexcept;

  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Bound every blocking mailbox wait: a receive that stays unmatched
  /// for this long poisons the fabric and throws RankFailure instead of
  /// blocking forever (0 = wait indefinitely). Collectives ride on recv,
  /// so this bounds barriers and allreduces too — the in-process hang
  /// analogue of the socket liveness deadline.
  void set_recv_deadline_ms(int ms) noexcept {
    recv_deadline_ms_.store(ms, std::memory_order_release);
  }
  [[nodiscard]] int recv_deadline_ms() const noexcept {
    return recv_deadline_ms_.load(std::memory_order_acquire);
  }

 private:
  friend class RecvRequest;
  struct Mailbox;

  Mailbox& mailbox(int dst);

  int nranks_ = 0;
  // ~Fabric resets this explicitly before the members below die: the
  // transport's progress thread may touch mailboxes_/poisoned_ until joined.
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> poisoned_{false};
  std::atomic<int> recv_deadline_ms_{0};
  mutable std::mutex stats_mutex_;
  FabricStats stats_;
  // Per-backend obs attribution, resolved once at construction (a static
  // local would pin the first backend's name for the whole process).
  obs::Counter* messages_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* backend_messages_counter_ = nullptr;
  obs::Counter* backend_bytes_counter_ = nullptr;
  obs::Counter* recv_polled_counter_ = nullptr;
  obs::Counter* recv_parked_counter_ = nullptr;
};

}  // namespace ptycho::rt
