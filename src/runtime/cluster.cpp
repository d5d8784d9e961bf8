#include "runtime/cluster.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptycho::rt {

void RankContext::isend(int dst, Tag tag, std::vector<cplx> payload) {
  // Whole-call span: fabric enqueue cost is the virtual cluster's model of
  // send-side communication time.
  obs::SpanScope span("isend", obs::Phase::kComm);
  fabric_.isend(rank_, dst, tag, std::move(payload));
}

std::vector<cplx> RankContext::recv(int src, Tag tag) {
  double waited = 0.0;
  std::vector<cplx> payload = fabric_.recv(rank_, src, tag, &waited);
  // Only the blocked portion counts as wait; the fabric reports it.
  obs::account("recv-wait", obs::Phase::kWait, waited);
  return payload;
}

RecvRequest RankContext::irecv(int src, Tag tag) { return fabric_.irecv(rank_, src, tag); }

void RankContext::barrier() {
  WallTimer timer;
  cluster_.barrier_wait();
  obs::account("barrier", obs::Phase::kWait, timer.seconds());
}

void RankContext::fault_point(std::uint64_t step) { cluster_.maybe_fault(rank_, step); }

VirtualCluster::VirtualCluster(int nranks, std::uint64_t seed)
    : VirtualCluster(ClusterSpec{nranks, seed, TransportOptions{}}) {}

VirtualCluster::VirtualCluster(const ClusterSpec& spec)
    : nranks_(spec.nranks),
      seed_(spec.seed),
      distributed_(spec.transport.distributed()),
      local_rank_(distributed_ ? spec.transport.rank : -1),
      fabric_(make_transport(spec.transport, spec.nranks)),
      trackers_(static_cast<usize>(spec.nranks)),
      profilers_(static_cast<usize>(spec.nranks)),
      ledgers_(static_cast<usize>(spec.nranks)) {
  PTYCHO_REQUIRE(spec.nranks >= 1, "cluster needs at least one rank");
  // Hang detection for blocking receives (and everything riding on them:
  // collectives, the distributed barrier). The in-process barrier below
  // honors the same bound.
  fabric_.set_recv_deadline_ms(spec.transport.recv_deadline_ms);
}

void VirtualCluster::run(const RankBody& body) {
  // One thread per *local* rank: every rank in-process, just this
  // process's rank when peers are separate processes. Keeping the body on
  // a spawned thread in both modes keeps the tracker/obs identity setup on
  // one code path.
  std::vector<int> local;
  if (distributed_) {
    local.push_back(local_rank_);
  } else {
    for (int r = 0; r < nranks_; ++r) local.push_back(r);
  }

  std::vector<std::thread> threads;
  threads.reserve(local.size());
  std::vector<std::exception_ptr> errors(static_cast<usize>(nranks_));

  for (const int r : local) {
    threads.emplace_back([this, r, &body, &errors] {
      const auto ur = static_cast<usize>(r);
      TrackerScope scope(trackers_[ur]);
      // Identify this thread to the observability layer: spans carry the
      // rank, phase durations land in this rank's ledger, log lines get a
      // rank tag. Pool workers inherit the context per parallel region.
      obs::set_thread_context(obs::ThreadContext{r, &ledgers_[ur]});
      log::set_thread_rank(r);
      RankContext ctx(r, nranks_, fabric_, trackers_[ur], profilers_[ur], ledgers_[ur], *this,
                      seed_);
      try {
        body(ctx);
      } catch (...) {
        errors[ur] = std::current_exception();
        // A rank that dies of any error has failed for its peers: poison
        // the fabric so they raise RankFailure instead of waiting on it.
        poison();
      }
      // Final fold (also on the failure path): whatever the body accrued
      // since its last chunk boundary still reaches the profiler.
      ledgers_[ur].merge_into(profilers_[ur]);
      log::set_thread_rank(-1);
      obs::set_thread_context(obs::ThreadContext{});
    });
  }
  for (auto& t : threads) t.join();
  if (obs::tracing_enabled()) obs::Tracer::instance().drain_all();
  // Rethrow the root cause: a rank's own error before the RankFailures
  // its poison raised on the other ranks.
  std::exception_ptr rank_failure;
  for (auto& err : errors) {
    if (!err) continue;
    try {
      std::rethrow_exception(err);
    } catch (const RankFailure&) {
      if (!rank_failure) rank_failure = err;
    } catch (...) {
      throw;
    }
  }
  if (rank_failure) std::rethrow_exception(rank_failure);
}

const MemTracker& VirtualCluster::mem(int rank) const {
  PTYCHO_CHECK(rank >= 0 && rank < nranks_, "invalid rank");
  return trackers_[static_cast<usize>(rank)];
}

const PhaseProfiler& VirtualCluster::profiler(int rank) const {
  PTYCHO_CHECK(rank >= 0 && rank < nranks_, "invalid rank");
  return profilers_[static_cast<usize>(rank)];
}

double VirtualCluster::mean_peak_bytes() const {
  // Distributed mode only observed this process's rank; peer trackers are
  // empty and would drag the mean to a lie.
  double total = 0.0;
  int counted = 0;
  for (int r = 0; r < nranks_; ++r) {
    if (!is_local(r)) continue;
    total += static_cast<double>(trackers_[static_cast<usize>(r)].peak());
    ++counted;
  }
  return total / static_cast<double>(counted);
}

usize VirtualCluster::max_peak_bytes() const {
  usize best = 0;
  for (const auto& t : trackers_) best = std::max(best, t.peak());
  return best;
}

void VirtualCluster::barrier_wait_distributed() {
  // Dissemination barrier over fabric messages: ceil(log2 n) rounds, in
  // round k rank r pings (r + 2^k) mod n and waits for (r - 2^k) mod n.
  // A poisoned fabric makes the recv throw RankFailure, matching the
  // in-process barrier's abort semantics. Only this process's rank thread
  // calls this, so the generation counter needs no lock — it just keeps
  // consecutive barriers' tags disjoint.
  const std::uint64_t generation = barrier_generation_++;
  const int n = nranks_;
  const int r = local_rank_;
  int round = 0;
  for (int step = 1; step < n; step <<= 1, ++round) {
    const Tag tag =
        make_tag(Phase::kBarrier, static_cast<std::int64_t>((generation << 8) | static_cast<std::uint64_t>(round)));
    fabric_.isend(r, (r + step) % n, tag, std::vector<cplx>(1));
    (void)fabric_.recv(r, (r - step + n) % n, tag);
  }
}

void VirtualCluster::barrier_wait() {
  if (distributed_) {
    barrier_wait_distributed();
    return;
  }
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (barrier_poisoned_) throw RankFailure("barrier aborted: a rank has failed");
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_count_ == nranks_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    const auto released = [&] { return barrier_generation_ != generation || barrier_poisoned_; };
    const int deadline_ms = fabric_.recv_deadline_ms();
    if (deadline_ms > 0) {
      if (!barrier_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms), released)) {
        // A rank never arrived: mark the barrier dead for everyone still
        // coming, poison the fabric (waking blocked receives too), and
        // surface the hang as a rank failure here.
        barrier_poisoned_ = true;
        barrier_cv_.notify_all();
        lock.unlock();
        fabric_.poison();
        throw RankFailure("barrier timed out: a rank never arrived within the recv deadline");
      }
    } else {
      barrier_cv_.wait(lock, released);
    }
    if (barrier_generation_ == generation) {
      throw RankFailure("barrier aborted: a rank has failed");
    }
  }
}

void VirtualCluster::maybe_fault(int rank, std::uint64_t step) {
  if (!fault_.armed() || rank != fault_.rank || step < fault_.at_step) return;
  if (fault_fired_.exchange(true, std::memory_order_acq_rel)) return;  // fire once
  if (fault_.kind == FaultKind::kExit && distributed_) {
    // A real node loss: the process vanishes without a word. Peers learn
    // of it from the kernel-closed sockets (EOF without shutdown), which
    // is exactly the detection path recovery must exercise. In-process
    // clusters fall through to kThrow — _exit would take every rank down.
    log::warn() << "injected fault: rank " << rank << " hard-exiting at step " << step;
    std::fflush(nullptr);
    _exit(137);
  }
  poison();
  std::ostringstream os;
  os << "injected fault: rank " << rank << " killed at step " << step;
  throw RankFailure(os.str());
}

void VirtualCluster::poison() noexcept {
  fabric_.poison();
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_poisoned_ = true;
  }
  barrier_cv_.notify_all();
}

}  // namespace ptycho::rt
