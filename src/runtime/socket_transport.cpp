#include "runtime/socket_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/channel.hpp"

namespace ptycho::rt {

namespace {

constexpr std::uint32_t kMagic = 0x50545946u;  // "PTYF"
// kMagic as a peer of the other byte order writes it. The wire format is
// host-endian, so such a peer is refused by name at the handshake.
constexpr std::uint32_t kForeignMagic = __builtin_bswap32(kMagic);

// Upper bound on a data frame's element count. Generous (several GiB of
// payload) but finite, so a corrupt length field fails fast instead of
// throwing std::bad_alloc off the progress thread.
constexpr std::uint64_t kMaxFrameElems = 1ull << 28;

enum FrameType : std::uint32_t {
  kHello = 0,     ///< handshake: src = connector's rank
  kData = 1,      ///< fabric message
  kPoison = 2,    ///< remote fabric poisoned (rank failure)
  kShutdown = 3,  ///< orderly close follows
  kPing = 4,      ///< heartbeat: refreshes the sender's liveness clock
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t type = kData;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int64_t tag = 0;
  std::uint64_t count = 0;  ///< payload length in cplx elements
  std::uint32_t generation = 0;
  std::uint32_t checksum = 0;  ///< CRC32 of header (this field zeroed) + payload
};
static_assert(sizeof(FrameHeader) == 40, "wire header layout drifted");

/// CRC32 over the header (checksum field zeroed) and the payload bytes.
std::uint32_t frame_checksum(FrameHeader header, const void* payload, usize payload_bytes) {
  header.checksum = 0;
  std::uint32_t crc = crc32(&header, sizeof(header));
  if (payload_bytes > 0) crc = crc32(payload, payload_bytes, crc);
  return crc;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Read exactly n bytes; false on EOF-before-any / error.
bool read_exact(int fd, void* buf, usize n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<usize>(got);
      continue;
    }
    if (got < 0 && (errno == EINTR)) continue;
    return false;  // EOF (0) or hard error
  }
  return true;
}

/// Write exactly n bytes; false on error. MSG_NOSIGNAL: a dead peer must
/// surface as an error we map onto poison, not a SIGPIPE.
bool write_exact(int fd, const void* buf, usize n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= static_cast<usize>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

int make_listener(const PeerAddr& addr, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PTYCHO_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  // Restart-after-fault rebinds the same port while the old connections
  // sit in TIME_WAIT; without SO_REUSEADDR checkpoint recovery would need
  // a fresh roster every attempt.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    const int err = errno;
    ::close(fd);
    PTYCHO_FAIL("bind(" << addr.host << ":" << addr.port
                        << ") failed: " << std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    PTYCHO_FAIL("listen failed: " << std::strerror(err));
  }
  return fd;
}

int connect_with_retry(const PeerAddr& addr, std::chrono::milliseconds timeout) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    // Not a dotted quad — resolve the name.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    PTYCHO_CHECK(::getaddrinfo(addr.host.c_str(), nullptr, &hints, &res) == 0 && res != nullptr,
                 "cannot resolve peer host '" << addr.host << "'");
    sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    PTYCHO_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    // Peers start concurrently: refused just means the listener is not up
    // yet. Anything past the deadline is a genuinely absent peer.
    PTYCHO_CHECK(std::chrono::steady_clock::now() < deadline,
                 "connect to peer " << addr.host << ":" << addr.port << " timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

SocketTransport::SocketTransport(int rank, std::vector<PeerAddr> peers,
                                 const TransportOptions& options)
    : rank_(rank),
      peers_(std::move(peers)),
      generation_(options.generation),
      connect_timeout_ms_(options.connect_timeout_ms),
      shutdown_drain_ms_(options.shutdown_drain_ms),
      heartbeat_ms_(options.heartbeat_ms),
      liveness_timeout_ms_(options.liveness_timeout_ms) {
  PTYCHO_REQUIRE(!peers_.empty(), "socket transport needs a peer roster");
  PTYCHO_REQUIRE(rank_ >= 0 && rank_ < nranks(), "rank outside roster");
  PTYCHO_REQUIRE(connect_timeout_ms_ > 0, "connect timeout must be positive");
  PTYCHO_REQUIRE(shutdown_drain_ms_ > 0, "shutdown drain deadline must be positive");
  conns_.resize(peers_.size());
  for (auto& c : conns_) c = std::make_unique<Peer>();
}

void SocketTransport::attach(Fabric& fabric) {
  PTYCHO_CHECK(fabric_ == nullptr, "transport already attached");
  fabric_ = &fabric;
  const int n = nranks();
  if (n == 1) return;  // no peers, no wire, no progress thread

  // Listener first, then connect downward: with every process following
  // the same order, a connect can at worst find the peer's backlog (bound
  // + listening) still working through accepts — never a missing socket
  // past the retry window.
  const int listener = make_listener(peers_[static_cast<usize>(rank_)], n);
  const auto mesh_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(connect_timeout_ms_);

  for (int r = 0; r < rank_; ++r) {
    const int fd = connect_with_retry(peers_[static_cast<usize>(r)],
                                      std::chrono::milliseconds(connect_timeout_ms_));
    FrameHeader hello;
    hello.type = kHello;
    hello.src = rank_;
    hello.dst = r;
    hello.generation = generation_;
    hello.checksum = frame_checksum(hello, nullptr, 0);
    if (!write_exact(fd, &hello, sizeof(hello))) {
      ::close(fd);
      ::close(listener);
      PTYCHO_FAIL("handshake with rank " << r << " failed");
    }
    conns_[static_cast<usize>(r)]->fd = fd;
  }

  // Accept from all higher ranks, bounded by the same formation deadline
  // the connect side uses: a roster entry that never starts (or a stale
  // process from an old generation knocking in a loop) must fail the
  // attach, not hang it. Hellos from another generation are refused —
  // closed and not counted — so a straggler cannot occupy a mesh slot.
  for (int accepted = 0; accepted < n - 1 - rank_;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        mesh_deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      ::close(listener);
      PTYCHO_FAIL("mesh formation timed out waiting for " << (n - 1 - rank_ - accepted)
                                                          << " higher rank(s)");
    }
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno != EINTR) {
      ::close(listener);
      PTYCHO_FAIL("poll on listener failed: " << std::strerror(errno));
    }
    if (ready <= 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      ::close(listener);
      PTYCHO_FAIL("accept failed: " << std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    FrameHeader hello{};
    const bool received = read_exact(fd, &hello, sizeof(hello));
    const char* refusal = nullptr;
    if (received && hello.magic == kForeignMagic) {
      refusal = "a connecting peer has a different byte order (the wire format is "
                "host-endian: every rank must run on the same architecture)";
    } else if (!received || hello.magic != kMagic || hello.type != kHello ||
               hello.src <= rank_ || hello.src >= n ||
               hello.checksum != frame_checksum(hello, nullptr, 0)) {
      refusal = "bad handshake from a connecting peer";
    }
    if (refusal != nullptr) {
      ::close(fd);
      ::close(listener);
      PTYCHO_FAIL(refusal);
    }
    if (hello.generation != generation_) {
      log::warn() << "refusing hello from rank " << hello.src << " of generation "
                  << hello.generation << " (this cluster is generation " << generation_ << ")";
      ::close(fd);
      continue;  // not counted: the slot stays open for the real peer
    }
    conns_[static_cast<usize>(hello.src)]->fd = fd;
    ++accepted;
  }
  // The mesh is static; close the listener so a successor transport (a
  // restarted run after a fault) can rebind the port.
  ::close(listener);

  // Liveness clocks start at mesh completion — peers proved themselves
  // alive by handshaking just now.
  const std::int64_t now = steady_now_ns();
  for (auto& c : conns_) {
    c->last_rx_ns.store(now, std::memory_order_relaxed);
    c->last_tx_ns.store(now, std::memory_order_relaxed);
  }

  PTYCHO_CHECK(::pipe(wake_pipe_.data()) == 0, "pipe() failed: " << std::strerror(errno));
  progress_ = std::thread([this] { progress_loop(); });
}

SocketTransport::~SocketTransport() {
  stopping_.store(true, std::memory_order_release);
  // Orderly close: the shutdown frame lets peers distinguish our exit from
  // our death. TCP ordering guarantees every data frame we sent precedes it.
  // No fd pre-check here: the progress thread may be closing fds under
  // send_mutex right now, and send_control rechecks under that lock.
  for (int r = 0; r < nranks(); ++r) {
    if (r != rank_) send_control(r, kShutdown);
  }
  // Bound the drain: a peer that is alive but hung — never tearing down,
  // never closing its socket — must not pin progress_.join() (and with it
  // ~Fabric) forever.
  drain_deadline_ns_.store(
      steady_now_ns() +
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::milliseconds(shutdown_drain_ms_))
              .count(),
      std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (progress_.joinable()) progress_.join();
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void SocketTransport::send(int src, int dst, Tag tag, std::vector<cplx> payload) {
  PTYCHO_CHECK(fabric_ != nullptr, "transport not attached to a fabric");
  if (dst == rank_) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.messages_out += 1;
      stats_.bytes_out += payload.size() * sizeof(cplx);
    }
    fabric_->deliver(src, dst, tag, std::move(payload));
    return;
  }
  // A wedged process is hung: nothing it "sends" reaches the wire. The
  // silence is what the peers' liveness deadline exists to catch.
  if (wedged_.load(std::memory_order_acquire)) return;
  Peer& peer = *conns_[static_cast<usize>(dst)];
  FrameHeader header;
  header.type = kData;
  header.src = src;
  header.dst = dst;
  header.tag = tag;
  header.count = payload.size();
  header.generation = generation_;
  const usize payload_bytes = payload.size() * sizeof(cplx);
  header.checksum = frame_checksum(header, payload.data(), payload_bytes);
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(peer.send_mutex);
    if (peer.fd >= 0) {
      ok = write_exact(peer.fd, &header, sizeof(header)) &&
           (payload_bytes == 0 || write_exact(peer.fd, payload.data(), payload_bytes));
    }
  }
  if (!ok) {
    fail("send to a peer failed");
    return;
  }
  peer.last_tx_ns.store(steady_now_ns(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.messages_out += 1;
  stats_.bytes_out += sizeof(header) + payload_bytes;
}

bool SocketTransport::send_corrupted(int src, int dst, Tag tag, std::vector<cplx> payload) {
  PTYCHO_CHECK(fabric_ != nullptr, "transport not attached to a fabric");
  if (dst == rank_ || wedged_.load(std::memory_order_acquire)) return true;  // nothing to corrupt
  Peer& peer = *conns_[static_cast<usize>(dst)];
  FrameHeader header;
  header.type = kData;
  header.src = src;
  header.dst = dst;
  header.tag = tag;
  header.count = payload.size();
  header.generation = generation_;
  const usize payload_bytes = payload.size() * sizeof(cplx);
  // A deliberately wrong checksum: the frame is otherwise well-formed, so
  // the receiver's integrity check — not a length or magic accident — is
  // what must catch it.
  header.checksum = frame_checksum(header, payload.data(), payload_bytes) ^ 0x5A5A5A5Au;
  std::lock_guard<std::mutex> lock(peer.send_mutex);
  if (peer.fd >= 0) {
    (void)(write_exact(peer.fd, &header, sizeof(header)) &&
           (payload_bytes == 0 || write_exact(peer.fd, payload.data(), payload_bytes)));
  }
  return true;
}

void SocketTransport::send_control(int peer_rank, std::uint32_t type, Tag tag) noexcept {
  if (wedged_.load(std::memory_order_acquire)) return;  // hung processes say nothing
  Peer& peer = *conns_[static_cast<usize>(peer_rank)];
  FrameHeader header;
  header.type = type;
  header.src = rank_;
  header.dst = peer_rank;
  header.tag = tag;
  header.generation = generation_;
  header.checksum = frame_checksum(header, nullptr, 0);
  std::lock_guard<std::mutex> lock(peer.send_mutex);
  if (peer.fd >= 0) {
    // Best effort: a peer that is already gone cannot be told anything.
    if (write_exact(peer.fd, &header, sizeof(header))) {
      peer.last_tx_ns.store(steady_now_ns(), std::memory_order_relaxed);
    }
  }
}

void SocketTransport::broadcast_poison() noexcept {
  for (int r = 0; r < nranks(); ++r) {
    if (r != rank_) send_control(r, kPoison);
  }
}

void SocketTransport::fail(const char* what, bool broadcast) noexcept {
  if (stopping_.load(std::memory_order_acquire)) return;  // our own teardown
  log::warn() << "socket transport: " << what << " — poisoning fabric";
  if (fabric_ == nullptr) return;
  if (broadcast) {
    // The peers cannot see this failure on their own wire (a silent peer
    // looks idle, a corrupt frame was addressed to us alone): tell them.
    // Receivers poison locally without re-broadcasting, so no echo storm.
    // Spelled as poison_local + own broadcast rather than fabric_->poison():
    // this runs on the progress thread, and Fabric::poison() reads the
    // fabric's transport pointer — which ~Fabric is resetting when teardown
    // races a late failure.
    fabric_->poison_local();
    broadcast_poison();
  } else {
    // poison_local, not poison(): the failure is already visible wire-wide
    // (each peer observes the dead connection itself); re-broadcasting from
    // every survivor would echo poison frames at shutdown.
    fabric_->poison_local();
  }
}

bool SocketTransport::read_frame(int peer_rank) {
  Peer& peer = *conns_[static_cast<usize>(peer_rank)];
  FrameHeader header{};
  if (!read_exact(peer.fd, &header, sizeof(header))) return false;
  if (header.magic != kMagic) {
    fail("corrupt frame (bad magic)", /*broadcast=*/true);
    return false;
  }
  // header.count comes off the wire: bound it before trusting it with an
  // allocation, whatever the frame type claims to be.
  if (header.count > kMaxFrameElems) {
    fail("corrupt frame (implausible payload size)", /*broadcast=*/true);
    return false;
  }
  std::vector<cplx> payload(static_cast<usize>(header.count));
  if (header.count > 0 &&
      !read_exact(peer.fd, payload.data(), payload.size() * sizeof(cplx))) {
    return false;
  }
  if (header.checksum !=
      frame_checksum(header, payload.data(), payload.size() * sizeof(cplx))) {
    if (obs::metrics_enabled()) {
      obs::registry().counter("runtime.transport.checksum_failures_total").add(1);
    }
    fail("corrupt frame (checksum mismatch)", /*broadcast=*/true);
    return false;
  }
  // Any verified frame proves the peer alive, whatever else we do with it.
  peer.last_rx_ns.store(steady_now_ns(), std::memory_order_relaxed);
  if (header.generation != generation_ && header.type != kShutdown) {
    // A straggler from a previous cluster incarnation: its data must not
    // tag-match the new run, and its poison must not kill it. (A stale
    // shutdown still means "this connection is closing" and stays valid.)
    if (obs::metrics_enabled()) {
      obs::registry().counter("runtime.recovery.stale_frames_total").add(1);
    }
    return true;
  }
  switch (header.type) {
    case kData: {
      if (header.dst != rank_) {
        fail("corrupt frame (destination is not this rank)", /*broadcast=*/true);
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.messages_in += 1;
        stats_.bytes_in += sizeof(header) + payload.size() * sizeof(cplx);
      }
      fabric_->deliver(header.src, header.dst, header.tag, std::move(payload));
      return true;
    }
    case kPoison:
      fabric_->poison_local();
      return true;
    case kShutdown:
      peer.shutdown.store(true, std::memory_order_release);
      return true;
    case kPing:
      return true;  // its work — refreshing last_rx — is already done
    default:
      fail("corrupt frame (unknown type)", /*broadcast=*/true);
      return false;
  }
}

void SocketTransport::send_heartbeats(std::int64_t now_ns) noexcept {
  if (heartbeat_ms_ <= 0 || stopping_.load(std::memory_order_acquire)) return;
  const std::int64_t interval_ns = std::int64_t(heartbeat_ms_) * 1'000'000;
  for (int r = 0; r < nranks(); ++r) {
    if (r == rank_) continue;
    Peer& peer = *conns_[static_cast<usize>(r)];
    if (peer.fd < 0) continue;
    if (now_ns - peer.last_tx_ns.load(std::memory_order_relaxed) < interval_ns) continue;
    send_control(r, kPing, make_tag(Phase::kHeartbeat, peer.ping_seq++));
  }
}

void SocketTransport::check_liveness(std::int64_t now_ns) noexcept {
  if (liveness_timeout_ms_ <= 0 || stopping_.load(std::memory_order_acquire)) return;
  const std::int64_t deadline_ns = std::int64_t(liveness_timeout_ms_) * 1'000'000;
  for (int r = 0; r < nranks(); ++r) {
    if (r == rank_) continue;
    Peer& peer = *conns_[static_cast<usize>(r)];
    if (peer.fd < 0 || peer.shutdown.load(std::memory_order_acquire)) continue;
    if (now_ns - peer.last_rx_ns.load(std::memory_order_relaxed) < deadline_ns) continue;
    log::warn() << "peer rank " << r << " sent nothing for " << liveness_timeout_ms_
                << " ms (liveness deadline)";
    fail("peer missed its liveness deadline", /*broadcast=*/true);
    return;
  }
}

void SocketTransport::progress_loop() {
  log::set_thread_rank(rank_);
  // A bare std::thread turns an escaped exception into std::terminate;
  // anything unexpected here (allocation failure, a Fabric precondition)
  // must instead poison the fabric like any other wire fault.
  try {
    poll_frames();
  } catch (const std::exception& e) {
    fail(e.what());
  } catch (...) {
    fail("unexpected exception in progress loop");
  }
}

void SocketTransport::poll_frames() {
  std::vector<pollfd> fds;
  std::vector<int> ranks;  // fds[i] belongs to ranks[i]; last entry is the pipe
  // Poll granularity: the heartbeat cadence needs the loop to wake at
  // least twice per interval even when the wire is quiet.
  int poll_ms = 200;
  if (heartbeat_ms_ > 0) poll_ms = std::min(poll_ms, std::max(10, heartbeat_ms_ / 2));
  for (;;) {
    fds.clear();
    ranks.clear();
    for (int r = 0; r < nranks(); ++r) {
      if (r == rank_) continue;
      const int fd = conns_[static_cast<usize>(r)]->fd;
      if (fd < 0) continue;
      fds.push_back(pollfd{fd, POLLIN, 0});
      ranks.push_back(r);
    }
    const bool all_closed = fds.empty();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    if (all_closed && stopping_.load(std::memory_order_acquire)) return;

    const int ready = ::poll(fds.data(), fds.size(), poll_ms);
    if (ready < 0 && errno != EINTR) {
      fail("poll failed");
      return;
    }
    const std::int64_t now = steady_now_ns();
    send_heartbeats(now);
    check_liveness(now);
    if (fds.back().revents != 0) {
      // Wake-up from the destructor: keep draining until every peer's
      // stream has ended, so late data/shutdown frames are not lost.
      char drain[16];
      [[maybe_unused]] const ssize_t n = ::read(wake_pipe_[0], drain, sizeof(drain));
    }
    for (usize i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int r = ranks[i];
      Peer& peer = *conns_[static_cast<usize>(r)];
      if (!read_frame(r)) {
        // Stream over. Clean if the peer said goodbye (or we are tearing
        // down ourselves); otherwise the peer died mid-run.
        if (!peer.shutdown.load(std::memory_order_acquire) &&
            !stopping_.load(std::memory_order_acquire)) {
          fail("peer disconnected without shutdown");
        }
        std::lock_guard<std::mutex> lock(peer.send_mutex);
        ::close(peer.fd);
        peer.fd = -1;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // We will send nothing more, so once a peer has also said goodbye
      // the connection is drained on both sides and can go. Closing here
      // (rather than waiting for the peer's EOF) is what breaks the
      // both-sides-waiting cycle at job end: our close is the EOF the
      // peer's drain loop is waiting for. Past the drain deadline a peer
      // that never said goodbye is force-closed too — a hung (but alive)
      // peer must not block our destructor forever.
      const std::int64_t deadline = drain_deadline_ns_.load(std::memory_order_acquire);
      const bool expired = deadline > 0 && steady_now_ns() >= deadline;
      for (auto& c : conns_) {
        if (c->fd >= 0 && (expired || c->shutdown.load(std::memory_order_acquire))) {
          std::lock_guard<std::mutex> lock(c->send_mutex);
          ::close(c->fd);
          c->fd = -1;
        }
      }
    }
  }
}

TransportStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace ptycho::rt
