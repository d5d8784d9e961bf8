#include "obs/trace.hpp"

#include <chrono>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace ptycho::obs {

namespace detail {
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {

/// Process-wide trace epoch: all timestamps are offsets from the first
/// now_ns() call, keeping exported values small and run-relative.
std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

thread_local ThreadContext t_context;

/// Small sequential id for ledger slot hashing (stable per thread,
/// independent of tracer registration so phase accounting works with
/// tracing off).
int thread_slot() noexcept {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

void set_tracing_enabled(bool on) noexcept {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

const char* phase_key(Phase phase) noexcept {
  switch (phase) {
    case Phase::kNone: return "";
    case Phase::kCompute: return phase::kCompute;
    case Phase::kWait: return phase::kWait;
    case Phase::kComm: return phase::kComm;
    case Phase::kUpdate: return phase::kUpdate;
    case Phase::kCheckpoint: return phase::kCheckpoint;
  }
  return "";
}

// ---- PhaseLedger ------------------------------------------------------------

void PhaseLedger::add(Phase phase, std::uint64_t ns) noexcept {
  Cell& cell = cells_[thread_slot() % kSlots];
  cell.ns[static_cast<int>(phase)].fetch_add(ns, std::memory_order_relaxed);
}

void PhaseLedger::merge_into(PhaseProfiler& prof) noexcept {
  for (Cell& cell : cells_) {
    for (int p = 1; p < kPhaseCount; ++p) {  // skip kNone
      const std::uint64_t ns = cell.ns[p].exchange(0, std::memory_order_relaxed);
      if (ns != 0) prof.add(phase_key(static_cast<Phase>(p)), static_cast<double>(ns) * 1e-9);
    }
  }
}

// ---- thread context ---------------------------------------------------------

ThreadContext thread_context() noexcept { return t_context; }

ThreadContext set_thread_context(const ThreadContext& ctx) noexcept {
  const ThreadContext previous = t_context;
  t_context = ctx;
  return previous;
}

// ---- tracer -----------------------------------------------------------------

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - trace_epoch())
                                        .count());
}

/// Fixed-capacity SPSC ring: the owning thread is the only producer
/// (writes slots + tail), drains are the only consumer (reads slots,
/// writes head) and are serialized under the collector mutex.
struct Tracer::ThreadBuffer {
  static constexpr std::uint32_t kCapacity = 4096;  // 4096 * sizeof(SpanRecord) per thread

  SpanRecord slots[kCapacity];
  std::atomic<std::uint32_t> head{0};  ///< next slot to drain (consumer-owned)
  std::atomic<std::uint32_t> tail{0};  ///< next slot to write (producer-owned)
  std::atomic<std::uint64_t> dropped{0};
  int tid = 0;
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(collect_mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size()) - 1;
  }
  return *buffer;
}

void Tracer::push(const SpanRecord& record) {
  ThreadBuffer& buf = local_buffer();
  const std::uint32_t tail = buf.tail.load(std::memory_order_relaxed);
  const std::uint32_t head = buf.head.load(std::memory_order_acquire);
  if (tail - head >= ThreadBuffer::kCapacity) {
    buf.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord& slot = buf.slots[tail % ThreadBuffer::kCapacity];
  slot = record;
  slot.tid = buf.tid;
  buf.tail.store(tail + 1, std::memory_order_release);
}

void Tracer::drain_one(ThreadBuffer& buffer) {
  const std::uint32_t tail = buffer.tail.load(std::memory_order_acquire);
  std::uint32_t head = buffer.head.load(std::memory_order_relaxed);
  for (; head != tail; ++head) {
    collected_.push_back(buffer.slots[head % ThreadBuffer::kCapacity]);
  }
  buffer.head.store(head, std::memory_order_release);
}

void Tracer::drain_all() {
  std::lock_guard<std::mutex> lock(collect_mutex_);
  for (auto& buffer : buffers_) drain_one(*buffer);
}

std::vector<SpanRecord> Tracer::snapshot() {
  std::lock_guard<std::mutex> lock(collect_mutex_);
  for (auto& buffer : buffers_) drain_one(*buffer);
  return collected_;
}

std::uint64_t Tracer::dropped() {
  std::lock_guard<std::mutex> lock(collect_mutex_);
  std::uint64_t total = dropped_total_;
  for (auto& buffer : buffers_) total += buffer->dropped.load(std::memory_order_relaxed);
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(collect_mutex_);
  for (auto& buffer : buffers_) {
    drain_one(*buffer);  // advances head to tail: ring is now empty
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
  collected_.clear();
  dropped_total_ = 0;
}

std::string Tracer::chrome_trace_json() {
  std::lock_guard<std::mutex> lock(collect_mutex_);
  for (auto& buffer : buffers_) drain_one(*buffer);

  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto emit_comma = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  // Process-name metadata: one lane group per rank.
  std::vector<int> pids;
  for (const SpanRecord& r : collected_) {
    const int pid = r.rank < 0 ? 0 : r.rank;
    bool seen = false;
    for (int p : pids) seen |= (p == pid);
    if (!seen) pids.push_back(pid);
  }
  for (int pid : pids) {
    emit_comma();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"rank " << pid << "\"}}";
  }
  for (const SpanRecord& r : collected_) {
    emit_comma();
    const int pid = r.rank < 0 ? 0 : r.rank;
    const double ts_us = static_cast<double>(r.start_ns) * 1e-3;
    os << "{\"name\":\"" << (r.name != nullptr ? r.name : "?") << "\"";
    if (r.instant) {
      os << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us;
    } else {
      const double dur_us =
          static_cast<double>(r.end_ns >= r.start_ns ? r.end_ns - r.start_ns : 0) * 1e-3;
      os << ",\"ph\":\"X\",\"ts\":" << ts_us << ",\"dur\":" << dur_us;
    }
    os << ",\"pid\":" << pid << ",\"tid\":" << r.tid;
    if (r.iteration >= 0 || r.chunk >= 0 || r.phase != Phase::kNone) {
      os << ",\"args\":{";
      bool farg = true;
      const auto arg_comma = [&] {
        if (!farg) os << ",";
        farg = false;
      };
      if (r.iteration >= 0) {
        arg_comma();
        os << "\"iteration\":" << r.iteration;
      }
      if (r.chunk >= 0) {
        arg_comma();
        os << "\"chunk\":" << r.chunk;
      }
      if (r.phase != Phase::kNone) {
        arg_comma();
        os << "\"phase\":\"" << phase_key(r.phase) << "\"";
      }
      os << "}";
    }
    os << "}";
  }
  std::uint64_t dropped = dropped_total_;
  for (auto& buffer : buffers_) dropped += buffer->dropped.load(std::memory_order_relaxed);
  os << "\n],\"otherData\":{\"dropped_spans\":" << dropped << "}}\n";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::ofstream out(path, std::ios::binary);
  PTYCHO_CHECK(out.good(), "cannot open trace output " << path);
  out << json;
  PTYCHO_CHECK(out.good(), "failed writing trace output " << path);
}

// ---- scopes -----------------------------------------------------------------

void SpanScope::finish() noexcept {
  if (!traced_ && ledger_ == nullptr) return;
  const std::uint64_t end = now_ns();
  if (ledger_ != nullptr) ledger_->add(phase_, end - start_ns_);
  if (traced_) {
    SpanRecord record;
    record.name = name_;
    record.start_ns = start_ns_;
    record.end_ns = end;
    record.rank = thread_context().rank;
    record.iteration = iteration_;
    record.chunk = chunk_;
    record.phase = phase_;
    Tracer::instance().push(record);
  }
}

void account(const char* name, Phase phase, double seconds, int iteration,
             int chunk) noexcept {
  if (seconds < 0) seconds = 0;
  const bool traced = tracing_enabled();
  PhaseLedger* ledger = phase != Phase::kNone ? thread_context().ledger : nullptr;
  if (!traced && ledger == nullptr) return;
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  if (ledger != nullptr) ledger->add(phase, ns);
  if (traced) {
    const std::uint64_t end = now_ns();
    SpanRecord record;
    record.name = name;
    record.start_ns = end >= ns ? end - ns : 0;
    record.end_ns = end;
    record.rank = thread_context().rank;
    record.iteration = iteration;
    record.chunk = chunk;
    record.phase = phase;
    Tracer::instance().push(record);
  }
}

void instant(const char* name) noexcept {
  if (!tracing_enabled()) return;
  SpanRecord record;
  record.name = name;
  record.start_ns = record.end_ns = now_ns();
  record.rank = thread_context().rank;
  record.instant = true;
  Tracer::instance().push(record);
}

}  // namespace ptycho::obs
