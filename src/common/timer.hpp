// Wall-clock timing utilities and a phase profiler.
//
// The phase profiler is what the runtime breakdown experiment (Fig. 7b in
// the paper) is built on: each rank accounts its time into named phases
// (compute / wait / communication) and the harness aggregates them.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>

namespace ptycho {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates wall time into named phases; one instance per rank.
///
/// Not itself thread-safe: add()/merge() must come from one thread at a
/// time. On cluster runs the totals are no longer accumulated here
/// directly — pass hooks (which may run on thread-pool worker slots) time
/// themselves through obs::SpanScope into a per-rank obs::PhaseLedger of
/// padded atomics, and the ledger is merged into this profiler at chunk
/// boundaries from the rank's own thread (src/obs/trace.hpp). The Fig. 7b
/// breakdown is therefore span-derived; this class remains the stable
/// aggregation/reporting surface.
class PhaseProfiler {
 public:
  /// Add `seconds` to phase `name`.
  void add(const std::string& name, double seconds) { phases_[name] += seconds; }

  /// Total of one phase (0.0 if never recorded).
  [[nodiscard]] double total(const std::string& name) const {
    auto it = phases_.find(name);
    return it == phases_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] const std::map<std::string, double>& phases() const { return phases_; }

  /// Merge another profiler's phases into this one (for aggregation).
  void merge(const PhaseProfiler& other) {
    for (const auto& [name, secs] : other.phases_) phases_[name] += secs;
  }

  void clear() { phases_.clear(); }

 private:
  std::map<std::string, double> phases_;
};

/// Canonical phase names used by the solvers (keeps Fig. 7b keys consistent).
namespace phase {
inline constexpr const char* kCompute = "compute";
inline constexpr const char* kWait = "wait";
inline constexpr const char* kComm = "comm";
inline constexpr const char* kUpdate = "update";
inline constexpr const char* kCheckpoint = "checkpoint";
}  // namespace phase

}  // namespace ptycho
