// Per-rank memory accounting.
//
// Each virtual-cluster rank installs a MemTracker on its thread; every
// tensor allocation made while executing that rank is accounted here.
// peak() is the quantity reported as "Memory footprint per GPU" in the
// Tables II/III harnesses (for the scaled functional runs; the paper-scale
// figures come from core/memory_model.cpp).
#pragma once

#include <atomic>
#include <cstddef>

#include "common/memory.hpp"

namespace ptycho::rt {

class MemTracker {
 public:
  void on_alloc(std::size_t bytes) noexcept {
    const std::size_t now = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // Lock-free peak update.
    std::size_t prev = peak_.load(std::memory_order_relaxed);
    while (prev < now && !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }

  void on_free(std::size_t bytes) noexcept {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t current() const noexcept {
    return current_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak() const noexcept { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

/// RAII: routes the calling thread's tensor allocations into a tracker.
class TrackerScope {
 public:
  explicit TrackerScope(MemTracker& tracker) {
    AllocHooks hooks;
    hooks.on_alloc = [](void* ctx, std::size_t b) {
      static_cast<MemTracker*>(ctx)->on_alloc(b);
    };
    hooks.on_free = [](void* ctx, std::size_t b) { static_cast<MemTracker*>(ctx)->on_free(b); };
    hooks.ctx = &tracker;
    previous_ = set_thread_alloc_hooks(hooks);
  }
  ~TrackerScope() { set_thread_alloc_hooks(previous_); }
  TrackerScope(const TrackerScope&) = delete;
  TrackerScope& operator=(const TrackerScope&) = delete;

 private:
  AllocHooks previous_;
};

/// RAII: suspends the calling thread's allocation tracking, for a buffer
/// that is no rank's memory (an in-process run's assembled result).
class UntrackedScope {
 public:
  UntrackedScope() : previous_(set_thread_alloc_hooks(AllocHooks{})) {}
  ~UntrackedScope() { set_thread_alloc_hooks(previous_); }
  UntrackedScope(const UntrackedScope&) = delete;
  UntrackedScope& operator=(const UntrackedScope&) = delete;

 private:
  AllocHooks previous_;
};

/// RAII: charges `bytes` a rank reads in place — memory it holds but did
/// not allocate, such as the dataset's diffraction frames — to its
/// tracker for the scope's lifetime.
class ChargeScope {
 public:
  ChargeScope(MemTracker& tracker, std::size_t bytes) : tracker_(tracker), bytes_(bytes) {
    tracker_.on_alloc(bytes_);
  }
  ~ChargeScope() { tracker_.on_free(bytes_); }
  ChargeScope(const ChargeScope&) = delete;
  ChargeScope& operator=(const ChargeScope&) = delete;

 private:
  MemTracker& tracker_;
  std::size_t bytes_;
};

}  // namespace ptycho::rt
