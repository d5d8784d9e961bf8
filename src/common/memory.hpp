// Aligned allocation with optional per-rank byte accounting.
//
// Every tensor in the library allocates through ptycho::tracked_alloc so
// that the virtual-cluster memory tracker (runtime/memtrack.hpp) can
// measure the exact per-rank footprint — the quantity reported in the
// "Memory footprint per GPU" rows of Tables II and III.
#pragma once

#include <cstddef>
#include <new>

namespace ptycho {

/// Alignment used for all numeric buffers (AVX-512 friendly, also a typical
/// cache-line multiple so tiles do not false-share).
inline constexpr std::size_t kBufferAlignment = 64;

/// Hooks a tracker can install for the calling thread. Both callbacks must
/// be noexcept; `nullptr` disables tracking (the default).
struct AllocHooks {
  void (*on_alloc)(void* ctx, std::size_t bytes) = nullptr;
  void (*on_free)(void* ctx, std::size_t bytes) = nullptr;
  void* ctx = nullptr;
};

/// Install hooks for the current thread; returns the previous hooks so a
/// caller can restore them (RAII wrapper in runtime/memtrack.hpp).
AllocHooks set_thread_alloc_hooks(const AllocHooks& hooks) noexcept;

/// Current thread's hooks (for save/restore).
AllocHooks thread_alloc_hooks() noexcept;

/// Allocate `bytes` with kBufferAlignment, reporting to the thread hooks.
/// Throws std::bad_alloc on failure. `bytes == 0` returns a non-null token.
void* tracked_alloc(std::size_t bytes);

/// Free memory from tracked_alloc; `bytes` must match the allocation size.
void tracked_free(void* p, std::size_t bytes) noexcept;

/// Process-wide counters (for leak checks in tests).
std::size_t live_tracked_bytes() noexcept;

/// Hand the allocator's freed heap pages back to the OS (glibc keeps them
/// resident otherwise); a no-op on other C libraries and under sanitizers.
void release_free_heap() noexcept;

/// High-water resident set size of this process (getrusage ru_maxrss).
std::size_t process_peak_rss_bytes() noexcept;

}  // namespace ptycho
