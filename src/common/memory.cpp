#include "common/memory.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>

// Sanitizer runtimes replace malloc, so glibc's arenas stay unused and its
// malloc_trim must not be called.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PTYCHO_FOREIGN_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PTYCHO_FOREIGN_MALLOC 1
#endif
#endif
#if defined(__GLIBC__) && !defined(PTYCHO_FOREIGN_MALLOC)
#define PTYCHO_TRIM_HEAP 1
#include <malloc.h>
#endif

namespace ptycho {

namespace {
thread_local AllocHooks t_hooks{};
std::atomic<std::size_t> g_live_bytes{0};
}  // namespace

AllocHooks set_thread_alloc_hooks(const AllocHooks& hooks) noexcept {
  AllocHooks previous = t_hooks;
  t_hooks = hooks;
  return previous;
}

AllocHooks thread_alloc_hooks() noexcept { return t_hooks; }

void* tracked_alloc(std::size_t bytes) {
  // Round the size up to the alignment: std::aligned_alloc requires it and
  // it keeps adjacent buffers from sharing a cache line.
  std::size_t padded = (bytes + kBufferAlignment - 1) / kBufferAlignment * kBufferAlignment;
  if (padded == 0) padded = kBufferAlignment;
  void* p = std::aligned_alloc(kBufferAlignment, padded);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (t_hooks.on_alloc != nullptr) t_hooks.on_alloc(t_hooks.ctx, bytes);
  return p;
}

void tracked_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  if (t_hooks.on_free != nullptr) t_hooks.on_free(t_hooks.ctx, bytes);
  std::free(p);
}

std::size_t live_tracked_bytes() noexcept { return g_live_bytes.load(std::memory_order_relaxed); }

void release_free_heap() noexcept {
#if defined(PTYCHO_TRIM_HEAP)
  malloc_trim(0);
#endif
}

std::size_t process_peak_rss_bytes() noexcept {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // Linux reports KiB
}

}  // namespace ptycho
