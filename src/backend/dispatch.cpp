// Backend selection: one atomic pointer to the active kernel table,
// resolved from (backend choice, precision tier). In production the
// choice is always CPU detection ("auto"); select() forces scalar or simd
// only for tests that compare the two tables. The tier comes from
// set_precision() (the CLI --precision flag, strict by default).
// Generic code only — this TU is compiled without ISA extension flags.
#include "backend/kernels.hpp"

#include <atomic>

namespace ptycho::backend {

namespace {

enum class Choice { kAuto, kScalar, kSimd };

std::atomic<const Kernels*> g_active{nullptr};
std::atomic<Choice> g_choice{Choice::kAuto};
std::atomic<Precision> g_precision{Precision::kStrict};

/// Map (choice, precision) to a concrete table. Fast tier substitutes the
/// FMA column where one exists: scalar -> scalar-fma (always compiled),
/// simd -> vector-fma when the CPU has it, else the strict vector table
/// (degrading to strict beats degrading to scalar on a bandwidth-bound
/// sweep). kernels() stays a single atomic load — resolution happens only
/// here, on select()/set_precision().
const Kernels* resolve(Choice choice, Precision precision) {
  const bool scalar = choice == Choice::kScalar ||
                      (choice == Choice::kAuto && !simd_available());
  if (precision == Precision::kFast) {
    if (scalar) return &scalar_fma_kernels();
    if (fma_available()) return fma_kernels();
    return simd_kernels();
  }
  return scalar ? &scalar_kernels() : simd_kernels();
}

}  // namespace

bool simd_available() {
  if (simd_kernels() == nullptr) return false;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // The table was compiled with -mavx2 (and nothing more — see the FMA
  // note in CMakeLists.txt); the builtin also checks OS xsave support.
  return __builtin_cpu_supports("avx2");
#else
  // NEON is architecturally guaranteed on AArch64: compiled-in == runnable.
  return true;
#endif
}

bool fma_available() {
  if (fma_kernels() == nullptr) return false;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;
#endif
}

const Kernels& kernels() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    const Kernels* fresh = resolve(Choice::kAuto, g_precision.load(std::memory_order_acquire));
    if (g_active.compare_exchange_strong(k, fresh, std::memory_order_acq_rel)) {
      k = fresh;  // this thread won the (idempotent) initialization race
    }
  }
  return *k;
}

bool select(std::string_view name) {
  Choice choice;
  if (name.empty() || name == "auto") {
    choice = Choice::kAuto;
  } else if (name == "scalar") {
    choice = Choice::kScalar;
  } else if (name == "simd") {
    if (!simd_available()) return false;
    choice = Choice::kSimd;
  } else {
    return false;
  }
  g_choice.store(choice, std::memory_order_release);
  g_active.store(resolve(choice, g_precision.load(std::memory_order_acquire)),
                 std::memory_order_release);
  return true;
}

void set_precision(Precision p) {
  g_precision.store(p, std::memory_order_release);
  g_active.store(resolve(g_choice.load(std::memory_order_acquire), p),
                 std::memory_order_release);
}

Precision active_precision() { return g_precision.load(std::memory_order_acquire); }

const char* active_name() { return kernels().name; }

}  // namespace ptycho::backend
