// CRC-32 by carry-less-multiply folding (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
// 2009), for the reflected polynomial 0xEDB88320. The only TU built with
// -mpclmul -msse4.1; nothing here runs unless crc32.cpp verified the CPU.
//
// Four 128-bit accumulators fold 64 bytes per step, so four independent
// PCLMULQDQ chains hide the instruction's latency. They then fold into one
// accumulator, which takes the remaining whole 16-byte blocks; the 128-bit
// remainder is folded to 64 bits, then 32, and Barrett-reduced to the
// CRC state. The sub-16-byte tail (and any buffer under 64 bytes) goes to
// the slicing-by-8 kernel, chained on the folded value.
#include "common/crc32.hpp"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace ptycho::detail {
namespace {

// Fold constants for distances of d = 512 and 128 bits: x^(d+32) and
// x^(d-32) mod P(x), bit-reflected. The low qword multiplies an
// accumulator's low half, the high qword its high half.
alignas(16) constexpr std::uint64_t kFold512[2] = {0x154442bd4u, 0x1c6e41596u};
alignas(16) constexpr std::uint64_t kFold128[2] = {0x1751997d0u, 0x0ccaa009eu};
alignas(16) constexpr std::uint64_t kFold64[2] = {0x163cd6124u, 0};
// Barrett reduction: P(x) reflected, and mu = floor(x^64 / P(x)) reflected.
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x1db710641u, 0x1f7011641u};

inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i constants(const std::uint64_t* k) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

/// Carry `acc` forward by the distance `k` encodes: each 64-bit half times
/// its constant, XORed into the block that lies that far ahead.
inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

std::uint32_t clmul_crc32(const void* data, std::size_t n, std::uint32_t crc) {
  if (n < 64) return crc32_slicing8(data, n, crc);
  const auto* p = static_cast<const unsigned char*>(data);

  // The CRC state enters by XOR into the first four bytes.
  __m128i a0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(~crc)));
  __m128i a1 = load(p + 16);
  __m128i a2 = load(p + 32);
  __m128i a3 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k512 = constants(kFold512);
  for (; n >= 64; n -= 64, p += 64) {
    a0 = fold(a0, k512, load(p));
    a1 = fold(a1, k512, load(p + 16));
    a2 = fold(a2, k512, load(p + 32));
    a3 = fold(a3, k512, load(p + 48));
  }

  const __m128i k128 = constants(kFold128);
  a0 = fold(a0, k128, a1);
  a0 = fold(a0, k128, a2);
  a0 = fold(a0, k128, a3);
  for (; n >= 16; n -= 16, p += 16) a0 = fold(a0, k128, load(p));

  // 128 -> 64 bits: the low half folded onto the high half.
  a0 = _mm_xor_si128(_mm_srli_si128(a0, 8), _mm_clmulepi64_si128(a0, k128, 0x10));
  // 64 -> 32 bits.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  a0 = _mm_xor_si128(_mm_srli_si128(a0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(a0, low32), constants(kFold64), 0x00));
  // Barrett reduction to the 32-bit state.
  const __m128i barrett = constants(kBarrett);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(a0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  const auto folded = ~static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(a0, t), 1));

  return crc32_slicing8(p, n, folded);  // the sub-16-byte tail, if any
}

}  // namespace

Crc32Kernel crc32_clmul_compiled() { return &clmul_crc32; }

}  // namespace ptycho::detail

#else

namespace ptycho::detail {
Crc32Kernel crc32_clmul_compiled() { return nullptr; }
}  // namespace ptycho::detail

#endif
