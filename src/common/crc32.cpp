// Portable CRC-32 kernel (slicing-by-8) and the one-time kernel choice.
// Generic code only: this TU is compiled without ISA extension flags, and
// nothing from crc32_clmul.cpp runs until crc32_fold() has checked the CPU.
#include "common/crc32.hpp"

#include <array>

namespace ptycho {

namespace {

using Table = std::array<std::array<std::uint32_t, 256>, 8>;

// table[0] is the classic byte-at-a-time table; table[k][b] is the CRC
// state after byte b followed by k zero bytes, so eight lookups advance
// the state over eight bytes at once.
constexpr Table make_tables() {
  Table t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Table kTables = make_tables();

// Little-endian 32-bit load from bytes; compiles to one load on
// little-endian hosts and stays correct on big-endian ones.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

namespace detail {

std::uint32_t crc32_slicing8(const void* data, std::size_t n, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
          kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

Crc32Kernel crc32_fold() {
  if (crc32_clmul_compiled() == nullptr) return nullptr;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // The fold TU is compiled with -mpclmul -msse4.1 (_mm_extract_epi32).
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return crc32_clmul_compiled();
  }
#endif
  return nullptr;
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  // Resolved once, by whichever thread checksums first (a rank, the socket
  // progress thread or the checkpoint writer); the static's initialisation
  // is thread-safe and the choice never changes afterwards.
  static const detail::Crc32Kernel kernel = [] {
    const detail::Crc32Kernel fold = detail::crc32_fold();
    return fold != nullptr ? fold : &detail::crc32_slicing8;
  }();
  return kernel(data, n, crc);
}

}  // namespace ptycho
