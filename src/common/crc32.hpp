// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected), incremental.
//
// One implementation shared by the two on-the-wire/on-disk integrity
// layers: socket frame checksums (runtime/socket_transport.cpp) and
// checkpoint file checksums (ckpt/serialize.cpp). The CRC is defined over
// the byte stream, so it is endian-stable wherever the bytes themselves
// are (the checkpoint format encodes scalars explicitly little-endian).
//
// Two kernels compute the same function. The portable one is
// slicing-by-8 over constexpr tables (crc32.cpp). On x86-64 CPUs with
// PCLMULQDQ and SSE4.1, a carry-less-multiply fold (crc32_clmul.cpp, the
// only TU built with -mpclmul -msse4.1) takes the bulk of every buffer of
// 64 bytes or more and hands its sub-16-byte tail to the portable kernel.
// The CPU picks one, once, on the first call; nothing else can.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ptycho {

/// CRC-32 of `n` bytes at `data`, chained: pass a previous call's return
/// value as `crc` to extend the checksum over a split buffer (the default
/// 0 starts a fresh stream).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

namespace detail {

/// Signature shared by both kernels; same contract as crc32().
using Crc32Kernel = std::uint32_t (*)(const void* data, std::size_t n, std::uint32_t crc);

/// Slicing-by-8 kernel: runs on every host.
[[nodiscard]] std::uint32_t crc32_slicing8(const void* data, std::size_t n, std::uint32_t crc);

/// The PCLMULQDQ fold kernel compiled into this binary, or nullptr (any
/// host other than x86-64). Its presence does not mean the CPU can run it.
[[nodiscard]] Crc32Kernel crc32_clmul_compiled();

/// The fold kernel when it is compiled in and the CPU has PCLMULQDQ and
/// SSE4.1, else nullptr.
[[nodiscard]] Crc32Kernel crc32_fold();

}  // namespace detail

}  // namespace ptycho
