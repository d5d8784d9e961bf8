// Endian-stable binary (de)serialization for the checkpoint subsystem.
//
// Every scalar is encoded explicitly little-endian byte-by-byte, so a
// snapshot written on any host restores bit-identically on any other —
// the format is defined by this file, not by the writer's memory layout.
// Files carry a leading magic + version, a trailing footer magic, and —
// since format v2 — a CRC32 over everything up to and including the
// footer, appended as the last 4 bytes. The reader validates all three:
// the footer catches a shard truncated by a dying rank, the CRC catches a
// torn or bit-rotted one (a torn shard used to restore silently wrong
// data whenever the tear preserved the footer position).
#pragma once

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tensor/framed.hpp"

namespace ptycho::ckpt {

/// Trailing marker ("PTYCEND2"), followed by the 4-byte CRC32 trailer.
inline constexpr std::uint64_t kFooterMagicV2 = 0x50545943454E4432ULL;

class Writer {
 public:
  /// Opens `path` for binary writing and emits the file magic + version.
  Writer(const std::string& path, std::uint64_t file_magic, std::uint32_t version);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s);
  void rect(const Rect& r);

  /// Complex array as interleaved f32 (re, im) pairs — the wire layout of
  /// the snapshot format regardless of the host's `real` width.
  void cplx_array(const cplx* data, usize count);

  /// Write the footer magic and the file CRC, then flush; throws on any
  /// I/O failure.
  void finish();

 private:
  /// Single write funnel: every emitted byte flows through here so the
  /// file CRC is, by construction, over the whole stream.
  void raw(const void* data, usize count);

  std::ofstream out_;
  std::string path_;
  std::uint32_t crc_ = 0;
  bool finished_ = false;
};

class Reader {
 public:
  /// Opens `path` and validates the trailing footer magic, the file CRC
  /// and the file magic. Callers check version() against the one format
  /// version they read.
  Reader(const std::string& path, std::uint64_t file_magic);

  [[nodiscard]] std::uint32_t version() const { return version_; }

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32() { return std::bit_cast<float>(u32()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str();
  [[nodiscard]] Rect rect();

  void cplx_array(cplx* data, usize count);

 private:
  void fill(unsigned char* dst, usize count);

  std::ifstream in_;
  std::string path_;
  std::uint32_t version_ = 0;
};

}  // namespace ptycho::ckpt
