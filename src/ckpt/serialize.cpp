#include "ckpt/serialize.hpp"

#include <algorithm>

#include "common/crc32.hpp"

namespace ptycho::ckpt {

namespace {

// Scratch size for batched cplx array encoding (32 KiB of wire data).
constexpr usize kChunkElems = 4096;

void encode_u64(unsigned char* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t decode_u64(const unsigned char* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  return v;
}

void encode_u32(unsigned char* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t decode_u32(const unsigned char* src) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(src[i]) << (8 * i);
  return v;
}

}  // namespace

// ---- Writer -----------------------------------------------------------------

Writer::Writer(const std::string& path, std::uint64_t file_magic, std::uint32_t version)
    : out_(path, std::ios::binary), path_(path) {
  PTYCHO_CHECK(out_.good(), "cannot open '" << path << "' for writing");
  u64(file_magic);
  u32(version);
}

Writer::~Writer() {
  // finish() is the explicit happy path; a destructor must not throw.
  if (!finished_ && out_.is_open()) out_.close();
}

void Writer::raw(const void* data, usize count) {
  crc_ = crc32(data, count, crc_);
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(count));
}

void Writer::u8(std::uint8_t v) { raw(&v, 1); }

void Writer::u32(std::uint32_t v) {
  unsigned char buf[4];
  encode_u32(buf, v);
  raw(buf, sizeof buf);
}

void Writer::u64(std::uint64_t v) {
  unsigned char buf[8];
  encode_u64(buf, v);
  raw(buf, sizeof buf);
}

void Writer::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void Writer::rect(const Rect& r) {
  i64(r.y0);
  i64(r.x0);
  i64(r.h);
  i64(r.w);
}

void Writer::cplx_array(const cplx* data, usize count) {
  u64(count);
  unsigned char buf[kChunkElems * 8];
  usize done = 0;
  while (done < count) {
    const usize n = std::min(kChunkElems, count - done);
    for (usize i = 0; i < n; ++i) {
      const cplx& c = data[done + i];
      encode_u32(buf + 8 * i, std::bit_cast<std::uint32_t>(static_cast<float>(c.real())));
      encode_u32(buf + 8 * i + 4, std::bit_cast<std::uint32_t>(static_cast<float>(c.imag())));
    }
    raw(buf, 8 * n);
    done += n;
  }
}

void Writer::finish() {
  u64(kFooterMagicV2);
  // The CRC trailer covers everything before it (magic, version, payload,
  // footer) and is itself excluded — written directly, not via raw().
  unsigned char buf[4];
  encode_u32(buf, crc_);
  out_.write(reinterpret_cast<const char*>(buf), sizeof buf);
  out_.flush();
  PTYCHO_CHECK(out_.good(), "write failed for '" << path_ << "'");
  out_.close();
  finished_ = true;
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(const std::string& path, std::uint64_t file_magic)
    : in_(path, std::ios::binary), path_(path) {
  PTYCHO_CHECK(in_.good(), "cannot open '" << path << "' for reading");
  // Footer check first: a file without the trailing magic was truncated
  // mid-write (e.g. by a dying rank) and must not be trusted. Files end
  // [... kFooterMagicV2 u64][crc u32].
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  PTYCHO_CHECK(size >= 24, "'" << path << "' is too short to be a checkpoint file");
  unsigned char footer[8];
  in_.seekg(size - 12);
  in_.read(reinterpret_cast<char*>(footer), sizeof footer);
  PTYCHO_CHECK(in_.good() && decode_u64(footer) == kFooterMagicV2,
               "'" << path << "' is truncated or corrupt (bad footer)");
  unsigned char trailer[4];
  in_.read(reinterpret_cast<char*>(trailer), sizeof trailer);
  PTYCHO_CHECK(in_.good(), "'" << path << "' is truncated (missing CRC trailer)");
  const std::uint32_t stored = decode_u32(trailer);
  // Stream-verify the whole file (everything before the trailer): a torn
  // or bit-rotted shard must fail the restore, not poison the volume.
  in_.seekg(0);
  std::uint32_t crc = 0;
  char buf[1 << 16];
  std::streamoff left = size - 4;
  while (left > 0) {
    const auto n = static_cast<std::streamsize>(
        std::min<std::streamoff>(left, static_cast<std::streamoff>(sizeof buf)));
    in_.read(buf, n);
    PTYCHO_CHECK(in_.good(), "read failed while checksumming '" << path << "'");
    crc = crc32(buf, static_cast<usize>(n), crc);
    left -= n;
  }
  PTYCHO_CHECK(crc == stored, "'" << path << "' failed its integrity check (CRC mismatch)");
  in_.clear();
  in_.seekg(0);
  PTYCHO_CHECK(u64() == file_magic, "'" << path << "' has the wrong file type magic");
  version_ = u32();
}

void Reader::fill(unsigned char* dst, usize count) {
  in_.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(count));
  PTYCHO_CHECK(in_.good(), "unexpected end of checkpoint file '" << path_ << "'");
}

std::uint8_t Reader::u8() {
  unsigned char b = 0;
  fill(&b, 1);
  return b;
}

std::uint32_t Reader::u32() {
  unsigned char buf[4];
  fill(buf, sizeof buf);
  return decode_u32(buf);
}

std::uint64_t Reader::u64() {
  unsigned char buf[8];
  fill(buf, sizeof buf);
  return decode_u64(buf);
}

std::string Reader::str() {
  const std::uint64_t len = u64();
  PTYCHO_CHECK(len < (1u << 20), "implausible string length in '" << path_ << "'");
  std::string s(len, '\0');
  if (len > 0) fill(reinterpret_cast<unsigned char*>(s.data()), len);
  return s;
}

Rect Reader::rect() {
  Rect r;
  r.y0 = i64();
  r.x0 = i64();
  r.h = i64();
  r.w = i64();
  return r;
}

void Reader::cplx_array(cplx* data, usize count) {
  const std::uint64_t stored = u64();
  PTYCHO_CHECK(stored == count, "cplx array length mismatch in '" << path_ << "': stored "
                                    << stored << ", expected " << count);
  unsigned char buf[kChunkElems * 8];
  usize done = 0;
  while (done < count) {
    const usize n = std::min(kChunkElems, count - done);
    fill(buf, 8 * n);
    for (usize i = 0; i < n; ++i) {
      const float re = std::bit_cast<float>(decode_u32(buf + 8 * i));
      const float im = std::bit_cast<float>(decode_u32(buf + 8 * i + 4));
      data[done + i] = cplx(static_cast<real>(re), static_cast<real>(im));
    }
    done += n;
  }
}

}  // namespace ptycho::ckpt
