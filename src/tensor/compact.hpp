// Compact (half-width) storage for read-mostly f32 arrays: f16
// encode/decode between float and 16-bit payloads, halving the footprint
// and read bandwidth of the two biggest fast-tier arrays — measurement
// frames and the transmittance cache.
//
// Contract (tests/test_compact.cpp):
//  - f16 encode is IEEE binary16 round-to-nearest-even, bitwise identical
//    to the F16C hardware instruction (_mm256_cvtps_ph with
//    _MM_FROUND_TO_NEAREST_INT), including denormals, overflow-to-inf and
//    NaN quieting; decode is exact (every binary16 value is a float).
//  - The SIMD codec paths produce bitwise-identical output to the scalar
//    reference for every input bit pattern (same contract style as the
//    backend kernel tables), and the same overflow verdict.
//  - A finite input f16 cannot hold (|x| >= 65520, which rounds to inf)
//    is an error, not a silent inf: the codec's encode loop flags it and
//    encode() throws. Inf and NaN inputs pass through unflagged.
//
// Encoding is monotone on ordered finite inputs and loses at most half a
// ULP of the destination format — which is why compact storage is a
// fast-tier (tolerance-gated) feature, never applied on the strict tier.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "tensor/array.hpp"

namespace ptycho::compact {

/// Storage format for a compacted array. kNone means "keep f32".
enum class Format { kNone, kF16 };

/// Function table for one codec implementation (scalar reference or the
/// vector path compiled for this architecture).
struct Codec {
  const char* name;
  /// Returns true when some input overflowed (see f16_overflows).
  bool (*encode_f16)(std::uint16_t* dst, const float* src, usize n);
  void (*decode_f16)(float* dst, const std::uint16_t* src, usize n);
};

/// Portable scalar reference codec (always available).
[[nodiscard]] const Codec& scalar_codec();

/// Vector codec compiled into this binary (AVX2[+F16C] / NEON), or nullptr.
/// Availability of the pointer does not imply the CPU can run it.
[[nodiscard]] const Codec* simd_codec();

/// The best codec usable on this CPU (vector when available, else scalar).
[[nodiscard]] const Codec& codec();

/// Scalar building blocks, shared by the vector codecs' tails and tests.
[[nodiscard]] std::uint16_t f16_from_f32(float v);
[[nodiscard]] float f32_from_f16(std::uint16_t h);
/// True for a finite v that f16 cannot hold: |v| >= 65520 rounds to inf.
[[nodiscard]] bool f16_overflows(float v);

/// Encode/decode through the active codec. kNone is a caller bug (there is
/// no 16-bit target to speak of) and throws. An overflowing input (see
/// f16_overflows) throws ptycho::Error naming `what`, the array being
/// encoded, and pointing at --precision strict; `dst` is then unspecified.
void encode(Format f, std::uint16_t* dst, const float* src, usize n, const char* what);
void decode(Format f, float* dst, const std::uint16_t* src, usize n);

/// A stack of equally-sized f32 frames held in compact form. Frames are
/// encoded once at build time and decoded per use into caller scratch —
/// the fast-tier storage for measurement stacks.
class FrameStack {
 public:
  FrameStack() = default;

  /// Encode `frames` (all rows*cols-identical) into one contiguous block.
  /// Throws ptycho::Error if a value overflows the format.
  FrameStack(const std::vector<RArray2D>& frames, Format format);
  /// Encode frames[ids[0]], frames[ids[1]], ... in that order: frame i of
  /// the stack is frames[ids[i]].
  FrameStack(const std::vector<RArray2D>& frames, const std::vector<index_t>& ids,
             Format format);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] usize count() const { return count_; }
  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] Format format() const { return format_; }
  /// Resident bytes of the encoded store.
  [[nodiscard]] usize bytes() const { return bits_.size() * sizeof(std::uint16_t); }

  /// Decode frame `idx` into `dst` (must be rows() x cols(), contiguous).
  void decode_into(usize idx, View2D<real> dst) const;

 private:
  std::vector<std::uint16_t> bits_;
  usize count_ = 0;
  index_t rows_ = 0;
  index_t cols_ = 0;
  Format format_ = Format::kNone;
};

}  // namespace ptycho::compact
