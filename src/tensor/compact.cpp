// Scalar reference codec + codec dispatch + FrameStack. Generic code only
// — this TU is compiled without ISA extension flags (the vector codec
// lives in compact_simd.cpp).
#include "tensor/compact.hpp"

#include <cstring>

#include "common/error.hpp"

namespace ptycho::compact {

namespace {

inline std::uint32_t f32_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

inline float bits_f32(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

}  // namespace

std::uint16_t f16_from_f32(float v) {
  const std::uint32_t bits = f32_bits(v);
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf or NaN
    if (abs > 0x7f800000u) {
      // NaN: quiet bit + truncated payload, matching F16C.
      return static_cast<std::uint16_t>(sign | 0x7c00u | 0x0200u | ((abs >> 13) & 0x3ffu));
    }
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x47800000u) {
    // Finite but >= 2^16: past the top of binary16, rounds to inf. (The
    // arithmetic below would overflow the 5-bit exponent into NaN bits.)
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x38800000u) {  // normal binary16 range (exponent >= -14)
    const std::uint32_t b = abs - 0x38000000u;  // rebias 127 -> 15
    std::uint32_t half = b >> 13;
    const std::uint32_t rem = b & 0x1fffu;
    // RNE; a carry out of the mantissa rounds into the exponent, and the
    // top of the range overflows to inf (0x7c00) — exactly as IEEE wants.
    half += static_cast<std::uint32_t>(rem > 0x1000u || (rem == 0x1000u && (half & 1u)));
    return static_cast<std::uint16_t>(sign | half);
  }
  if (abs <= 0x33000000u) {
    // Below half the smallest subnormal (2^-25): rounds to signed zero
    // (the exact tie at 2^-25 goes to even, which is also zero).
    return sign;
  }
  // Subnormal binary16: shift the 24-bit significand down to 2^-24 units.
  const std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
  const std::uint32_t shift = 126u - (abs >> 23);  // in [14, 24]
  std::uint32_t half = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1u);
  half += static_cast<std::uint32_t>(rem > halfway || (rem == halfway && (half & 1u)));
  return static_cast<std::uint16_t>(sign | half);
}

bool f16_overflows(float v) {
  // 65520 (0x477ff000) is the round-to-nearest-even tie between 65504,
  // the largest finite binary16, and 2^16, which is past it.
  const std::uint32_t abs = f32_bits(v) & 0x7fffffffu;
  return abs >= 0x477ff000u && abs < 0x7f800000u;
}

float f32_from_f16(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  if (exp == 0x1fu) {
    // Inf / NaN; quiet the NaN like the hardware converter does.
    const std::uint32_t quiet = mant != 0 ? 0x00400000u : 0u;
    return bits_f32(sign | 0x7f800000u | (mant << 13) | quiet);
  }
  if (exp != 0) return bits_f32(sign | ((exp + 112u) << 23) | (mant << 13));
  if (mant == 0) return bits_f32(sign);
  // Subnormal: normalize. p = bit position of the leading one (0..9).
  const int p = 31 - __builtin_clz(mant);
  return bits_f32(sign | (static_cast<std::uint32_t>(103 + p) << 23) |
                  ((mant ^ (1u << p)) << (23 - p)));
}

namespace {

bool s_encode_f16(std::uint16_t* dst, const float* src, usize n) {
  bool overflow = false;
  for (usize i = 0; i < n; ++i) {
    dst[i] = f16_from_f32(src[i]);
    overflow |= f16_overflows(src[i]);
  }
  return overflow;
}

void s_decode_f16(float* dst, const std::uint16_t* src, usize n) {
  for (usize i = 0; i < n; ++i) dst[i] = f32_from_f16(src[i]);
}

constexpr Codec kScalarCodec = {
    "scalar", &s_encode_f16, &s_decode_f16,
};

bool simd_codec_usable() {
  if (simd_codec() == nullptr) return false;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // The vector codec TU is compiled with -mavx2 -mf16c.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return true;
#endif
}

}  // namespace

const Codec& scalar_codec() { return kScalarCodec; }

const Codec& codec() {
  static const Codec* active = simd_codec_usable() ? simd_codec() : &kScalarCodec;
  return *active;
}

void encode(Format f, std::uint16_t* dst, const float* src, usize n, const char* what) {
  PTYCHO_REQUIRE(f == Format::kF16, "compact::encode called with Format::kNone");
  if (codec().encode_f16(dst, src, n)) {
    PTYCHO_FAIL(what << " holds a value beyond f16's range (|x| >= 65520), which the fast "
                        "tier's 16-bit storage cannot hold; rerun with --precision strict");
  }
}

void decode(Format f, float* dst, const std::uint16_t* src, usize n) {
  PTYCHO_REQUIRE(f == Format::kF16, "compact::decode called with Format::kNone");
  codec().decode_f16(dst, src, n);
}

FrameStack::FrameStack(const std::vector<RArray2D>& frames, Format format) : format_(format) {
  PTYCHO_REQUIRE(format != Format::kNone, "FrameStack needs a compact format");
  if (frames.empty()) return;
  rows_ = frames.front().rows();
  cols_ = frames.front().cols();
  count_ = frames.size();
  const usize frame_n = static_cast<usize>(rows_) * static_cast<usize>(cols_);
  bits_.resize(frame_n * count_);
  for (usize i = 0; i < count_; ++i) {
    PTYCHO_REQUIRE(frames[i].rows() == rows_ && frames[i].cols() == cols_,
                   "FrameStack frames must share one shape");
    encode(format_, bits_.data() + i * frame_n, frames[i].data(), frame_n,
           "the measurement stack");
  }
}

void FrameStack::decode_into(usize idx, View2D<real> dst) const {
  PTYCHO_REQUIRE(idx < count_, "FrameStack frame index out of range");
  PTYCHO_CHECK(dst.rows() == rows_ && dst.cols() == cols_ && dst.contiguous(),
               "FrameStack decode target must match the frame shape");
  const usize frame_n = static_cast<usize>(rows_) * static_cast<usize>(cols_);
  decode(format_, dst.data(), bits_.data() + idx * frame_n, frame_n);
}

}  // namespace ptycho::compact
