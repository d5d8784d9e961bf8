// Vector compact codec: F16C half conversion (AVX2 for the integer
// overflow test) on x86-64, NEON on AArch64. The only TU built with
// -mf16c; nothing here runs unless compact.cpp verified the CPU. Output
// is bitwise identical to the scalar reference in compact.cpp for every
// input bit pattern (tests/test_compact.cpp sweeps the interesting
// ranges), and the encode loops raise the same overflow verdict as
// compact::f16_overflows.
#include "tensor/compact.hpp"

#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

namespace ptycho::compact {
namespace {

constexpr usize kW = 16;  // floats per iteration (two __m256 blocks)

/// All-ones in each lane holding a finite value f16 cannot hold
/// (f16_overflows): 0x477ff000 <= |bits| < 0x7f800000.
inline __m256i overflow8(__m256 v) {
  const __m256i abs = _mm256_and_si256(_mm256_castps_si256(v), _mm256_set1_epi32(0x7fffffff));
  // abs <= 0x7fffffff, so signed compares are exact.
  const __m256i big = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x477fefff));
  const __m256i nonfinite = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7f7fffff));
  return _mm256_andnot_si256(nonfinite, big);
}

bool v_encode_f16(std::uint16_t* dst, const float* src, usize n) {
  __m256i overflow = _mm256_setzero_si256();
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 f0 = _mm256_loadu_ps(src + i);
    const __m256 f1 = _mm256_loadu_ps(src + i + 8);
    overflow = _mm256_or_si256(overflow, _mm256_or_si256(overflow8(f0), overflow8(f1)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_cvtps_ph(f0, _MM_FROUND_TO_NEAREST_INT));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 8),
                     _mm256_cvtps_ph(f1, _MM_FROUND_TO_NEAREST_INT));
  }
  bool tail = false;
  for (; i < n; ++i) {
    dst[i] = f16_from_f32(src[i]);
    tail |= f16_overflows(src[i]);
  }
  return tail || _mm256_testz_si256(overflow, overflow) == 0;
}

void v_decode_f16(float* dst, const std::uint16_t* src, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const __m128i h0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i h1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 8));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h0));
    _mm256_storeu_ps(dst + i + 8, _mm256_cvtph_ps(h1));
  }
  for (; i < n; ++i) dst[i] = f32_from_f16(src[i]);
}

constexpr Codec kAvx2Codec = {
    "avx2-f16c", &v_encode_f16, &v_decode_f16,
};

}  // namespace

const Codec* simd_codec() { return &kAvx2Codec; }

}  // namespace ptycho::compact

#elif defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace ptycho::compact {
namespace {

constexpr usize kW = 8;

/// All-ones in each lane holding a finite value f16 cannot hold
/// (f16_overflows): 0x477ff000 <= |bits| < 0x7f800000.
inline uint32x4_t overflow4(float32x4_t v) {
  const uint32x4_t abs = vandq_u32(vreinterpretq_u32_f32(v), vdupq_n_u32(0x7fffffffu));
  return vandq_u32(vcgeq_u32(abs, vdupq_n_u32(0x477ff000u)),
                   vcltq_u32(abs, vdupq_n_u32(0x7f800000u)));
}

bool v_encode_f16(std::uint16_t* dst, const float* src, usize n) {
  uint32x4_t overflow = vdupq_n_u32(0);
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const float32x4_t f0 = vld1q_f32(src + i);
    const float32x4_t f1 = vld1q_f32(src + i + 4);
    overflow = vorrq_u32(overflow, vorrq_u32(overflow4(f0), overflow4(f1)));
    const float16x4_t lo = vcvt_f16_f32(f0);
    const float16x4_t hi = vcvt_f16_f32(f1);
    vst1q_u16(dst + i, vcombine_u16(vreinterpret_u16_f16(lo), vreinterpret_u16_f16(hi)));
  }
  bool tail = false;
  for (; i < n; ++i) {
    dst[i] = f16_from_f32(src[i]);
    tail |= f16_overflows(src[i]);
  }
  return tail || vmaxvq_u32(overflow) != 0;
}

void v_decode_f16(float* dst, const std::uint16_t* src, usize n) {
  usize i = 0;
  for (; i + kW <= n; i += kW) {
    const uint16x8_t h = vld1q_u16(src + i);
    vst1q_f32(dst + i, vcvt_f32_f16(vreinterpret_f16_u16(vget_low_u16(h))));
    vst1q_f32(dst + i + 4, vcvt_f32_f16(vreinterpret_f16_u16(vget_high_u16(h))));
  }
  for (; i < n; ++i) dst[i] = f32_from_f16(src[i]);
}

constexpr Codec kNeonCodec = {
    "neon", &v_encode_f16, &v_decode_f16,
};

}  // namespace

const Codec* simd_codec() { return &kNeonCodec; }

}  // namespace ptycho::compact

#else  // no vector codec for this target

namespace ptycho::compact {
const Codec* simd_codec() { return nullptr; }
}  // namespace ptycho::compact

#endif
