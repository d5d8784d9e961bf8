// Strict vector backends: the strict policy over the AVX2 (x86-64) or
// NEON (AArch64) body of vector_impl.hpp. This is the only strict-tier TU
// built with an ISA extension flag (-mavx2; FMA stays off, see
// CMakeLists.txt), which is safe because nothing here runs unless
// dispatch.cpp verified the CPU.
//
// Bitwise contract with the scalar backend (see kernels.hpp): each vector
// multiply below is StrictScalar's sequence per lane, two rounded
// products and one rounded add or subtract per component, and
// -ffp-contract=off keeps the compiler from fusing them. The one place a
// compiler fuses anyway is an x86 mul + addsub pair once the FMA ISA is
// enabled, hence the #error: this policy must never be compiled with it.
#include "backend/kernels.hpp"
#include "backend/vector_impl.hpp"

namespace ptycho::backend {

#if defined(__AVX2__)

#if defined(__FMA__)
#error "the strict AVX2 table must be compiled without -mfma (GCC fuses mul + addsub)"
#endif

namespace {

struct StrictAvx2 {
  using Scalar = StrictScalar;

  /// re = a.re*b.re - a.im*b.im,  im = a.im*b.re + a.re*b.im.
  static __m256 cmul(__m256 a, __m256 b) {
    const __m256 br = _mm256_moveldup_ps(b);
    const __m256 bi = _mm256_movehdup_ps(b);
    const __m256 asw = _mm256_permute_ps(a, 0xB1);  // [a.im, a.re] per pair
    return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, bi));
  }

  /// a * conj(b): negating b.im before the addsub yields
  ///   re = a.re*b.re + a.im*b.im,  im = a.im*b.re - a.re*b.im.
  static __m256 cmul_conj(__m256 a, __m256 b) {
    const __m256 br = _mm256_moveldup_ps(b);
    const __m256 nbi = _mm256_xor_ps(_mm256_movehdup_ps(b), sign_all());
    const __m256 asw = _mm256_permute_ps(a, 0xB1);
    return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(asw, nbi));
  }

  /// re = w.re*x.re - w.im*x.im,  im = w.re*x.im + w.im*x.re.
  static __m256 cmul_bcast(__m256 wr, __m256 wi, __m256 x) {
    const __m256 xsw = _mm256_permute_ps(x, 0xB1);
    return _mm256_addsub_ps(_mm256_mul_ps(wr, x), _mm256_mul_ps(wi, xsw));
  }
};

constexpr Kernels kAvx2 = make_table<VectorKernels<StrictAvx2>>("avx2");

}  // namespace

const Kernels* simd_kernels() { return &kAvx2; }

#elif defined(__ARM_NEON) && defined(__aarch64__)

namespace {

struct StrictNeon {
  using Scalar = StrictScalar;

  /// addsub(p1, p2): [p1.even - p2.even, p1.odd + p2.odd], via the exact
  /// identity x - y == x + (-y) (negate even lanes of p2, then add).
  static float32x4_t addsub(float32x4_t p1, float32x4_t p2) {
    return vaddq_f32(p1, flip_signs(p2, sign_real()));
  }

  static float32x4_t cmul(float32x4_t a, float32x4_t b) {
    const float32x4_t br = vtrn1q_f32(b, b);  // [b0.re, b0.re, b1.re, b1.re]
    const float32x4_t bi = vtrn2q_f32(b, b);  // [b0.im, b0.im, b1.im, b1.im]
    const float32x4_t asw = vrev64q_f32(a);   // [a0.im, a0.re, a1.im, a1.re]
    return addsub(vmulq_f32(a, br), vmulq_f32(asw, bi));
  }

  static float32x4_t cmul_conj(float32x4_t a, float32x4_t b) {
    const float32x4_t br = vtrn1q_f32(b, b);
    const float32x4_t nbi = flip_signs(vtrn2q_f32(b, b), sign_all());
    const float32x4_t asw = vrev64q_f32(a);
    return addsub(vmulq_f32(a, br), vmulq_f32(asw, nbi));
  }

  static float32x4_t cmul_bcast(float32x4_t wr, float32x4_t wi, float32x4_t x) {
    return addsub(vmulq_f32(wr, x), vmulq_f32(wi, vrev64q_f32(x)));
  }
};

constexpr Kernels kNeon = make_table<VectorKernels<StrictNeon>>("neon");

}  // namespace

const Kernels* simd_kernels() { return &kNeon; }

#else  // no vector backend for this target

const Kernels* simd_kernels() { return nullptr; }

#endif

}  // namespace ptycho::backend
