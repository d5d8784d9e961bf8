// Fast-tier (FMA) backend tables: the fused multiply policies, and the
// scalar and vector bodies of scalar_impl.hpp / vector_impl.hpp
// instantiated on them. This is the only TU built with -mfma (-mavx2
// -mfma -mf16c on x86-64 — see CMakeLists.txt); nothing here runs unless
// dispatch.cpp verified the CPU and the caller opted into Precision::kFast.
//
// Fast-tier bitwise contract (tests/test_precision.cpp): the three fast
// tables — "scalar-fma", "avx2-fma", "neon-fma" — are bitwise identical
// to EACH OTHER, so backend choice is still never an algorithmic variable
// within a tier. The defining operation sequence per complex multiply is
//   re = fma(a.re, b.re, -(a.im * b.im))
//   im = fma(a.im, b.re,   a.re * b.im )
// i.e. one rounded product plus one fused multiply-add per component —
// exactly what _mm256_fmaddsub_ps(a, br, asw*bi) and the NEON vfmaq
// equivalent compute. FusedScalar spells it out with std::fma, which
// makes it deterministic under any contraction flag. Against the strict
// tier the results differ (fewer roundings), which is why fast is
// tolerance-gated, never memcmp'd.
//
// The bodies are the strict tables' own templates; the ODR rule in
// scalar_impl.hpp (everything there and every policy here sits in an
// unnamed namespace) keeps the copies compiled here out of the strict
// tables. The strict vector policies live in kernels_simd.cpp, out of
// this TU's reach: under -mfma GCC would fuse their mul + addsub pairs.
#include <cmath>

#include "backend/kernels.hpp"
#include "backend/vector_impl.hpp"

namespace ptycho::backend {
namespace {

struct FusedScalar {
  static cplx cmul(cplx a, cplx b) {
    return cplx(std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
                std::fma(a.imag(), b.real(), a.real() * b.imag()));
  }

  /// a * conj(b): the sign of b.im flips before the products (exact).
  static cplx cmul_conj(cplx a, cplx b) {
    return cplx(std::fma(a.real(), b.real(), a.imag() * b.imag()),
                std::fma(a.imag(), b.real(), -(a.real() * b.imag())));
  }

  /// w * x with w broadcast: matches the vector fmaddsub(wr, x, wi*xsw).
  static cplx cmul_bcast(cplx w, cplx x) {
    return cplx(std::fma(w.real(), x.real(), -(w.imag() * x.imag())),
                std::fma(w.real(), x.imag(), w.imag() * x.real()));
  }
};

}  // namespace

const Kernels& scalar_fma_kernels() {
  static constexpr Kernels table = make_table<ScalarKernels<FusedScalar>>("scalar-fma");
  return table;
}

#if defined(__AVX2__) && defined(__FMA__)

namespace {

struct FusedAvx2 {
  using Scalar = FusedScalar;

  /// fmaddsub(a, br, asw*bi): per pair
  ///   re = fma(a.re, b.re, -(a.im*b.im)), im = fma(a.im, b.re, a.re*b.im).
  static __m256 cmul(__m256 a, __m256 b) {
    const __m256 br = _mm256_moveldup_ps(b);
    const __m256 bi = _mm256_movehdup_ps(b);
    const __m256 asw = _mm256_permute_ps(a, 0xB1);  // [a.im, a.re] per pair
    return _mm256_fmaddsub_ps(a, br, _mm256_mul_ps(asw, bi));
  }

  /// a * conj(b): negate b.im before the products.
  static __m256 cmul_conj(__m256 a, __m256 b) {
    const __m256 br = _mm256_moveldup_ps(b);
    const __m256 nbi = _mm256_xor_ps(_mm256_movehdup_ps(b), sign_all());
    const __m256 asw = _mm256_permute_ps(a, 0xB1);
    return _mm256_fmaddsub_ps(a, br, _mm256_mul_ps(asw, nbi));
  }

  static __m256 cmul_bcast(__m256 wr, __m256 wi, __m256 x) {
    const __m256 xsw = _mm256_permute_ps(x, 0xB1);
    return _mm256_fmaddsub_ps(wr, x, _mm256_mul_ps(wi, xsw));
  }
};

constexpr Kernels kAvx2Fma = make_table<VectorKernels<FusedAvx2>>("avx2-fma");

}  // namespace

const Kernels* fma_kernels() { return &kAvx2Fma; }

#elif defined(__ARM_NEON) && defined(__aarch64__)

namespace {

struct FusedNeon {
  using Scalar = FusedScalar;

  /// c = asw*bi with even lanes negated, then vfmaq(c, a, br):
  ///   re = fma(a.re, b.re, -(a.im*b.im)), im = fma(a.im, b.re, a.re*b.im).
  static float32x4_t cmul(float32x4_t a, float32x4_t b) {
    const float32x4_t br = vtrn1q_f32(b, b);
    const float32x4_t bi = vtrn2q_f32(b, b);
    const float32x4_t asw = vrev64q_f32(a);
    const float32x4_t c = flip_signs(vmulq_f32(asw, bi), sign_real());
    return vfmaq_f32(c, a, br);
  }

  static float32x4_t cmul_conj(float32x4_t a, float32x4_t b) {
    const float32x4_t br = vtrn1q_f32(b, b);
    const float32x4_t nbi = flip_signs(vtrn2q_f32(b, b), sign_all());
    const float32x4_t asw = vrev64q_f32(a);
    const float32x4_t c = flip_signs(vmulq_f32(asw, nbi), sign_real());
    return vfmaq_f32(c, a, br);
  }

  static float32x4_t cmul_bcast(float32x4_t wr, float32x4_t wi, float32x4_t x) {
    const float32x4_t c = flip_signs(vmulq_f32(wi, vrev64q_f32(x)), sign_real());
    return vfmaq_f32(c, wr, x);
  }
};

constexpr Kernels kNeonFma = make_table<VectorKernels<FusedNeon>>("neon-fma");

}  // namespace

const Kernels* fma_kernels() { return &kNeonFma; }

#else  // no vector FMA backend for this target

const Kernels* fma_kernels() { return nullptr; }

#endif

}  // namespace ptycho::backend
