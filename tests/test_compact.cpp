// Compact-storage codec tests (tensor/compact.hpp): f16 round-trip
// accuracy and monotonicity, exact behavior on denormals/inf/NaN, the
// overflow check (the end-to-end cases are in test_precision), bitwise
// identity of the vector codec against the scalar reference, FrameStack
// round trips, and f32-vs-compact parity of the transmittance cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "data/synthetic.hpp"
#include "physics/multislice.hpp"
#include "tensor/compact.hpp"

namespace ptycho::compact {
namespace {

float bits_f32(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// A sweep of float bit patterns that hits every structurally interesting
/// region: zeros, f32/f16 denormal boundaries, the f16 overflow edge,
/// inf, NaN payloads, and a pseudorandom spread of ordinary values.
std::vector<float> adversarial_floats() {
  std::vector<float> out;
  const std::uint32_t abs_edges[] = {
      0x00000000u,              // +0
      0x00000001u, 0x007fffffu, // smallest / largest f32 denormal
      0x00800000u,              // smallest f32 normal
      0x33000000u, 0x33000001u, // f16 round-to-zero threshold (2^-25) +/- 1
      0x337ffffFu, 0x33800000u, // just below / at 2^-24 (smallest f16 denormal)
      0x387fffffu, 0x38800000u, // largest f16 denormal region / smallest normal
      0x38ffffffu, 0x39000000u,
      0x477fefffu, 0x477ff000u, // just below / at the f16 overflow tie
      0x477fffffu, 0x47800000u, // rounds to inf / above max finite f16
      0x7f7fffffu,              // f32 max finite
      0x7f800000u,              // inf
      0x7f800001u, 0x7fc00000u, 0x7fffffffu,  // sNaN, qNaN, all-ones NaN
      0x3f800000u, 0x3f800001u, 0x3f801000u, 0x3f801001u,  // RNE ties near 1.0
      0x40490fdbu,              // pi
  };
  for (std::uint32_t abs : abs_edges) {
    out.push_back(bits_f32(abs));
    out.push_back(bits_f32(abs | 0x80000000u));
  }
  Rng rng(2024);
  for (int i = 0; i < 4096; ++i) {
    // uniform() in [0,1): build bit patterns covering all exponents.
    const auto bits = static_cast<std::uint32_t>(rng.uniform() * 4294967296.0);
    out.push_back(bits_f32(bits));
  }
  for (int i = 0; i < 1024; ++i) {
    out.push_back(static_cast<float>(rng.normal()));  // the realistic regime
  }
  return out;
}

TEST(F16, DecodeAllPayloadsRoundTrip) {
  // Every binary16 value is exactly representable in f32, so
  // encode(decode(h)) == h for every non-NaN payload; NaNs keep NaN-ness
  // and gain the quiet bit at most.
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const float f = f32_from_f16(half);
    const std::uint16_t back = f16_from_f32(f);
    const bool is_nan = (h & 0x7c00u) == 0x7c00u && (h & 0x03ffu) != 0;
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << h;
      EXPECT_EQ(back & 0x7c00u, 0x7c00u);
      EXPECT_NE(back & 0x03ffu, 0u);
    } else {
      EXPECT_EQ(back, half) << std::hex << h;
    }
  }
}

TEST(F16, EncodeBounds) {
  // Normal range: relative error <= 2^-11 / (1 - 2^-11) (half a ULP of the
  // 10-bit mantissa); subnormal range: absolute error <= 2^-25.
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto f = static_cast<float>(rng.normal() * std::exp(rng.normal() * 3.0));
    if (!std::isfinite(f)) continue;
    const float r = f32_from_f16(f16_from_f32(f));
    const float af = std::abs(f);
    if (af >= 6.104e-5F && af <= 65504.0F) {
      EXPECT_LE(std::abs(r - f), af * (1.0F / 1024.0F)) << "f=" << f;
    } else if (af < 6.104e-5F) {
      EXPECT_LE(std::abs(r - f), 3.0e-8F) << "f=" << f;
    }
  }
  // Overflow to inf above the max-finite rounding boundary.
  EXPECT_EQ(f16_from_f32(65520.0F), 0x7c00u);
  EXPECT_EQ(f16_from_f32(-65520.0F), 0xfc00u);
  EXPECT_EQ(f16_from_f32(65504.0F), 0x7bffu);  // max finite survives
}

TEST(F16, Monotone) {
  // Encoding must preserve <= on ordered finite inputs (no rounding
  // inversions across the normal/subnormal seam either).
  std::vector<float> xs = adversarial_floats();
  std::vector<float> finite;
  for (float f : xs) {
    if (std::isfinite(f)) finite.push_back(f);
  }
  std::sort(finite.begin(), finite.end());
  float prev_f16 = -std::numeric_limits<float>::infinity();
  for (float f : finite) {
    const float rf = f32_from_f16(f16_from_f32(f));
    EXPECT_GE(rf, prev_f16) << "f=" << f;
    prev_f16 = rf;
  }
}

TEST(F16, OverflowIsFlaggedNotSilent) {
  // A finite value at or past 65520 (the tie between 65504, the largest
  // finite half, and 2^16) rounds to inf: the codec flags it and encode()
  // throws. Values below the tie encode to finite halves; inf and NaN
  // inputs pass through unflagged. Each value runs at every position of a
  // 40-element block, so the vector codec sees it in its body and in its
  // scalar tail; scalar and vector agree on the bytes and the verdict.
  const float inf = std::numeric_limits<float>::infinity();
  struct Case {
    float v;
    bool overflows;
  };
  const Case cases[] = {
      {std::nextafter(65504.0F, 0.0F), false},  // just below the max finite half
      {65504.0F, false},                        // the max finite half
      {std::nextafter(65504.0F, inf), false},   // just above: rounds back to 65504
      {bits_f32(0x477fefffu), false},           // the last float below the tie
      {65520.0F, true},                         // the tie: rounds to inf
      {std::nextafter(65520.0F, inf), true},
      {std::numeric_limits<float>::max(), true},
      {inf, false},
      {std::numeric_limits<float>::quiet_NaN(), false},
      {bits_f32(0x7f800001u), false},  // signalling NaN
  };
  const Codec& active = codec();
  constexpr usize kBlock = 40;
  for (const Case& c : cases) {
    for (const float v : {c.v, -c.v}) {
      EXPECT_EQ(f16_overflows(v), c.overflows) << v;
      for (usize at = 0; at < kBlock; ++at) {
        std::vector<float> block(kBlock, 1.0F);
        block[at] = v;
        std::vector<std::uint16_t> enc_sc(kBlock), enc_active(kBlock);
        EXPECT_EQ(scalar_codec().encode_f16(enc_sc.data(), block.data(), kBlock), c.overflows)
            << v << " at " << at;
        EXPECT_EQ(active.encode_f16(enc_active.data(), block.data(), kBlock), c.overflows)
            << active.name << " " << v << " at " << at;
        EXPECT_EQ(enc_sc, enc_active) << active.name << " " << v << " at " << at;
        std::string msg;
        try {
          encode(Format::kF16, enc_active.data(), block.data(), kBlock, "the block");
        } catch (const Error& e) {
          msg = e.what();
        }
        EXPECT_EQ(msg.empty(), !c.overflows) << v << " at " << at;
        if (c.overflows) {
          EXPECT_NE(msg.find("the block"), std::string::npos) << msg;
          EXPECT_NE(msg.find("--precision strict"), std::string::npos) << msg;
        }
      }
    }
  }
}

TEST(Codec, SimdMatchesScalarBitwise) {
  if (simd_codec() == nullptr || &codec() == &scalar_codec()) {
    GTEST_SKIP() << "no vector codec on this CPU";
  }
  const Codec& sc = scalar_codec();
  const Codec& vec = codec();
  const std::vector<float> inputs = adversarial_floats();
  // Sizes cover the empty case, sub-width, exact vector widths and tails.
  for (const usize n : {usize{0}, usize{1}, usize{7}, usize{8}, usize{15}, usize{16},
                        usize{17}, usize{64}, inputs.size()}) {
    std::vector<std::uint16_t> enc_sc(n), enc_vec(n);
    const bool over_sc = sc.encode_f16(enc_sc.data(), inputs.data(), n);
    const bool over_vec = vec.encode_f16(enc_vec.data(), inputs.data(), n);
    EXPECT_EQ(enc_sc, enc_vec) << "f16 encode n=" << n;
    EXPECT_EQ(over_sc, over_vec) << "f16 overflow verdict n=" << n;
  }
  // Decode: every 16-bit payload.
  std::vector<std::uint16_t> all(65536);
  for (usize i = 0; i < all.size(); ++i) all[i] = static_cast<std::uint16_t>(i);
  std::vector<float> dec_sc(all.size()), dec_vec(all.size());
  sc.decode_f16(dec_sc.data(), all.data(), all.size());
  vec.decode_f16(dec_vec.data(), all.data(), all.size());
  EXPECT_EQ(0, std::memcmp(dec_sc.data(), dec_vec.data(), all.size() * sizeof(float)));
}

TEST(FrameStack, RoundTripAndShape) {
  Rng rng(3);
  std::vector<RArray2D> frames;
  for (int i = 0; i < 5; ++i) {
    RArray2D f(6, 9);
    for (index_t y = 0; y < 6; ++y) {
      for (index_t x = 0; x < 9; ++x) f(y, x) = static_cast<real>(rng.uniform());
    }
    frames.push_back(std::move(f));
  }
  FrameStack stack(frames, Format::kF16);
  EXPECT_EQ(stack.count(), frames.size());
  EXPECT_EQ(stack.rows(), 6);
  EXPECT_EQ(stack.cols(), 9);
  // Half the f32 footprint, exactly.
  EXPECT_EQ(stack.bytes(), frames.size() * 6 * 9 * sizeof(std::uint16_t));
  RArray2D out(6, 9);
  for (usize i = 0; i < frames.size(); ++i) {
    stack.decode_into(i, out.view());
    for (index_t y = 0; y < 6; ++y) {
      for (index_t x = 0; x < 9; ++x) {
        const real v = frames[i](y, x);
        EXPECT_NEAR(out(y, x), v, v * real(1.0F / 1024.0F) + real(3e-8)) << "frame " << i;
      }
    }
  }
  EXPECT_TRUE(FrameStack().empty());
}

TEST(TransmittanceCache, CompactMatchesF32) {
  // kPotential model with the cache on: the compact workspace must (a)
  // produce per-probe costs within codec tolerance of the f32 cache, and
  // (b) reuse its encoded planes across evaluations exactly like the f32
  // cache reuses its planes (identical results on a repeat evaluation).
  OpticsGrid grid;
  grid.probe_n = 16;
  MultisliceConfig config;
  config.model = ObjectModel::kPotential;
  config.sigma = real(0.8);
  MultisliceOperator op(grid, config);
  Probe probe(grid, ProbeParams{});
  const index_t n = 16;
  FramedVolume volume(3, Rect{0, 0, n, n});
  Rng rng(21);
  for (index_t s = 0; s < 3; ++s) {
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) {
        volume.data(s, y, x) = real(0.1) * cplx(static_cast<real>(rng.normal()),
                                                static_cast<real>(std::abs(rng.normal())));
      }
    }
  }
  RArray2D meas(n, n);
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < n; ++x) meas(y, x) = real(0.01);
  }

  MultisliceWorkspace ws_f32(n, 3);
  ws_f32.cache_transmittance = true;
  const double cost_f32 = op.cost(probe, volume, Rect{0, 0, n, n}, meas.view(), ws_f32);

  MultisliceWorkspace ws_c(n, 3, Format::kF16);
  ws_c.cache_transmittance = true;
  const double first = op.cost(probe, volume, Rect{0, 0, n, n}, meas.view(), ws_c);
  // Same (revision, window): the second evaluation must hit the encoded
  // cache and reproduce the first bitwise.
  const double second = op.cost(probe, volume, Rect{0, 0, n, n}, meas.view(), ws_c);
  EXPECT_EQ(first, second);
  EXPECT_NEAR(first, cost_f32, std::abs(cost_f32) * 2e-2);
  // The compact cache must not have allocated the f32 planes.
  for (const CArray2D& plane : ws_c.trans) EXPECT_TRUE(plane.empty());
  EXPECT_FALSE(ws_c.trans_c.empty());
}

}  // namespace
}  // namespace ptycho::compact
