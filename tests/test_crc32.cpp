// CRC-32 kernels against a bit-at-a-time oracle: known vectors, random
// lengths and misaligned starts, lengths around the fold's 16- and 64-byte
// blocks, one large buffer, and chaining at every split point. Each kernel
// is called directly (the fold kernel only where the CPU runs it), and so
// is the crc32() entry point the transport and checkpoint layers use,
// also from several threads at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"

namespace ptycho {
namespace {

/// The definition: one bit at a time, reflected polynomial 0xEDB88320.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n, std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

// "entry" is crc32() itself: whichever kernel this CPU selected.
class Crc32Kernel : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "slicing8") {
      kernel_ = &detail::crc32_slicing8;
    } else if (GetParam() == "fold") {
      kernel_ = detail::crc32_fold();
      if (kernel_ == nullptr) GTEST_SKIP() << "no PCLMULQDQ fold kernel on this CPU";
    } else {
      kernel_ = &ptycho::crc32;
    }
  }

  std::uint32_t run(const unsigned char* p, std::size_t n, std::uint32_t crc = 0) const {
    return kernel_(p, n, crc);
  }

  detail::Crc32Kernel kernel_ = nullptr;
};

TEST_P(Crc32Kernel, KnownVectors) {
  EXPECT_EQ(run(nullptr, 0), 0u);
  const char* check = "123456789";
  EXPECT_EQ(run(reinterpret_cast<const unsigned char*>(check), std::strlen(check)),
            0xCBF43926u);
  // 64 bytes of the check string repeated: the smallest input the fold
  // kernel folds rather than handing to slicing-by-8.
  std::string repeated;
  while (repeated.size() < 64) repeated += check;
  repeated.resize(64);
  const auto* r = reinterpret_cast<const unsigned char*>(repeated.data());
  EXPECT_EQ(run(r, repeated.size()), crc32_bitwise(r, repeated.size()));
}

TEST_P(Crc32Kernel, RandomLengthsAndOffsetsMatchTheOracle) {
  const std::vector<unsigned char> buf = random_bytes(4096 + 64, 1);
  std::mt19937 rng(2);
  std::uniform_int_distribution<std::size_t> length(0, 4096);
  std::uniform_int_distribution<std::size_t> offset(0, 63);
  std::uniform_int_distribution<std::uint32_t> seed_crc;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = length(rng);
    const std::size_t off = offset(rng);
    const std::uint32_t crc = trial % 2 == 0 ? 0u : seed_crc(rng);
    ASSERT_EQ(run(buf.data() + off, n, crc), crc32_bitwise(buf.data() + off, n, crc))
        << "n=" << n << " offset=" << off << " crc=" << crc;
  }
}

TEST_P(Crc32Kernel, LengthsAroundTheFoldBlocks) {
  const std::vector<unsigned char> buf = random_bytes(128 + 64, 3);
  for (const std::size_t n : {15, 16, 17, 63, 64, 65, 79, 80, 127, 128}) {
    for (std::size_t off = 0; off < 64; ++off) {
      ASSERT_EQ(run(buf.data() + off, n), crc32_bitwise(buf.data() + off, n))
          << "n=" << n << " offset=" << off;
    }
  }
}

TEST_P(Crc32Kernel, EightMebibyteBuffer) {
  // Shared by the three kernels: the oracle is the slow part.
  static const std::vector<unsigned char> buf = random_bytes(std::size_t{8} << 20, 4);
  static const std::uint32_t expected = crc32_bitwise(buf.data(), buf.size());
  EXPECT_EQ(run(buf.data(), buf.size()), expected);
}

TEST_P(Crc32Kernel, ChainsAtEverySplitPoint) {
  const std::vector<unsigned char> buf = random_bytes(300, 5);
  const std::uint32_t whole = crc32_bitwise(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = run(buf.data(), split);
    ASSERT_EQ(run(buf.data() + split, buf.size() - split, head), whole) << "split=" << split;
  }
}

TEST(Crc32, ConcurrentFirstUseAgrees) {
  // The kernel is chosen on the first call, by whichever thread makes it
  // (a rank, the socket progress thread, the checkpoint writer). Plain
  // TESTs run before the parameterised suite, so this is that first call.
  const std::vector<unsigned char> buf = random_bytes(1000, 6);
  const std::uint32_t expected = crc32_bitwise(buf.data(), buf.size());
  std::vector<std::uint32_t> got(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] { got[t] = crc32(buf.data(), buf.size()); });
  }
  for (auto& th : threads) th.join();
  for (const std::uint32_t crc : got) EXPECT_EQ(crc, expected);
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32Kernel, ::testing::Values("slicing8", "fold", "entry"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace ptycho
