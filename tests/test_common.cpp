// Unit tests for src/common: rng, options, memory hooks, timers, logging.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/memory.hpp"
#include "common/options.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"

namespace ptycho {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    PTYCHO_CHECK(1 == 2, "one is not " << 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, RequirePassesOnTrue) { EXPECT_NO_THROW(PTYCHO_REQUIRE(true, "fine")); }

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 40000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(13);
  for (const double mean : {0.5, 5.0, 200.0}) {
    const int n = 20000;
    double acc = 0.0;
    for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(acc / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(17);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng base(23);
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s0.next_u64() == s1.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha", "1.5",  "--beta=7", "--flag",
                        "--gamma",   "-2",      "pos1", "--list",   "1,2,3"};
  Options opts = Options::parse(static_cast<int>(std::size(argv)), argv);
  EXPECT_DOUBLE_EQ(opts.get_double("alpha", 0), 1.5);
  EXPECT_EQ(opts.get_int("beta", 0), 7);
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_EQ(opts.get_int("gamma", 0), -2);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
  const auto list = opts.get_int_list("list", {});
  EXPECT_EQ(list, (std::vector<long long>{1, 2, 3}));
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opts = Options::parse(1, argv);
  EXPECT_EQ(opts.get_int("missing", 42), 42);
  EXPECT_EQ(opts.get_string("missing", "d"), "d");
  EXPECT_FALSE(opts.get_bool("missing", false));
  EXPECT_EQ(opts.get_int_list("missing", {9}), (std::vector<long long>{9}));
}

TEST(Options, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--x", "abc"};
  Options opts = Options::parse(3, argv);
  EXPECT_THROW((void)opts.get_int("x", 0), Error);
  EXPECT_THROW((void)opts.get_double("x", 0), Error);
  EXPECT_THROW((void)opts.get_bool("x", false), Error);
}

TEST(Options, RejectsUnknownKeysByName) {
  const char* argv[] = {"prog", "data.ptyd", "--method", "serial", "--bogus-flag", "3",
                        "--iteration=5"};
  const Options opts = Options::parse(static_cast<int>(std::size(argv)), argv);
  // An unknown flag, or a typo of a known one, fails with an error that
  // names it.
  try {
    opts.reject_unknown({"method", "iteration"});
    ADD_FAILURE() << "--bogus-flag was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus-flag"), std::string::npos) << e.what();
  }
  try {
    opts.reject_unknown({"method", "iterations", "bogus-flag"});
    ADD_FAILURE() << "--iteration was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--iteration"), std::string::npos) << e.what();
  }
  // Positionals are not keys; every key known means no error.
  EXPECT_NO_THROW(opts.reject_unknown({"method", "bogus-flag", "iteration"}));
  EXPECT_NO_THROW(Options{}.reject_unknown({}));
}

TEST(Memory, TrackedAllocReportsToHooks) {
  static thread_local std::size_t allocated = 0;
  static thread_local std::size_t freed = 0;
  allocated = freed = 0;
  AllocHooks hooks;
  hooks.on_alloc = [](void*, std::size_t b) { allocated += b; };
  hooks.on_free = [](void*, std::size_t b) { freed += b; };
  const AllocHooks prev = set_thread_alloc_hooks(hooks);

  void* p = tracked_alloc(1000);
  EXPECT_EQ(allocated, 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kBufferAlignment, 0u);
  tracked_free(p, 1000);
  EXPECT_EQ(freed, 1000u);

  set_thread_alloc_hooks(prev);
}

TEST(Memory, HooksAreThreadLocal) {
  static thread_local std::size_t local_bytes = 0;
  AllocHooks hooks;
  hooks.on_alloc = [](void*, std::size_t b) { local_bytes += b; };
  const AllocHooks prev = set_thread_alloc_hooks(hooks);

  std::thread other([] {
    // No hooks installed on this thread: allocation must not crash and
    // must not touch the main thread's counter.
    void* p = tracked_alloc(64);
    tracked_free(p, 64);
  });
  other.join();
  EXPECT_EQ(local_bytes, 0u);
  set_thread_alloc_hooks(prev);
}

TEST(Memory, ZeroByteAllocationValid) {
  void* p = tracked_alloc(0);
  EXPECT_NE(p, nullptr);
  tracked_free(p, 0);
}

TEST(Timer, PhaseProfilerAccumulates) {
  PhaseProfiler prof;
  prof.add("compute", 1.5);
  prof.add("compute", 0.5);
  prof.add("wait", 0.25);
  EXPECT_DOUBLE_EQ(prof.total("compute"), 2.0);
  EXPECT_DOUBLE_EQ(prof.total("wait"), 0.25);
  EXPECT_DOUBLE_EQ(prof.total("absent"), 0.0);
}

TEST(Timer, PhaseProfilerMerge) {
  PhaseProfiler a;
  PhaseProfiler b;
  a.add("x", 1.0);
  b.add("x", 2.0);
  b.add("y", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.total("y"), 3.0);
}

TEST(Timer, WallTimerMonotone) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Log, ThresholdFilters) {
  const log::Level prev = log::threshold();
  log::set_threshold(log::Level::kOff);
  log::info() << "suppressed message";
  log::set_threshold(log::Level::kDebug);
  EXPECT_EQ(log::threshold(), log::Level::kDebug);
  log::set_threshold(prev);
}

}  // namespace
}  // namespace ptycho
