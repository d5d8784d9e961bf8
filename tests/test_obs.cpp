// Observability subsystem: span tracer, phase ledger, metrics registry,
// log sink, and the span-derived Fig. 7b golden check.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/gradient_decomposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

using testing::tiny_dataset;

/// Every obs test runs against process-global state; this guard gives each
/// one a clean tracer/registry and restores the off state afterwards.
struct ObsGuard {
  ObsGuard() {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::Tracer::instance().clear();
    obs::registry().reset();
  }
  ~ObsGuard() {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::Tracer::instance().clear();
    obs::registry().reset();
  }
};

TEST(SpanTracer, NestedSpansAreOrderedAndContained) {
  ObsGuard guard;
  obs::set_tracing_enabled(true);
  {
    obs::SpanScope outer("outer", obs::Phase::kNone, 3, 1);
    {
      obs::SpanScope inner("inner");
      // A little real work so the inner span has nonzero extent.
      volatile double sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(double(i));
    }
  }
  const std::vector<obs::SpanRecord> spans = obs::Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Rings record completion order: the inner scope finishes first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  const obs::SpanRecord& inner = spans[0];
  const obs::SpanRecord& outer = spans[1];
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_LE(inner.start_ns, inner.end_ns);
  EXPECT_EQ(outer.iteration, 3);
  EXPECT_EQ(outer.chunk, 1);
  EXPECT_EQ(inner.iteration, -1);
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);
}

TEST(SpanTracer, LedgerAccumulatesPhaseTimeWithoutTracing) {
  ObsGuard guard;
  // Tracing stays OFF: the ledger path must work independently.
  obs::PhaseLedger ledger;
  const obs::ThreadContext previous =
      obs::set_thread_context(obs::ThreadContext{0, &ledger});
  {
    obs::SpanScope span("work", obs::Phase::kCompute);
    volatile double sink = 0;
    for (int i = 0; i < 20000; ++i) sink = sink + std::sqrt(double(i));
  }
  obs::account("waited", obs::Phase::kWait, 0.25);
  obs::set_thread_context(previous);

  PhaseProfiler prof;
  ledger.merge_into(prof);
  EXPECT_GT(prof.total(phase::kCompute), 0.0);
  EXPECT_NEAR(prof.total(phase::kWait), 0.25, 1e-9);
  // Exchange-to-zero: a second merge adds nothing.
  PhaseProfiler again;
  ledger.merge_into(again);
  EXPECT_EQ(again.total(phase::kCompute), 0.0);
  // Nothing reached the tracer.
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST(SpanTracer, ConcurrentEmissionAcrossThreads) {
  ObsGuard guard;
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  constexpr index_t kItems = 64;
  std::uint64_t expected = 0;
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    WorkStealingScheduler scheduler(pool);
    obs::PhaseLedger ledger;
    const obs::ThreadContext previous = obs::set_thread_context(obs::ThreadContext{1, &ledger});
    std::atomic<index_t> ran{0};
    scheduler.dispatch(0, kItems, [&](index_t item, int slot) {
      (void)item;
      (void)slot;
      obs::SpanScope span("item", obs::Phase::kCompute);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    obs::set_thread_context(previous);
    EXPECT_EQ(ran.load(), kItems);
    expected += static_cast<std::uint64_t>(kItems);
    PhaseProfiler prof;
    ledger.merge_into(prof);
    EXPECT_GT(prof.total(phase::kCompute), 0.0);
  }
  const std::vector<obs::SpanRecord> spans = obs::Tracer::instance().snapshot();
  std::uint64_t item_spans = 0;
  for (const obs::SpanRecord& r : spans) {
    if (std::string(r.name) == "item") {
      ++item_spans;
      // The pool workers must have adopted the submitting thread's context.
      EXPECT_EQ(r.rank, 1);
    }
  }
  EXPECT_EQ(item_spans + obs::Tracer::instance().dropped(), expected);
}

TEST(SpanTracer, ChromeTraceJsonHasRequiredFields) {
  ObsGuard guard;
  obs::set_tracing_enabled(true);
  { obs::SpanScope span("alpha", obs::Phase::kCompute, 0, 2); }
  obs::instant("tick");
  const std::string json = obs::Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"chunk\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":0"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Metrics, RegistrySnapshotAndReset) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::registry().counter("test_counter_total").add(3);
  obs::registry().counter("test_counter_total").add(4);
  obs::registry().gauge("test_gauge").set(2.5);
  obs::registry().histogram("test_hist").observe(1.0);
  obs::registry().histogram("test_hist").observe(3.0);

  EXPECT_EQ(obs::registry().counter("test_counter_total").value(), 7u);
  const std::string json = obs::registry().json();
  EXPECT_NE(json.find("\"schema\": \"ptycho.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test_counter_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test_gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 4"), std::string::npos);

  // reset() zeroes values but keeps references usable.
  obs::Counter& cached = obs::registry().counter("test_counter_total");
  obs::registry().reset();
  EXPECT_EQ(cached.value(), 0u);
  cached.add(1);
  EXPECT_EQ(obs::registry().counter("test_counter_total").value(), 1u);
}

TEST(Metrics, DisabledSitesDoNotCount) {
  ObsGuard guard;
  // Flag off: add/set/observe are no-ops.
  obs::registry().counter("off_counter_total").add(5);
  obs::registry().gauge("off_gauge").set(9.0);
  EXPECT_EQ(obs::registry().counter("off_counter_total").value(), 0u);
  EXPECT_EQ(obs::registry().gauge("off_gauge").value(), 0.0);
}

TEST(Metrics, SolverRunPopulatesPipelineCounters) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  GdConfig config;
  config.nranks = 2;
  config.iterations = 2;
  config.exec.threads = 1;
  (void)reconstruct_gd(tiny_dataset(), config);
  const auto probes = static_cast<std::uint64_t>(tiny_dataset().probe_count());
  EXPECT_EQ(obs::registry().counter("sweep_probes_total").value(),
            probes * 2 /*iterations*/);
  EXPECT_GT(obs::registry().counter("fft2d_transforms_total").value(), 0u);
  EXPECT_GT(obs::registry().counter("fft2d_bytes_total").value(), 0u);
  EXPECT_GT(obs::registry().counter("fabric_messages_total").value(), 0u);
  EXPECT_GT(obs::registry().counter("fabric_bytes_total").value(), 0u);
}

// The tentpole invariant: the Fig. 7b per-rank phase totals are DERIVED
// from spans, so summing the trace's phase-tagged spans per rank must
// reproduce the solver's reported breakdown.
TEST(GoldenBreakdown, TwoRankTraceMatchesProfilerTotals) {
  ObsGuard guard;
  obs::set_tracing_enabled(true);
  GdConfig config;
  config.nranks = 2;
  config.iterations = 3;
  config.exec.threads = 1;
  ParallelResult result = reconstruct_gd(tiny_dataset(), config);
  ASSERT_EQ(result.breakdown.size(), 2u);
  ASSERT_EQ(obs::Tracer::instance().dropped(), 0u);

  const std::vector<obs::SpanRecord> spans = obs::Tracer::instance().snapshot();
  double compute[2] = {0, 0};
  double wait[2] = {0, 0};
  double comm[2] = {0, 0};
  for (const obs::SpanRecord& r : spans) {
    if (r.rank < 0 || r.rank > 1 || r.instant) continue;
    const double sec = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    switch (r.phase) {
      case obs::Phase::kCompute:
      case obs::Phase::kUpdate: compute[r.rank] += sec; break;
      case obs::Phase::kWait: wait[r.rank] += sec; break;
      case obs::Phase::kComm: comm[r.rank] += sec; break;
      default: break;
    }
  }
  for (int r = 0; r < 2; ++r) {
    // Identical ns measurements feed both views, so the tolerance only
    // absorbs float summation order.
    const double eps = 1e-6;
    EXPECT_NEAR(result.breakdown[static_cast<usize>(r)].compute, compute[r], eps);
    EXPECT_NEAR(result.breakdown[static_cast<usize>(r)].wait, wait[r], eps);
    EXPECT_NEAR(result.breakdown[static_cast<usize>(r)].comm, comm[r], eps);
    EXPECT_GT(compute[r], 0.0);
  }
}

TEST(Log, SinkCapturesFormattedLinesWithRankTag) {
  std::vector<std::pair<log::Level, std::string>> lines;
  log::set_sink([&](log::Level level, const std::string& line) {
    lines.emplace_back(level, line);
  });
  const int previous = log::set_thread_rank(2);
  log::info() << "hello " << 42;
  log::set_thread_rank(-1);
  log::warn() << "plain";
  log::set_thread_rank(previous);
  log::set_sink({});

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].first, log::Level::kInfo);
  EXPECT_NE(lines[0].second.find("[info ]"), std::string::npos);
  EXPECT_NE(lines[0].second.find("[r2]"), std::string::npos);
  EXPECT_NE(lines[0].second.find("hello 42"), std::string::npos);
  // Monotonic timestamp prefix: "[   N.NNNs]".
  EXPECT_EQ(lines[0].second.front(), '[');
  EXPECT_NE(lines[0].second.find("s]"), std::string::npos);
  EXPECT_EQ(lines[1].first, log::Level::kWarn);
  EXPECT_EQ(lines[1].second.find("[r"), lines[1].second.find("[r2]"));  // no rank tag
  EXPECT_NE(lines[1].second.find("plain"), std::string::npos);
}

TEST(Log, ThresholdFiltersSinkToo) {
  std::vector<std::string> lines;
  log::set_sink([&](log::Level, const std::string& line) { lines.push_back(line); });
  const log::Level previous = log::threshold();
  log::set_threshold(log::Level::kWarn);
  log::info() << "dropped";
  log::warn() << "kept";
  log::set_threshold(previous);
  log::set_sink({});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept"), std::string::npos);
}

}  // namespace
}  // namespace ptycho
