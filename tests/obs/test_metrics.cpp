// MetricRegistry tests: counter/gauge/histogram semantics, the log-2 bucket
// layout (percentiles are *exact* for values placed on bucket edges — the
// distributions below use powers of two on purpose), sharded recording from
// multiple threads, and capacity limits.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace ascp::obs {
namespace {

TEST(Metrics, CounterGetOrCreateAndAdd) {
  MetricRegistry reg;
  const auto id = reg.counter("a.count");
  EXPECT_EQ(reg.counter("a.count"), id);  // same name → same id
  reg.add(id);
  reg.add(id, 4.0);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter_value("a.count"), 5.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("missing"), 0.0);
}

TEST(Metrics, GaugeLastValueWins) {
  MetricRegistry reg;
  const auto id = reg.gauge("g");
  reg.set(id, 1.5);
  reg.set(id, -7.25);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "g");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, -7.25);
}

TEST(Metrics, SnapshotSortedByName) {
  MetricRegistry reg;
  reg.add(reg.counter("zeta"));
  reg.add(reg.counter("alpha"));
  reg.add(reg.counter("mid"));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
}

TEST(Metrics, BucketLayout) {
  // Bucket i ≥ 1 covers [2^(kMinExp+i-1), 2^(kMinExp+i)); bucket 0 catches
  // v ≤ 0 and the deep underflow range.
  EXPECT_EQ(MetricRegistry::bucket_index(0.0), 0);
  EXPECT_EQ(MetricRegistry::bucket_index(-3.0), 0);
  EXPECT_DOUBLE_EQ(MetricRegistry::bucket_floor(1.0), 1.0);
  EXPECT_DOUBLE_EQ(MetricRegistry::bucket_floor(1.999), 1.0);
  EXPECT_DOUBLE_EQ(MetricRegistry::bucket_floor(2.0), 2.0);
  EXPECT_DOUBLE_EQ(MetricRegistry::bucket_floor(3.0), 2.0);
  EXPECT_DOUBLE_EQ(MetricRegistry::bucket_floor(1024.0), 1024.0);
  EXPECT_DOUBLE_EQ(MetricRegistry::bucket_floor(0.5), 0.5);
  // Monotone non-decreasing index across magnitudes.
  int prev = -1;
  for (double v : {1e-9, 1e-3, 0.5, 1.0, 2.0, 100.0, 1e6}) {
    const int idx = MetricRegistry::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(Metrics, HistogramExactPercentilesOnBucketEdges) {
  // 50×1, 45×4, 4×16, 1×64 — all powers of two, so every value IS its
  // bucket's lower edge and the rank → bucket walk reports it exactly:
  //   p50 rank 50  → cumulative 50 at bucket(1)  → 1
  //   p95 rank 95  → cumulative 95 at bucket(4)  → 4
  //   p99 rank 99  → cumulative 99 at bucket(16) → 16
  MetricRegistry reg;
  const auto id = reg.histogram("lat");
  for (int i = 0; i < 50; ++i) reg.observe(id, 1.0);
  for (int i = 0; i < 45; ++i) reg.observe(id, 4.0);
  for (int i = 0; i < 4; ++i) reg.observe(id, 16.0);
  reg.observe(id, 64.0);

  const auto st = reg.snapshot().histogram_stats("lat");
  EXPECT_EQ(st.count, 100u);
  EXPECT_DOUBLE_EQ(st.sum, 50.0 + 180.0 + 64.0 + 64.0);
  EXPECT_DOUBLE_EQ(st.min, 1.0);
  EXPECT_DOUBLE_EQ(st.max, 64.0);
  EXPECT_DOUBLE_EQ(st.p50, 1.0);
  EXPECT_DOUBLE_EQ(st.p95, 4.0);
  EXPECT_DOUBLE_EQ(st.p99, 16.0);
  EXPECT_DOUBLE_EQ(st.mean(), 3.58);
}

TEST(Metrics, HistogramPercentilesClampToExactExtrema) {
  // A single off-edge value: the bucket floor (2.0 for 3.5) undershoots the
  // true minimum, so every percentile must clamp up to the tracked min.
  MetricRegistry reg;
  const auto id = reg.histogram("one");
  reg.observe(id, 3.5);
  const auto st = reg.snapshot().histogram_stats("one");
  EXPECT_EQ(st.count, 1u);
  EXPECT_DOUBLE_EQ(st.min, 3.5);
  EXPECT_DOUBLE_EQ(st.max, 3.5);
  EXPECT_DOUBLE_EQ(st.p50, 3.5);
  EXPECT_DOUBLE_EQ(st.p99, 3.5);
}

TEST(Metrics, HistogramEmptyStatsAreAllZero) {
  // Both a histogram that was created but never observed and a name that
  // does not exist must come back as the all-zero stats block — percentile
  // code must not walk buckets for count == 0.
  MetricRegistry reg;
  reg.histogram("created_never_observed");
  for (const char* name : {"created_never_observed", "no_such_histogram"}) {
    const auto st = reg.snapshot().histogram_stats(name);
    EXPECT_EQ(st.count, 0u) << name;
    EXPECT_DOUBLE_EQ(st.sum, 0.0) << name;
    EXPECT_DOUBLE_EQ(st.min, 0.0) << name;
    EXPECT_DOUBLE_EQ(st.max, 0.0) << name;
    EXPECT_DOUBLE_EQ(st.p50, 0.0) << name;
    EXPECT_DOUBLE_EQ(st.p95, 0.0) << name;
    EXPECT_DOUBLE_EQ(st.p99, 0.0) << name;
    EXPECT_DOUBLE_EQ(st.mean(), 0.0) << name;  // no divide-by-zero
  }
}

TEST(Metrics, HistogramSingleSampleClampsAllPercentiles) {
  // One on-edge sample: every percentile rank resolves to the only bucket,
  // and min == max == every percentile.
  MetricRegistry reg;
  const auto id = reg.histogram("single");
  reg.observe(id, 2.0);
  const auto st = reg.snapshot().histogram_stats("single");
  EXPECT_EQ(st.count, 1u);
  EXPECT_DOUBLE_EQ(st.min, 2.0);
  EXPECT_DOUBLE_EQ(st.max, 2.0);
  EXPECT_DOUBLE_EQ(st.p50, 2.0);
  EXPECT_DOUBLE_EQ(st.p95, 2.0);
  EXPECT_DOUBLE_EQ(st.p99, 2.0);
  EXPECT_DOUBLE_EQ(st.mean(), 2.0);
}

TEST(Metrics, HistogramBucketZeroUnderflowClampsToTrackedMin) {
  // Zero and deep-underflow values land in bucket 0, whose floor (0.0)
  // undershoots nothing only for exact zeros — percentiles must clamp to the
  // tracked extrema either way, and max must clamp *down* for bucket floors
  // that overshoot (impossible) or percentile walks that hit the last bucket.
  MetricRegistry reg;
  const auto id = reg.histogram("tiny");
  reg.observe(id, 0.0);
  reg.observe(id, 1e-15);  // far below 2^kMinExp → bucket 0
  ASSERT_EQ(MetricRegistry::bucket_index(1e-15), 0);
  const auto st = reg.snapshot().histogram_stats("tiny");
  EXPECT_EQ(st.count, 2u);
  EXPECT_DOUBLE_EQ(st.min, 0.0);
  EXPECT_DOUBLE_EQ(st.max, 1e-15);
  EXPECT_DOUBLE_EQ(st.p50, 0.0);   // bucket-0 floor, clamped to min
  EXPECT_LE(st.p99, st.max);       // never reports above the tracked max
  EXPECT_GE(st.p99, st.min);
}

TEST(Metrics, ShardedRecordingMergesAcrossThreads) {
  MetricRegistry reg;
  const auto c = reg.counter("hits");
  const auto h = reg.histogram("vals");
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.add(c);
        reg.observe(h, 2.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter_value("hits"), kThreads * kPerThread);
  const auto st = snap.histogram_stats("vals");
  EXPECT_EQ(st.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(st.min, 2.0);
  EXPECT_DOUBLE_EQ(st.max, 2.0);
  EXPECT_DOUBLE_EQ(st.p50, 2.0);
}

TEST(Metrics, ResetValuesKeepsNamesAndIds) {
  MetricRegistry reg;
  const auto c = reg.counter("c");
  reg.add(c, 9.0);
  reg.set(reg.gauge("g"), 3.0);
  reg.observe(reg.histogram("h"), 8.0);
  reg.reset_values();
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counter_value("c"), 0.0);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.0);
  EXPECT_EQ(snap.histogram_stats("h").count, 0u);
  EXPECT_EQ(reg.counter("c"), c);  // id survives the reset
}

TEST(Metrics, ThrowsPastFixedCapacity) {
  MetricRegistry reg;
  for (std::size_t i = 0; i < MetricRegistry::kMaxGauges; ++i)
    reg.gauge(std::string("g").append(std::to_string(i)));
  EXPECT_THROW(reg.gauge("one-too-many"), std::length_error);
  // Existing names still intern fine at capacity.
  EXPECT_NO_THROW(reg.gauge("g0"));
}

}  // namespace
}  // namespace ascp::obs
