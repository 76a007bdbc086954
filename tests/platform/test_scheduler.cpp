#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "platform/scheduler.hpp"

namespace ascp::platform {
namespace {

TEST(Scheduler, BaseTaskRunsEveryTick) {
  Scheduler sched(1000.0);
  int count = 0;
  sched.every(1, [&] { ++count; });
  sched.run_ticks(100);
  EXPECT_EQ(count, 100);
}

TEST(Scheduler, DividedTaskRunsEveryNth) {
  Scheduler sched(1000.0);
  int fast = 0, slow = 0;
  sched.every(1, [&] { ++fast; });
  sched.every(8, [&] { ++slow; });
  sched.run_ticks(64);
  EXPECT_EQ(fast, 64);
  EXPECT_EQ(slow, 8);
}

TEST(Scheduler, OrderWithinTickIsRegistrationOrder) {
  Scheduler sched(1000.0);
  std::vector<int> order;
  sched.every(1, [&] { order.push_back(1); });
  sched.every(1, [&] { order.push_back(2); });
  sched.tick();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunSecondsConverts) {
  Scheduler sched(1.92e6);
  long count = 0;
  sched.every(1, [&] { ++count; });
  sched.run_seconds(0.001);
  EXPECT_EQ(count, 1920);
  EXPECT_NEAR(sched.now(), 0.001, 1e-9);
}

TEST(Scheduler, InvalidDividerThrows) {
  Scheduler sched(1000.0);
  EXPECT_THROW(sched.every(0, [] {}), std::invalid_argument);
}

TEST(Scheduler, FirstTickFiresAllTasks) {
  Scheduler sched(100.0);
  int hits = 0;
  sched.every(50, [&] { ++hits; });
  sched.tick();
  EXPECT_EQ(hits, 1);  // tick 0 is a multiple of every divider
}

TEST(Scheduler, TimeAccountingMatchesTicks) {
  Scheduler sched(240e3);
  sched.run_ticks(240);
  EXPECT_NEAR(sched.now(), 0.001, 1e-12);
  EXPECT_EQ(sched.ticks(), 240);
  EXPECT_DOUBLE_EQ(sched.dt(), 1.0 / 240e3);
}

TEST(Scheduler, RegistrationOrderHoldsAcrossMixedDividers) {
  // Within one tick every due task fires in registration order, regardless
  // of divider — the engine relies on this for its analog → sample → DSP →
  // supervisor → output pipeline ordering.
  Scheduler sched(1000.0);
  std::vector<int> order;
  sched.every(4, [&] { order.push_back(1); });
  sched.every(1, [&] { order.push_back(2); });
  sched.every(2, [&] { order.push_back(3); });
  sched.run_ticks(4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3,  // tick 0: all due
                                     2,        // tick 1
                                     2, 3,     // tick 2
                                     2}));     // tick 3
}

TEST(Scheduler, RunSecondsRoundsHalfUpToNearestTick) {
  // run_seconds() rounds seconds*base_rate to the nearest tick (half-up),
  // the same convention the pre-refactor loops used — so a 0.9999-tick
  // request runs one tick and a 0.4-tick request runs none.
  Scheduler sched(1000.0);
  long count = 0;
  sched.every(1, [&] { ++count; });
  sched.run_seconds(0.0004);  // 0.4 ticks -> 0
  EXPECT_EQ(count, 0);
  sched.run_seconds(0.0005);  // 0.5 ticks -> 1 (half rounds up)
  EXPECT_EQ(count, 1);
  sched.run_seconds(0.0034999);  // 3.4999 ticks -> 3
  EXPECT_EQ(count, 4);
}

TEST(Scheduler, PhaseOffsetShiftsFiring) {
  Scheduler sched(1000.0);
  std::vector<long> fired_at;
  sched.every(8, 7, [&] { fired_at.push_back(sched.ticks()); });
  sched.run_ticks(24);
  EXPECT_EQ(fired_at, (std::vector<long>{7, 15, 23}));
}

TEST(Scheduler, PhasePersistsAcrossRunCalls) {
  // A divider-8 phase-7 task keeps its alignment across run_* boundaries
  // that are not divider multiples (the baseline channel depends on this).
  Scheduler sched(1000.0);
  long count = 0;
  sched.every(8, 7, [&] { ++count; });
  sched.run_ticks(11);  // fires at tick 7
  EXPECT_EQ(count, 1);
  sched.run_ticks(5);   // ticks 11..15: fires at 15
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, InvalidPhaseThrows) {
  Scheduler sched(1000.0);
  EXPECT_THROW(sched.every(8, 8, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.every(8, -1, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.every(0, 0, [] {}), std::invalid_argument);
}

TEST(Scheduler, ProfilerCountsInvocationsPerTask) {
  Scheduler sched(1000.0);
  long fast = 0, slow = 0;
  sched.every(1, [&] { ++fast; }, "fast");
  obs::TaskProfiler prof;
  obs::SpanLog spans;
  prof.set_span_log(&spans);
  sched.set_profiler(&prof);  // attach after one registration…
  sched.every(8, 7, [&] { ++slow; }, "slow");  // …and register one while attached
  EXPECT_DOUBLE_EQ(prof.base_rate(), 1000.0);
  sched.run_ticks(64);

  EXPECT_EQ(fast, 64);
  EXPECT_EQ(slow, 8);
  ASSERT_EQ(prof.task_count(), 2u);
  const auto& stats = prof.stats();
  EXPECT_EQ(stats[0].name, "fast");
  EXPECT_EQ(stats[0].invocations, 64u);
  EXPECT_EQ(stats[0].divider, 1);
  EXPECT_EQ(stats[1].name, "slow");
  EXPECT_EQ(stats[1].invocations, 8u);
  EXPECT_EQ(stats[1].divider, 8);
  EXPECT_EQ(stats[1].phase, 7);
  EXPECT_GE(stats[0].wall_seconds, 0.0);
  // One span per invocation: at 1 kHz the auto stride times every firing.
  EXPECT_EQ(spans.count(obs::SpanCategory::Scheduler), 72u);
  EXPECT_EQ(spans.dropped(), 0u);
}

TEST(Scheduler, ProfilerDoesNotChangeFiringPattern) {
  // Same tasks, one scheduler profiled and one not: identical firing order.
  const auto firing_log = [](bool profiled) {
    Scheduler sched(1000.0);
    obs::TaskProfiler prof;
    std::vector<std::pair<char, long>> log;
    sched.every(2, [&] { log.emplace_back('a', sched.ticks()); }, "a");
    sched.every(8, 7, [&] { log.emplace_back('b', sched.ticks()); }, "b");
    if (profiled) sched.set_profiler(&prof);
    sched.run_ticks(32);
    return log;
  };
  EXPECT_EQ(firing_log(false), firing_log(true));
}

TEST(Scheduler, SetTicksRephasesToTheNextMatchingTick) {
  // A restored persistent scheduler (the analog baselines) must fire each
  // task on the first tick at or after the restored counter that matches its
  // phase, whatever the counter was before.
  for (long k = 0; k < 16; ++k) {
    Scheduler sched(1000.0);
    std::vector<long> fired_at;
    sched.every(8, 7, [&] { fired_at.push_back(sched.ticks()); });
    sched.run_ticks(3);
    sched.set_ticks(k);
    sched.run_ticks(16);
    const long first = k + (7 - k % 8 + 8) % 8;
    EXPECT_EQ(fired_at, (std::vector<long>{first, first + 8})) << "set_ticks(" << k << ")";
  }
}

TEST(Scheduler, TaskRegisteredAfterTicksAdvancedFiresOnItsPhase) {
  Scheduler sched(1000.0);
  sched.run_ticks(5);
  std::vector<std::pair<char, long>> log;
  sched.every(8, 7, [&] { log.emplace_back('a', sched.ticks()); });
  sched.every(8, 2, [&] { log.emplace_back('b', sched.ticks()); });
  sched.every(1, [&] { log.emplace_back('c', sched.ticks()); });
  sched.run_ticks(6);  // ticks 5..10
  EXPECT_EQ(log, (std::vector<std::pair<char, long>>{
                     {'c', 5}, {'c', 6}, {'a', 7}, {'c', 7}, {'c', 8}, {'c', 9}, {'b', 10},
                     {'c', 10}}));
}

TEST(Scheduler, ProfiledAndUnprofiledRunsFireTheSameSequence) {
  // Stride 1 times every firing, stride 0 (auto) a sampled subset; neither
  // may move a firing. One task registers while the profiler is attached.
  const auto firing_log = [](bool profiled, long stride) {
    Scheduler sched(1.92e6);
    obs::TaskProfiler prof;
    prof.set_sample_stride(stride);
    std::vector<std::pair<int, long>> log;
    sched.every(1, [&] { log.emplace_back(0, sched.ticks()); }, "analog");
    sched.every(8, 7, [&] { log.emplace_back(1, sched.ticks()); }, "frame");
    sched.run_ticks(5);
    if (profiled) sched.set_profiler(&prof);
    sched.every(3, 1, [&] { log.emplace_back(2, sched.ticks()); }, "thirds");
    sched.run_ticks(4000);
    return log;
  };
  const auto plain = firing_log(false, 1);
  EXPECT_EQ(plain.size(), 4005u + 500u + 1333u);
  EXPECT_EQ(firing_log(true, 1), plain);
  EXPECT_EQ(firing_log(true, 0), plain);
}

TEST(Scheduler, ProfilerDetachStopsRecording) {
  Scheduler sched(1000.0);
  obs::TaskProfiler prof;
  sched.every(1, [] {}, "t");
  sched.set_profiler(&prof);
  sched.run_ticks(10);
  sched.set_profiler(nullptr);
  sched.run_ticks(10);
  ASSERT_EQ(prof.task_count(), 1u);
  EXPECT_EQ(prof.stats()[0].invocations, 10u);  // only the attached window
}

TEST(Scheduler, SharedProfilersCountEveryFiringAndSplitTheWall) {
  // Three systems share the tasks: two profiled, one (null) not. Each
  // profiler counts every firing; each entry is booked a third of a timed
  // firing's wall. One profiler leaves from inside a firing and keeps only
  // the firings completed before it.
  Scheduler sched(1000.0);
  obs::TaskProfiler a, b;
  obs::SpanLog a_spans, b_spans;
  a.set_span_log(&a_spans);
  b.set_span_log(&b_spans);
  a.set_sample_stride(1);
  b.set_sample_stride(1);
  long fired = 0;
  std::vector<obs::TaskProfiler*> attached = {&a, nullptr, &b};
  sched.every(1, [&] {
    if (++fired == 31) sched.set_profilers(std::span<obs::TaskProfiler* const>(attached.data(), 2));
  }, "t");
  sched.set_profilers(attached);
  sched.run_ticks(50);
  EXPECT_EQ(a.stats()[0].invocations, 50u);
  EXPECT_EQ(a.timed_invocations(0), 50u);
  EXPECT_EQ(b.stats()[0].invocations, 30u);
  EXPECT_EQ(b.timed_invocations(0), 30u);
  const auto walls = [](const obs::SpanLog& log) {
    std::vector<double> w;
    log.for_each([&](const obs::Span& s) { w.push_back(s.wall_us); });
    return w;
  };
  const auto a_walls = walls(a_spans);
  const auto b_walls = walls(b_spans);
  ASSERT_EQ(b_walls.size(), 30u);
  // Before b left, a and b were booked equal shares of the same firings.
  for (std::size_t k = 0; k < 30; ++k) EXPECT_EQ(a_walls[k], b_walls[k]) << k;
}

TEST(Scheduler, UntimedFiringsAreCountedWhenTheRunReturns) {
  // A large stride leaves most firings untimed: they are booked in bulk, and
  // must all be there when run_ticks returns, even by an exception.
  Scheduler sched(1.92e6);
  obs::TaskProfiler prof;
  long fired = 0;
  sched.every(1, [&] {
    if (++fired == 1500) throw std::runtime_error("task failed");
  }, "t");
  sched.set_profiler(&prof);
  sched.run_ticks(1000);
  EXPECT_EQ(prof.stats()[0].invocations, 1000u);
  EXPECT_LE(prof.timed_invocations(0), 2u);
  EXPECT_THROW(sched.run_ticks(1000), std::runtime_error);
  EXPECT_EQ(prof.stats()[0].invocations, 1499u) << "the firing that threw is not counted";
}

}  // namespace
}  // namespace ascp::platform
