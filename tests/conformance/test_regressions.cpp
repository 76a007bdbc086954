// Regression pins for latent-bug audits driven by the conformance fuzzer:
// an open-loop run against a traced one ending mid-CIC-frame, profiler
// neutrality under sampled wall-timing, and the cold-temperature
// supervisor-arming corner that set the fault generator's injection floor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/trace.hpp"
#include "core/gyro_system.hpp"
#include "obs/observability.hpp"
#include "platform/scheduler.hpp"
#include "safety/supervisor.hpp"
#include "sensor/environment.hpp"

namespace ascp {
namespace {

// An open-loop GyroSystem run once took a batched sense path unless an
// observer such as a trace tap was attached; both now run the one
// sample-serial path. A trace tap is read-only, so the two runs must produce
// bit-identical decimated outputs — including when the run ends
// mid-CIC-frame (240000 × 0.0501 = 12024 samples; 12024 mod 128 = 120
// samples pending at run end, with no partial output emitted).
TEST(ConformanceRegressions, BatchedSensePathMatchesSerialWhenRunEndsMidBlock) {
  core::GyroSystemConfig cfg = core::default_gyro_system(core::Fidelity::Ideal);
  cfg.sense.mode = core::SenseMode::OpenLoop;
  const auto rate = sensor::Profile::sine(80.0, 20.0);
  const auto temp = sensor::Profile::constant(25.0);
  constexpr double kDur = 0.0501;

  core::GyroSystem batched(cfg);
  batched.power_on(7);
  std::vector<double> out_batched;
  batched.run(rate, temp, kDur, &out_batched);

  core::GyroSystem serial(cfg);
  TraceRecorder trace;
  serial.set_trace(&trace, 16);
  serial.power_on(7);
  std::vector<double> out_serial;
  serial.run(rate, temp, kDur, &out_serial);

  ASSERT_FALSE(out_batched.empty());
  ASSERT_EQ(out_batched.size(), out_serial.size());
  for (std::size_t k = 0; k < out_batched.size(); ++k)
    ASSERT_EQ(out_batched[k], out_serial[k]) << "sample " << k;
  ASSERT_EQ(batched.last_output(), serial.last_output());
}

// The profiler fix that the fuzzer's smoke budget forced: wall-timing is
// sampled (one firing per window of N per task), but invocation counts stay
// exact and the sampled costs are scaled by the stride so accumulated wall
// estimates stay unbiased.
TEST(ConformanceRegressions, SampledProfilerKeepsExactInvocationCounts) {
  platform::Scheduler sched(240e3);
  long fired = 0;
  sched.every(1, [&] { ++fired; }, "dsp");
  sched.every(128, [&] {}, "decim");

  obs::TaskProfiler prof;  // default stride 0 = auto
  sched.set_profiler(&prof);
  sched.run_ticks(24000);

  ASSERT_EQ(fired, 24000);  // profiling never changes the firing pattern
  ASSERT_EQ(prof.task_count(), 2u);
  // Invocation counts are exact (divider-128 task fires at tick 0, so 188
  // firings in 24000 ticks)...
  EXPECT_EQ(prof.stats()[0].invocations, 24000u);
  EXPECT_EQ(prof.stats()[1].invocations, 188u);
  // ...while only a sampled subset was clocked. Auto stride for a 240 kHz
  // task targets kAutoSampleHz: 240000 / 2000 = 120 → 24000/120 timed.
  EXPECT_EQ(prof.timed_invocations(0), 24000u / 120u);
  // The 1.875 kHz decimator fires below the sample target → stride 1 (exact).
  EXPECT_EQ(prof.timed_invocations(1), 188u);
  EXPECT_GT(prof.stats()[0].wall_seconds, 0.0);
}

TEST(ConformanceRegressions, ProfilerWallEstimateScalesSampledCostByStride) {
  obs::TaskProfiler prof;
  const int id = prof.register_task("t", 1, 0);
  prof.record(id, 0, 1e-3, 16.0);  // one timed firing standing in for 16
  EXPECT_EQ(prof.stats()[static_cast<std::size_t>(id)].invocations, 1u);
  EXPECT_EQ(prof.timed_invocations(id), 1u);
  EXPECT_DOUBLE_EQ(prof.stats()[static_cast<std::size_t>(id)].wall_seconds, 1.6e-2);
}

TEST(ConformanceRegressions, ExactStrideTimesEveryInvocation) {
  platform::Scheduler sched(240e3);
  sched.every(1, [] {}, "dsp");
  obs::TaskProfiler prof;
  prof.set_sample_stride(1);
  sched.set_profiler(&prof);
  sched.run_ticks(5000);
  EXPECT_EQ(prof.stats()[0].invocations, 5000u);
  EXPECT_EQ(prof.timed_invocations(0), 5000u);
}

// At 1.92 MHz the auto stride is 960, a multiple of the ADC divider 8, so a
// timed firing at a fixed place in each window would land every sample of a
// divider-1 task on one ADC phase. The timed place moves from window to
// window and carries on across the fresh Scheduler each GyroSystem run
// builds, even when runs are shorter than a window.
TEST(ConformanceRegressions, SampledProfilerCoversEveryAdcPhase) {
  constexpr long kTicks = 61440;  // 64 windows of 960
  for (const long run_ticks : {kTicks, 96L}) {
    obs::TaskProfiler prof;
    obs::SpanLog spans;
    prof.set_span_log(&spans);
    for (long origin = 0; origin < kTicks; origin += run_ticks) {
      platform::Scheduler sched(1.92e6);
      sched.every(1, [] {}, "analog");
      prof.set_tick_origin(origin);
      sched.set_profiler(&prof);
      sched.run_ticks(run_ticks);
    }
    EXPECT_EQ(prof.stats()[0].invocations, static_cast<std::uint64_t>(kTicks));
    EXPECT_EQ(prof.timed_invocations(0), 64u) << "runs of " << run_ticks;
    std::set<long> phases;
    spans.for_each([&](const obs::Span& s) {
      phases.insert(std::llround(s.t_begin * prof.base_rate()) % 8);
    });
    EXPECT_EQ(phases.size(), 8u) << "runs of " << run_ticks;
  }
}

// Attaching observability must not perturb the numeric path: same seed, same
// stimulus, bit-identical outputs with and without the sink (the conformance
// oracle relies on this when it hashes instrumented runs).
TEST(ConformanceRegressions, ObservabilityAttachIsOutputNeutral) {
  core::GyroSystemConfig cfg = core::default_gyro_system(core::Fidelity::Ideal);
  const auto rate = sensor::Profile::sine(100.0, 15.0);
  const auto temp = sensor::Profile::constant(25.0);

  core::GyroSystem plain(cfg);
  plain.power_on(3);
  std::vector<double> out_plain;
  plain.run(rate, temp, 0.06, &out_plain);

  core::GyroSystem observed(cfg);
  obs::Observability o;
  observed.set_observability(o.sink());
  observed.power_on(3);
  std::vector<double> out_observed;
  observed.run(rate, temp, 0.06, &out_observed);

  ASSERT_EQ(out_plain.size(), out_observed.size());
  for (std::size_t k = 0; k < out_plain.size(); ++k)
    ASSERT_EQ(out_plain[k], out_observed[k]) << "sample " << k;
  // And the profiler actually saw the run.
  EXPECT_GT(o.tasks.stats().size(), 0u);
  EXPECT_GT(o.tasks.stats()[0].invocations, 0u);
}

// The corner that moved the fault generator's injection floor to 0.65 s:
// at a 10 °C cold soak the drive resonance shift slows PLL acquisition, and
// the supervisor must still be armed before the earliest injection instant.
TEST(ConformanceRegressions, SupervisorArmsBeforeInjectionFloorAtColdCorner) {
  core::GyroSystemConfig cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.with_safety = true;
  core::GyroSystem g(cfg);
  g.power_on(1);
  std::vector<double> out;
  g.run(sensor::Profile::constant(30.0), sensor::Profile::constant(10.0), 0.65, &out);
  ASSERT_NE(g.supervisor(), nullptr);
  EXPECT_TRUE(g.supervisor()->armed());
  EXPECT_TRUE(g.locked());
}

}  // namespace
}  // namespace ascp
