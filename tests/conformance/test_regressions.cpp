// Regression pins for latent-bug audits driven by the conformance fuzzer:
// an open-loop run against a traced one ending mid-CIC-frame, profiler
// neutrality under sampled wall-timing, and the cold-temperature
// supervisor-arming corner that set the fault generator's injection floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/trace.hpp"
#include "core/gyro_system.hpp"
#include "obs/observability.hpp"
#include "safety/fault_injection.hpp"
#include "safety/supervisor.hpp"
#include "sensor/environment.hpp"
#include "sensor/stimulus_source.hpp"

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

/// A constant 20 °/s at 25 °C on the global tick axis, except that it
/// throws when asked for tick `at`.
class ThrowingSource final : public sensor::StimulusSource {
 public:
  explicit ThrowingSource(long at) : at_(at) {}
  sensor::StimulusKind kind() const override { return sensor::StimulusKind::Synthetic; }
  sensor::StimulusSample sample(long tick) override {
    if (tick == at_) throw std::runtime_error("stimulus failed");
    return {20.0, 25.0};
  }
  void serialize_state(StateArchive&) override {}

 private:
  long at_;
};

/// An observed GyroIdeal system, powered on.
struct Observed {
  core::GyroSystem sys{core::default_gyro_system(core::Fidelity::Ideal)};
  obs::Observability o;
  Observed() {
    sys.power_on(5);
    sys.set_observability(o.sink());
  }
  std::uint64_t count(std::size_t task) const { return o.tasks.stats()[task].invocations; }
  void run_ticks(long n) {
    sys.run(sensor::Profile::constant(20.0), sensor::Profile::constant(25.0),
            static_cast<double>(n) / sys.config().analog_fs, nullptr);
  }
};

// The profiler fix that the fuzzer's smoke budget forced: wall-timing is
// sampled (one frame in kTimedFrameStride), but invocation counts stay
// exact. `analog` counts every tick run and `dsp_frame` every conversion
// (ticks ≡ 7 mod 8), across runs that begin and end mid-frame; a firing
// that threw is not counted.
TEST(ConformanceRegressions, SampledProfilerKeepsExactInvocationCounts) {
  Observed a;
  long ticks = 0;
  for (const long n : {3001L, 1L, 4093L, 960L}) {
    a.run_ticks(n);
    ticks += n;
  }
  ASSERT_EQ(a.o.tasks.task_count(), 2u);
  EXPECT_EQ(a.count(0), static_cast<std::uint64_t>(ticks));
  EXPECT_EQ(a.count(1), static_cast<std::uint64_t>(ticks / 8));
  EXPECT_EQ(a.count(1), static_cast<std::uint64_t>(a.sys.dsp_samples()));
  // ...while only the timed frames (1, 128, ..., 890) were clocked.
  EXPECT_EQ(a.o.spans.count(obs::SpanCategory::Scheduler), 8u * 2u + 4u) << "and 4 gyro.run";
  EXPECT_GT(a.o.tasks.stats()[0].wall_seconds, 0.0);
  EXPECT_GT(a.o.tasks.stats()[1].wall_seconds, 0.0);

  // A lone observed run whose stimulus throws mid-frame, in a timed frame
  // (tick 9154 lies in frame 1144 = 9 × 127 + 1): the analog firing that
  // threw and the frame it was in are not counted.
  ThrowingSource src(9154);
  EXPECT_THROW(a.sys.run(src, 0.01, nullptr), std::runtime_error);
  EXPECT_EQ(a.count(0), 9154u);
  EXPECT_EQ(a.count(1), 9154u / 8u);
  EXPECT_EQ(a.count(1), static_cast<std::uint64_t>(a.sys.dsp_samples()));

  // A DSP frame that throws (a fault action at DSP sample 300, on tick
  // 2399): its analog ticks count, the frame does not.
  Observed b;
  safety::FaultCampaign campaign;
  campaign.add({"explode", safety::FaultLayer::Dsp, 300, -1, false, 0},
               [] { throw std::runtime_error("campaign action exploded"); });
  b.sys.set_fault_campaign(&campaign);
  EXPECT_THROW(b.run_ticks(4000), std::runtime_error);
  EXPECT_EQ(b.count(0), 2400u);
  EXPECT_EQ(b.count(1), 299u);
}

TEST(ConformanceRegressions, ProfilerSharesTheRunWallByTimedWall) {
  // A task's wall is the run wall times its share of the timed frames'
  // wall, accumulated across runs: the task walls sum to the run wall, and
  // no timed frame is scaled by the stride that picked it.
  obs::TaskProfiler prof;
  const int a = prof.register_task("a", 1, 0);
  const int b = prof.register_task("b", 8, 7);
  const auto wall = [&](int id) { return prof.stats()[static_cast<std::size_t>(id)].wall_seconds; };
  prof.record(a, 0, 8, 3e-3);
  prof.record(b, 7, 1, 1e-3);
  prof.record_run(0.5, 2.0);
  EXPECT_DOUBLE_EQ(wall(a), 1.5);
  EXPECT_DOUBLE_EQ(wall(b), 0.5);
  prof.record(b, 1023, 1, 4e-3);
  prof.record_run(0.5, 2.0);
  EXPECT_DOUBLE_EQ(wall(a), 1.5);
  EXPECT_DOUBLE_EQ(wall(b), 2.5);
  EXPECT_EQ(prof.stats()[0].invocations, 0u) << "a timed record books no count";
}

// A timed frame lies at a fixed place in each window of kTimedFrameStride
// frames, and the stride is co-prime with the CIC's 128-frame output
// cadence: over 127 × 128 frames the timed frames take each of the 128 ADC
// phases of an output period once, in one run or across many runs that
// split frames.
TEST(ConformanceRegressions, SampledProfilerCoversEveryAdcPhase) {
  constexpr long kStride = obs::TaskProfiler::kTimedFrameStride;
  constexpr long kTicks = kStride * 128 * 8;
  for (const long run_ticks : {kTicks, 1001L}) {
    Observed a;
    for (long done = 0; done < kTicks; done += run_ticks)
      a.run_ticks(std::min(run_ticks, kTicks - done));
    EXPECT_EQ(a.count(0), static_cast<std::uint64_t>(kTicks));
    EXPECT_EQ(a.o.spans.dropped(), 0u);
    std::set<long> analog, dsp;
    std::size_t dsp_spans = 0;
    a.o.spans.for_each([&](const obs::Span& s) {
      const long frame = std::llround(s.t_begin * a.o.tasks.base_rate()) / 8;
      if (std::string_view(s.name) == "analog") analog.insert(frame % 128);
      if (std::string_view(s.name) != "dsp_frame") return;
      ++dsp_spans;
      EXPECT_EQ(frame % kStride, 1) << "frame " << frame;
      dsp.insert(frame % 128);
    });
    EXPECT_EQ(dsp_spans, 128u) << "runs of " << run_ticks;
    EXPECT_EQ(dsp.size(), 128u) << "runs of " << run_ticks;
    EXPECT_EQ(analog.size(), 128u) << "runs of " << run_ticks;
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
