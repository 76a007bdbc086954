// Full-system integration tests. Ideal fidelity is used where possible
// (≈20× faster); a few tests exercise the Full AFE path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/spectrum.hpp"
#include "core/calibration.hpp"
#include "core/gyro_system.hpp"
#include "platform/engine/conditioning_channel.hpp"

namespace ascp::core {
namespace {

double tail(const std::vector<double>& v) {
  return mean(std::span(v).subspan(v.size() / 2));
}

TEST(GyroSystem, LocksAfterPowerOnIdeal) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  EXPECT_TRUE(sys.locked());
  EXPECT_NEAR(sys.drive().frequency(), 15e3, 20.0);
}

TEST(GyroSystem, LocksAfterPowerOnFull) {
  GyroSystem sys(default_gyro_system(Fidelity::Full));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  EXPECT_TRUE(sys.locked());
  EXPECT_NEAR(sys.drive().amplitude(), 1.0, 0.05);
}

TEST(GyroSystem, RateOutputIsLinearInRate) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  std::vector<double> rates, outs;
  for (double r : {-200.0, -100.0, 0.0, 100.0, 200.0}) {
    std::vector<double> o;
    sys.run(sensor::Profile::constant(r), sensor::Profile::constant(25.0), 0.25, &o);
    rates.push_back(r);
    outs.push_back(tail(o));
  }
  const auto fit = fit_line(rates, outs);
  EXPECT_GT(std::abs(fit.slope), 5e-4);  // raw gain ≈ 1.2 mV/°/s
  EXPECT_LT(fit.max_abs_residual, std::abs(fit.slope) * 400.0 * 0.01);  // linear to 1 % FS
}

TEST(GyroSystem, OutputRateIs1875Hz) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  EXPECT_NEAR(sys.output_rate_hz(), 1875.0, 1e-9);
  sys.power_on(1);
  std::vector<double> o;
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.2, &o);
  EXPECT_NEAR(static_cast<double>(o.size()), 375.0, 3.0);
}

TEST(GyroSystem, CalibrationHitsTargetSensitivity) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(3);
  CalibrationConfig cal;
  cal.temps = {25.0};  // single-point for test speed
  cal.warmup_s = 1.0;
  sys.set_compensation(run_calibration(sys, cal));
  std::vector<double> pos, neg;
  sys.run(sensor::Profile::constant(150.0), sensor::Profile::constant(25.0), 0.3, &pos);
  sys.run(sensor::Profile::constant(-150.0), sensor::Profile::constant(25.0), 0.3, &neg);
  const double sens = (tail(pos) - tail(neg)) / 300.0;
  EXPECT_NEAR(sens, 5e-3, 1e-4);
  EXPECT_NEAR(tail(pos), 2.5 + 0.75, 0.02);
}

TEST(GyroSystem, DifferentSeedsAreDifferentDevices) {
  GyroSystem a(default_gyro_system(Fidelity::Full));
  GyroSystem b(default_gyro_system(Fidelity::Full));
  a.power_on(1);
  b.power_on(2);
  std::vector<double> oa, ob;
  a.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.8, &oa);
  b.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.8, &ob);
  EXPECT_GT(std::abs(tail(oa) - tail(ob)), 1e-5);  // mismatch draws differ
}

TEST(GyroSystem, SameSeedIsReproducible) {
  GyroSystem a(default_gyro_system(Fidelity::Full));
  GyroSystem b(default_gyro_system(Fidelity::Full));
  a.power_on(7);
  b.power_on(7);
  std::vector<double> oa, ob;
  a.run(sensor::Profile::constant(50.0), sensor::Profile::constant(25.0), 0.4, &oa);
  b.run(sensor::Profile::constant(50.0), sensor::Profile::constant(25.0), 0.4, &ob);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_DOUBLE_EQ(oa[i], ob[i]) << i;
}

TEST(GyroSystem, StatusRegistersReflectState) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(100.0), sensor::Profile::constant(25.0), 1.2, nullptr);
  auto& rf = sys.regs();
  EXPECT_EQ(rf.read(reg::kLock) & 1, 1);  // PLL locked
  EXPECT_NEAR(rf.read(reg::kFreq) * 4.0, 15e3, 60.0);
  EXPECT_NEAR(rf.read(reg::kRateOut) / 1000.0, sys.last_output(), 0.002);
  const auto temp_reg = static_cast<std::int16_t>(rf.read(reg::kTemp));
  EXPECT_NEAR(temp_reg / 8.0, 25.0, 2.0);
}

TEST(GyroSystem, JtagReadsTheSameStatus) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  auto& jtag = sys.platform().jtag();
  jtag.reset();
  EXPECT_EQ(jtag.read_register(0, reg::kLock), sys.regs().read(reg::kLock));
  EXPECT_EQ(jtag.read_register(0, reg::kFreq), sys.regs().read(reg::kFreq));
}

TEST(GyroSystem, ModeRegisterSwitchesLoopConfig) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.regs().write(reg::kMode, 0);  // open loop
  sys.power_on(1);                   // rebuild applies the config
  sys.run(sensor::Profile::constant(100.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  // Open loop: no control effort modulated back.
  EXPECT_EQ(sys.config().sense.mode, SenseMode::OpenLoop);
}

TEST(GyroSystem, TraceRecordsFig5Channels) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  TraceRecorder trace;
  sys.set_trace(&trace);
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.3, nullptr);
  for (const char* ch : {"amplitude_control", "phase_error", "amplitude_error", "vco_control",
                         "rate_out"}) {
    ASSERT_TRUE(trace.has(ch)) << ch;
    EXPECT_GT(trace.channel(ch).samples.size(), 100u) << ch;
  }
}

TEST(GyroSystem, SramTraceCapturesRawRate) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  auto* sram = sys.platform().sram_trace();
  ASSERT_NE(sram, nullptr);
  sram->write_reg(1, 0);  // node 0 = raw rate
  sram->write_reg(0, 3);  // reset + arm
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.2, nullptr);
  EXPECT_GT(sram->count(), 300u);
}

TEST(GyroSystem, TurnOnRingUpVisibleInAgc) {
  // Right after power-on the AGC is still ramping (the 2Q/ω0 envelope).
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, nullptr);
  EXPECT_FALSE(sys.locked());
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  EXPECT_TRUE(sys.locked());
}

TEST(GyroSystem, QuadratureIsServoedInClosedLoop) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.2, nullptr);
  // Default quad stiffness is nonzero; the servo keeps the residual small.
  EXPECT_LT(std::abs(sys.sense().baseband().i), 0.01);
}

TEST(GyroSystem, TracksTemperatureRampWithCompensation) {
  // Die warming from 25 to 85 degC mid-measurement: the calibrated output
  // at constant rate must stay within a few deg/s-equivalent.
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(3);
  CalibrationConfig cal;
  cal.warmup_s = 1.0;
  sys.set_compensation(run_calibration(sys, cal));
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.8, nullptr);
  std::vector<double> o;
  sys.run(sensor::Profile::constant(100.0), sensor::Profile::ramp(25.0, 85.0, 0.0, 2.0), 2.0,
          &o);
  // Compare the start (warm-up excluded) and the end of the ramp.
  const double early = mean(std::span(o).subspan(o.size() / 4, o.size() / 8));
  const double late = mean(std::span(o).subspan(o.size() * 7 / 8));
  EXPECT_NEAR(early, late, 5e-3 * 4.0);  // within 4 deg/s over 60 degC
}

TEST(GyroSystem, FollowsSinusoidalRateInBand) {
  // A 10 Hz, 50 deg/s sine is well inside the 75 Hz bandwidth: amplitude
  // must come through within ~10 %.
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  std::vector<double> o;
  sys.run(sensor::Profile::sine(50.0, 10.0), sensor::Profile::constant(25.0), 1.2, &o);
  const auto half = std::span(o).subspan(o.size() / 2);
  const auto tone = estimate_tone(half, sys.output_rate_hz(), 10.0);
  // Raw (uncalibrated) gain ~1.2 mV/deg/s: expect ~60 mV of 10 Hz tone.
  EXPECT_NEAR(tone.amplitude, 50.0 * 1.2e-3, 50.0 * 1.2e-3 * 0.2);
}

TEST(GyroSystem, RespondsToRateStep) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  sys.power_on(1);
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 1.0, nullptr);
  std::vector<double> o;
  sys.run(sensor::Profile::step(100.0, 0.05), sensor::Profile::constant(25.0), 0.3, &o);
  const double before = o[static_cast<std::size_t>(0.03 * 1875)];
  const double after = tail(o);
  EXPECT_GT(std::abs(after - before), 0.05);  // ≈ 100 °/s · 1.2 mV raw
}

using TaskTable = std::vector<std::tuple<std::string, long, long>>;

TaskTable table_of(GyroSystem& sys) {
  TaskTable t;
  for (const auto& task : sys.schedule_tasks()) t.emplace_back(task.name, task.divider, task.phase);
  return t;
}

// The scheduler table timing_lint reads: one analog task every tick and one
// DSP frame on each SAR conversion's last clock, whatever is attached.
TEST(GyroSystem, ScheduleTasksAreAnalogPlusOneDspFrame) {
  const TaskTable expected{{"analog", 1, 0}, {"dsp_frame", 8, 7}};

  GyroSystemConfig full = default_gyro_system(Fidelity::Full);
  full.with_safety = true;
  full.with_mcu = true;
  GyroSystem loaded(full);
  obs::Observability o;
  loaded.set_observability(o.sink());
  TraceRecorder trace;
  loaded.set_trace(&trace);
  EXPECT_EQ(table_of(loaded), expected);

  GyroSystemConfig ideal = default_gyro_system(Fidelity::Ideal);
  ideal.sense.mode = SenseMode::OpenLoop;
  GyroSystem open_loop(ideal);
  EXPECT_EQ(table_of(open_loop), expected);
}

/// Records the (point, tick) of every probe frame.
class OrderProbe final : public sensor::Probe {
 public:
  std::vector<std::pair<sensor::ProbePoint, long>> frames;
  void on_frame(const sensor::ProbeFrame& f) override { frames.emplace_back(f.point, f.tick); }
};

// The per-tick taps run in their own task, the post-ADC and decimated-output
// taps inside the DSP frame: a conversion tick still reads Stimulus,
// PostMems, PostAfe, PostAdc and, on an output tick, DecimatedOutput.
TEST(GyroSystem, ProbeFramesKeepChainOrderAtConversionTicks) {
  using sensor::ProbePoint;
  for (const Fidelity fid : {Fidelity::Full, Fidelity::Ideal}) {
    GyroSystem sys(default_gyro_system(fid));
    OrderProbe probe;
    sys.set_probe(&probe);
    // The per-tick taps run at the end of the analog task: no task of their own.
    EXPECT_EQ(table_of(sys), (TaskTable{{"analog", 1, 0}, {"dsp_frame", 8, 7}}));
    sys.power_on(1);
    sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.003, nullptr);

    std::vector<ProbePoint> tick_order = {ProbePoint::Stimulus, ProbePoint::PostMems};
    if (fid == Fidelity::Full) tick_order.push_back(ProbePoint::PostAfe);
    long outputs = 0;
    std::size_t k = 0;
    for (long tick = 0; tick < 5760; ++tick) {
      std::vector<ProbePoint> expected = tick_order;
      if (tick % 8 == 7) expected.push_back(ProbePoint::PostAdc);
      if (k + expected.size() < probe.frames.size() &&
          probe.frames[k + expected.size()].first == ProbePoint::DecimatedOutput) {
        ASSERT_EQ(tick % 8, 7) << "decimated output off a conversion tick";
        expected.push_back(ProbePoint::DecimatedOutput);
        ++outputs;
      }
      for (const ProbePoint p : expected) {
        ASSERT_LT(k, probe.frames.size());
        ASSERT_EQ(probe.frames[k].first, p) << "tick " << tick;
        ASSERT_EQ(probe.frames[k].second, tick);
        ++k;
      }
    }
    EXPECT_EQ(k, probe.frames.size());
    EXPECT_EQ(outputs, 5);  // one every 1024 ticks, the first at tick 1023
  }
}

// One timeline cut into run() calls of 1, 3, 7, 13 and 1001 ticks (none a
// multiple of adc_div), snapshotted and restored into a fresh channel at an
// odd tick, must hash like a straight run: the DSP frame's phase follows
// the global tick, not the run origin.
TEST(GyroSystem, ChunkedRunsWithRestoreMatchStraightRun) {
  constexpr long kTicks = 40000;
  constexpr long kChunks[] = {1, 3, 7, 13, 1001};
  for (const auto kind : {engine::ChannelKind::GyroFull, engine::ChannelKind::GyroIdeal})
    for (const bool open_loop : {true, false}) {
      engine::ChannelConfig cfg;
      cfg.kind = kind;
      cfg.seed = 5;
      cfg.configure = [open_loop](GyroSystemConfig& g) {
        g.sense.mode = open_loop ? SenseMode::OpenLoop : SenseMode::ClosedLoop;
      };
      engine::ConditioningChannel straight(cfg);
      straight.advance(kTicks);
      ASSERT_GT(straight.total_outputs(), 20u);

      auto ch = std::make_unique<engine::ConditioningChannel>(cfg);
      bool restored = false;
      for (long done = 0, i = 0; done < kTicks; ++i) {
        const long n = std::min(kChunks[i % 5], kTicks - done);
        ch->advance(n);
        done += n;
        if (!restored && done > kTicks / 2 && done % 2 == 1) {
          const auto image = ch->snapshot();
          ch = std::make_unique<engine::ConditioningChannel>(cfg);
          ch->restore(image);
          restored = true;
        }
      }
      ASSERT_TRUE(restored);
      EXPECT_EQ(ch->total_outputs(), straight.total_outputs());
      EXPECT_EQ(ch->output_hash(), straight.output_hash())
          << (kind == engine::ChannelKind::GyroFull ? "full" : "ideal")
          << (open_loop ? " open loop" : " closed loop");
    }
}

// Who may share a lockstep group is lane_key()'s call alone: Ideal systems,
// observed or not, at one tick phase. run_group rejects any other group
// of more than one before a tick runs, and runs any system as the group of
// one.
TEST(GyroSystem, RunGroupNeedsOneLaneKey) {
  const auto make = [](Fidelity f) {
    auto s = std::make_unique<GyroSystem>(default_gyro_system(f));
    s->power_on(7);
    return s;
  };
  auto a = make(Fidelity::Ideal), b = make(Fidelity::Ideal), c = make(Fidelity::Ideal);
  auto full = make(Fidelity::Full), full2 = make(Fidelity::Full);
  auto observed = make(Fidelity::Ideal);
  obs::Observability o;
  observed->set_observability(o.sink());
  ASSERT_TRUE(a->lane_key());
  EXPECT_EQ(a->lane_key(), c->lane_key());
  EXPECT_FALSE(full->lane_key());
  EXPECT_EQ(observed->lane_key(), a->lane_key());  // an obs sink does not keep it out

  const double fs = a->config().analog_fs;
  std::vector<std::unique_ptr<sensor::SyntheticSource>> sources;
  const auto group = [&](std::initializer_list<GyroSystem*> systems) {
    std::vector<GyroSystem::GroupMember> members;
    for (GyroSystem* s : systems) {
      sources.push_back(std::make_unique<sensor::SyntheticSource>(
          sensor::Profile::constant(10.0), sensor::Profile::constant(25.0), fs));
      members.push_back({s, sources.back().get(), nullptr, {}});
    }
    return members;
  };
  const auto run = [fs](std::vector<GyroSystem::GroupMember> members, long ticks) {
    GyroSystem::run_group(members, static_cast<double>(ticks) / fs);
  };
  run(group({b.get()}), 3);  // b now sits at another tick phase
  EXPECT_NE(a->lane_key(), b->lane_key());
  for (auto members : {group({full.get(), full2.get()}), group({a.get(), b.get()}),
                       group({a.get(), a.get()})})
    EXPECT_THROW(run(members, 16), std::invalid_argument);
  for (GyroSystem* s : {a.get(), full.get(), full2.get()})
    EXPECT_EQ(s->dsp_samples(), 0) << "a rejected group runs nothing";

  run(group({a.get(), observed.get(), c.get()}), 16);
  run(group({full.get()}), 16);
  for (GyroSystem* s : {a.get(), c.get(), full.get(), observed.get()})
    EXPECT_EQ(s->dsp_samples(), 2);
  // The observed member kept its own run bookkeeping.
  EXPECT_EQ(o.metrics.snapshot().counter_value("gyro.runs"), 1.0);
  EXPECT_EQ(o.metrics.snapshot().counter_value("gyro.dsp_samples"), 2.0);
}

// gyro.dsp_samples is added once per run from the run's DSP-sample delta:
// it equals the frames run after a normal run, and after a run that threw
// mid-way it holds the frames run up to the exception, so a crash image
// captures the same counter.
TEST(GyroSystem, DspSampleCounterMatchesFramesRunEvenWhenARunThrows) {
  GyroSystem sys(default_gyro_system(Fidelity::Ideal));
  obs::Observability o;
  sys.set_observability(o.sink());
  safety::FaultCampaign campaign;
  campaign.add({"explode", safety::FaultLayer::Dsp, 500, -1, false, 0},
               [] { throw std::runtime_error("campaign action exploded"); });
  sys.set_fault_campaign(&campaign);
  sys.power_on(3);
  const auto counted = [&o] { return o.metrics.snapshot().counter_value("gyro.dsp_samples"); };
  const auto rate = sensor::Profile::constant(10.0), temp = sensor::Profile::constant(25.0);

  sys.run(rate, temp, 0.001, nullptr);  // 1920 ticks: 240 DSP frames
  EXPECT_EQ(sys.dsp_samples(), 240);
  EXPECT_EQ(counted(), 240.0);
  EXPECT_THROW(sys.run(rate, temp, 0.01, nullptr), std::runtime_error);
  EXPECT_EQ(sys.dsp_samples(), 500);  // the frame that threw had started
  EXPECT_EQ(counted(), 500.0);
  EXPECT_EQ(o.metrics.snapshot().counter_value("gyro.runs"), 1.0);
}

// A NaN at the SAR converters reads their bottom code and is counted: each
// run books both converters' increase into afe.nonfinite_inputs, a run that
// throws too. A finite run books nothing.
TEST(GyroSystem, NonfiniteConversionsAreCountedPerRun) {
  for (const bool nan : {false, true}) {
    SCOPED_TRACE(nan ? "NaN rate" : "finite rate");
    GyroSystem sys(default_gyro_system(Fidelity::Full));
    obs::Observability o;
    sys.set_observability(o.sink());
    safety::FaultCampaign campaign;
    campaign.add({"explode", safety::FaultLayer::Dsp, 3000, -1, false, 0},
                 [] { throw std::runtime_error("campaign action exploded"); });
    sys.set_fault_campaign(&campaign);
    sys.power_on(5);
    const auto rate = sensor::Profile::constant(nan ? std::nan("") : 10.0);
    const auto temp = sensor::Profile::constant(25.0);
    const auto converters = [&sys] {
      return static_cast<double>(sys.acq_primary()->adc().nonfinite_inputs() +
                                 sys.acq_sense()->adc().nonfinite_inputs());
    };
    const auto counted = [&o] {
      return o.metrics.snapshot().counter_value("afe.nonfinite_inputs");
    };

    std::vector<double> out;
    sys.run(rate, temp, 0.005, &out);  // 1200 DSP frames, one conversion each per converter
    sys.run(rate, temp, 0.005, &out);
    EXPECT_EQ(counted(), converters());
    EXPECT_EQ(counted(), nan ? 4800.0 : 0.0);
    EXPECT_FALSE(out.empty());
    EXPECT_THROW(sys.run(rate, temp, 0.01, &out), std::runtime_error);
    EXPECT_EQ(sys.dsp_samples(), 3000);
    EXPECT_EQ(counted(), converters());
    EXPECT_EQ(counted(), nan ? 6000.0 : 0.0);
  }
}

}  // namespace
}  // namespace ascp::core
