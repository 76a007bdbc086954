// SafetySupervisor unit tests: monitors driven with synthetic fast/slow
// samples, small trip counts so each scenario runs in microseconds. The
// nominal scenarios double as the zero-false-positive requirement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "platform/registers.hpp"
#include "safety/supervisor.hpp"

namespace ascp::safety {
namespace {

/// Shrunken debounce windows so tests stay fast while still exercising the
/// counter logic (one-below-trip must not latch, at-trip must).
SupervisorConfig small_cfg() {
  SupervisorConfig cfg;
  cfg.adc_stuck_samples = 8;
  cfg.fast_trip_samples = 6;
  cfg.unlock_trip_samples = 10;
  cfg.escalate_slow = 3;
  cfg.recover_slow = 4;
  cfg.scrub_interval_slow = 4;
  cfg.audit_interval_slow = 8;
  cfg.arm_settle_samples = 10;
  return cfg;
}

/// A healthy locked-and-settled fast sample; the ADC values dither so the
/// stuck detectors see a live signal.
FastSample nominal_fast(long i) {
  FastSample s;
  s.primary_adc_v = 0.8 * std::sin(0.39 * static_cast<double>(i));
  s.sense_adc_v = 0.01 * std::sin(0.11 * static_cast<double>(i));
  s.pll_locked = true;
  s.loop_settled = true;
  s.agc_gain = 1.2;
  s.amplitude = 1.0;
  s.control_v = 0.1;
  return s;
}

SlowSample nominal_slow() {
  SlowSample s;
  s.rate_v = 2.5;
  s.quad_v = 0.0;
  s.temp_c = 25.0;
  return s;
}

/// Arm the supervisor with one settled sample plus a short nominal run.
void arm(SafetySupervisor& sup, int warm = 20) {
  for (int i = 0; i < warm; ++i) sup.on_fast(nominal_fast(i));
  ASSERT_TRUE(sup.armed());
}

TEST(Supervisor, BlindUntilSustainedSettle) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  // Start-up transients: unlocked, zero amplitude, railed AGC — all nominal
  // before the first settle.
  FastSample s;
  s.pll_locked = false;
  s.loop_settled = false;
  s.agc_gain = 2.4;
  s.amplitude = 0.0;
  for (int i = 0; i < 500; ++i) sup.on_fast(s);
  EXPECT_FALSE(sup.armed());
  EXPECT_EQ(sup.dtcs(), 0);
  // A settle blip shorter than the arming window must not arm.
  for (int i = 0; i < cfg.arm_settle_samples - 1; ++i) sup.on_fast(nominal_fast(i));
  sup.on_fast(s);
  EXPECT_FALSE(sup.armed());
  // A sustained settle does.
  for (int i = 0; i < cfg.arm_settle_samples; ++i) sup.on_fast(nominal_fast(i));
  EXPECT_TRUE(sup.armed());
}

TEST(Supervisor, RebaselinesGainOnSustainedResettle) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  arm(sup);  // baseline gain 1.2
  // The loop unsettles and re-settles at 1.5 — a legitimate new operating
  // point within the old baseline's tolerance, so no latch on the way.
  for (int i = 0; i < 5; ++i) {
    FastSample s = nominal_fast(i);
    s.loop_settled = false;
    s.agc_gain = 1.5;
    sup.on_fast(s);
  }
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.agc_gain = 1.5;
    sup.on_fast(s);
  }
  // 1.9 is anomalous against the old 1.2 baseline (|Δ| = 0.7 > 0.42) but
  // fine against the re-captured 1.5 one (0.4 < 0.525): must stay quiet.
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.agc_gain = 1.9;
    sup.on_fast(s);
  }
  EXPECT_EQ(sup.dtcs() & kDtcGainAnomaly, 0) << describe_dtcs(sup.dtcs());
  // 0.8 is anomalous against the new baseline: must latch.
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.agc_gain = 0.8;
    sup.on_fast(s);
  }
  EXPECT_NE(sup.dtcs() & kDtcGainAnomaly, 0);
}

TEST(Supervisor, NominalRunLatchesNothing) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  for (long i = 0; i < 4000; ++i) {
    sup.on_fast(nominal_fast(i));
    if (i % 128 == 0) {
      const auto d = sup.on_slow(nominal_slow());
      EXPECT_FALSE(d.output_forced);
      EXPECT_DOUBLE_EQ(d.output_v, 2.5);
    }
  }
  EXPECT_EQ(sup.dtcs(), 0) << describe_dtcs(sup.dtcs());
  EXPECT_EQ(sup.state(), SafetyState::Nominal);
}

TEST(Supervisor, PrimaryAdcStuckLatches) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  arm(sup);
  FastSample s = nominal_fast(0);
  s.primary_adc_v = 0.7;  // frozen code on a live carrier channel
  // First repeat-free sample resets the counter, then adc_stuck_samples
  // identical codes are needed — one fewer must not latch.
  for (int i = 0; i < cfg.adc_stuck_samples; ++i) sup.on_fast(s);
  EXPECT_EQ(sup.dtcs() & kDtcAdcStuck, 0);
  sup.on_fast(s);
  EXPECT_NE(sup.dtcs() & kDtcAdcStuck, 0);
  EXPECT_EQ(sup.state(), SafetyState::Degraded);
  EXPECT_GT(sup.first_latch_fast(kDtcAdcStuck), 0);
}

TEST(Supervisor, SenseStuckAtNullIsUndetectableByDesign) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  for (long i = 0; i < 500; ++i) {
    FastSample s = nominal_fast(i);
    s.sense_adc_v = 0.0;  // indistinguishable from a perfectly nulled loop
    sup.on_fast(s);
  }
  EXPECT_EQ(sup.dtcs(), 0);
}

TEST(Supervisor, SenseStuckAtRailLatches) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  for (long i = 0; i < 500; ++i) {
    FastSample s = nominal_fast(i);
    s.sense_adc_v = 2.5;  // pinned at the reference rail
    sup.on_fast(s);
  }
  EXPECT_NE(sup.dtcs() & kDtcAdcStuck, 0);
}

TEST(Supervisor, UnlockBlipDoesNotLatch) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  arm(sup);
  for (int i = 0; i < cfg.unlock_trip_samples - 1; ++i) {
    FastSample bad = nominal_fast(i);
    bad.pll_locked = false;
    sup.on_fast(bad);
  }
  for (long i = 0; i < 100; ++i) sup.on_fast(nominal_fast(i));
  EXPECT_EQ(sup.dtcs(), 0);
}

TEST(Supervisor, SustainedUnlockLatches) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  arm(sup);
  for (int i = 0; i < cfg.unlock_trip_samples + 1; ++i) {
    FastSample bad = nominal_fast(i);
    bad.pll_locked = false;
    sup.on_fast(bad);
  }
  EXPECT_NE(sup.dtcs() & kDtcPllUnlock, 0);
}

TEST(Supervisor, AgcRailLatches) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.agc_gain = 2.39;  // ≥ 0.98 · 2.4
    sup.on_fast(s);
  }
  EXPECT_NE(sup.dtcs() & kDtcAgcRail, 0);
}

TEST(Supervisor, CtrlRailLatches) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.control_v = -2.39;  // sign-independent rail detection
    sup.on_fast(s);
  }
  EXPECT_NE(sup.dtcs() & kDtcCtrlRail, 0);
}

TEST(Supervisor, DriveCollapseLatches) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.amplitude = 0.1;  // < 0.25 · target
    sup.on_fast(s);
  }
  EXPECT_NE(sup.dtcs() & kDtcDriveCollapse, 0);
}

TEST(Supervisor, GainAnomalyLatchesOnBaselineShift) {
  SafetySupervisor sup(small_cfg());
  arm(sup);  // baseline gain 1.2
  for (long i = 0; i < 50; ++i) {
    FastSample s = nominal_fast(i);
    s.agc_gain = 2.0;  // |2.0 − 1.2| = 0.8 > 0.35 · 1.2, below the AGC rail
    sup.on_fast(s);
  }
  EXPECT_NE(sup.dtcs() & kDtcGainAnomaly, 0);
  EXPECT_EQ(sup.dtcs() & kDtcAgcRail, 0);
}

TEST(Supervisor, QuadRangeDegradesButNeverEscalates) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  SlowSample s = nominal_slow();
  s.quad_v = 0.8;  // implausible quadrature, but not a critical condition
  for (int i = 0; i < 50; ++i) (void)sup.on_slow(s);
  EXPECT_NE(sup.dtcs() & kDtcQuadRange, 0);
  EXPECT_EQ(sup.state(), SafetyState::Degraded);
}

TEST(Supervisor, RateRangeEscalatesAndRecovers) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  arm(sup);

  // Sustained implausible rate: DEGRADED immediately, SAFE_STATE after the
  // escalation debounce, output forced to null there.
  SlowSample bad = nominal_slow();
  bad.rate_v = 4.9;
  SlowDecision d;
  for (int i = 0; i < cfg.escalate_slow; ++i) d = sup.on_slow(bad);
  EXPECT_EQ(sup.state(), SafetyState::SafeState);
  EXPECT_TRUE(d.output_forced);
  EXPECT_DOUBLE_EQ(d.output_v, cfg.null_v);
  EXPECT_NE(sup.dtcs() & kDtcRateRange, 0);

  // Condition clears: one level per recover_slow quiet samples, DTC stays.
  for (int i = 0; i < cfg.recover_slow; ++i) d = sup.on_slow(nominal_slow());
  EXPECT_EQ(sup.state(), SafetyState::Degraded);
  EXPECT_FALSE(d.output_forced);
  for (int i = 0; i < cfg.recover_slow; ++i) d = sup.on_slow(nominal_slow());
  EXPECT_EQ(sup.state(), SafetyState::Nominal);
  EXPECT_GT(sup.nominal_return_fast(), 0);
  EXPECT_NE(sup.dtcs() & kDtcRateRange, 0) << "DTC must stay latched";
}

TEST(Supervisor, CompTempFreezesOnImplausibleReading) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  EXPECT_DOUBLE_EQ(sup.comp_temp(30.0), 30.0);
  // Thermistor open: reading flies out of the plausible window.
  EXPECT_DOUBLE_EQ(sup.comp_temp(412.0), 30.0);
  EXPECT_NE(sup.dtcs() & kDtcTempRange, 0);
  // Back in range: unfreezes and tracks again.
  EXPECT_DOUBLE_EQ(sup.comp_temp(31.0), 31.0);
  EXPECT_DOUBLE_EQ(sup.comp_temp(32.0), 32.0);
}

TEST(Supervisor, CompTempFrozenWhileGainAnomalous) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  EXPECT_DOUBLE_EQ(sup.comp_temp(25.0), 25.0);
  FastSample s = nominal_fast(0);
  s.agc_gain = 2.0;
  for (int i = 0; i < 50; ++i) sup.on_fast(s);
  ASSERT_NE(sup.dtcs() & kDtcGainAnomaly, 0);
  // The measured temperature rides the same drifting references — hold the
  // compensation input at the last plausible value.
  EXPECT_DOUBLE_EQ(sup.comp_temp(40.0), 25.0);
}

// A NaN observable must trip its monitor: every threshold is written as
// "not inside the healthy band", which a NaN never is.
TEST(Supervisor, NonFiniteSamplesLatchTheirMonitors) {
  const auto cfg = small_cfg();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    SafetySupervisor sup(cfg);
    arm(sup);
    SlowSample bad = nominal_slow();
    bad.rate_v = nan;
    SlowDecision d = sup.on_slow(bad);
    EXPECT_NE(sup.dtcs() & kDtcRateRange, 0);
    EXPECT_EQ(sup.state(), SafetyState::Degraded);
    for (int i = 1; i < cfg.escalate_slow; ++i) d = sup.on_slow(bad);
    EXPECT_EQ(sup.state(), SafetyState::SafeState);
    EXPECT_TRUE(d.output_forced);
    EXPECT_DOUBLE_EQ(d.output_v, cfg.null_v);
  }
  {
    SafetySupervisor sup(cfg);
    arm(sup);
    SlowSample bad = nominal_slow();
    bad.quad_v = nan;
    (void)sup.on_slow(bad);
    EXPECT_NE(sup.dtcs() & kDtcQuadRange, 0);
  }
  {
    SafetySupervisor sup(cfg);
    arm(sup);
    EXPECT_DOUBLE_EQ(sup.comp_temp(30.0), 30.0);
    EXPECT_DOUBLE_EQ(sup.comp_temp(nan), 30.0);
    EXPECT_NE(sup.dtcs() & kDtcTempRange, 0);
    EXPECT_DOUBLE_EQ(sup.comp_temp(nan), 30.0);  // NaN is never stored as last good
  }
  struct Case {
    double FastSample::*field;
    std::uint16_t dtc;
  };
  for (const Case c : {Case{&FastSample::amplitude, kDtcDriveCollapse},
                       Case{&FastSample::agc_gain, kDtcAgcRail},
                       Case{&FastSample::agc_gain, kDtcGainAnomaly},
                       Case{&FastSample::control_v, kDtcCtrlRail}}) {
    SafetySupervisor sup(cfg);
    arm(sup);
    for (int i = 0; i < cfg.fast_trip_samples; ++i) {
      EXPECT_EQ(sup.dtcs() & c.dtc, 0) << dtc_name(c.dtc) << " latched early at " << i;
      FastSample s = nominal_fast(i);
      s.*c.field = nan;
      sup.on_fast(s);
    }
    EXPECT_NE(sup.dtcs() & c.dtc, 0) << dtc_name(c.dtc);
  }
}

TEST(Supervisor, PlatformEventsLatch) {
  SafetySupervisor sup(small_cfg());
  sup.notify_watchdog_bite();
  sup.notify_selftest(false);
  sup.notify_cal_replay(false);
  EXPECT_NE(sup.dtcs() & kDtcWatchdogBite, 0);
  EXPECT_NE(sup.dtcs() & kDtcSelfTest, 0);
  EXPECT_NE(sup.dtcs() & kDtcCalCrc, 0);
  // A failed replay also raises the dedicated recovery code: the service
  // tool can tell "CRC audit failed in flight" from "recovery fell back to
  // safe-default coefficients".
  EXPECT_NE(sup.dtcs() & kDtcCalReplay, 0);
  EXPECT_EQ(sup.state(), SafetyState::Degraded);
  sup.notify_selftest(true);
  sup.notify_cal_replay(true);  // passing verdicts latch nothing new
  EXPECT_EQ(sup.dtcs(), kDtcWatchdogBite | kDtcSelfTest | kDtcCalCrc | kDtcCalReplay);
}

TEST(Supervisor, DiagRegistersTrackStateAndClear) {
  platform::RegisterFile rf;
  rf.define("some_cfg", 0, platform::RegKind::Config, 0x1234);
  SafetySupervisor sup(small_cfg());
  const std::uint16_t base = 8;
  sup.attach(&rf, base);
  EXPECT_EQ(rf.read(base + diag::kDtcReg), 0);
  EXPECT_EQ(rf.read(base + diag::kState), 0);

  sup.notify_watchdog_bite();
  EXPECT_EQ(rf.read(base + diag::kDtcReg), kDtcWatchdogBite);
  EXPECT_EQ(rf.read(base + diag::kState),
            static_cast<std::uint16_t>(SafetyState::Degraded));
  EXPECT_EQ(rf.read(base + diag::kEvents), 1);

  // Service-tool clear through the register interface (magic-guarded).
  rf.write(static_cast<std::uint16_t>(base + diag::kClear), 0x1111);
  EXPECT_EQ(rf.read(base + diag::kDtcReg), kDtcWatchdogBite) << "wrong magic";
  rf.write(static_cast<std::uint16_t>(base + diag::kClear), diag::kClearMagic);
  EXPECT_EQ(rf.read(base + diag::kDtcReg), 0);
  EXPECT_EQ(rf.read(base + diag::kEvents), 1) << "event count is history";
}

TEST(Supervisor, ScrubRepairsCorruptedConfigRegister) {
  platform::RegisterFile rf;
  std::uint16_t hook_seen = 0;
  rf.define("sense_gain", 0, platform::RegKind::Config, 0x0180,
            [&hook_seen](std::uint16_t v) { hook_seen = v; });
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  sup.attach(&rf, 8);
  arm(sup);  // captures shadows

  rf.corrupt(0, 0x0040);  // SEU: bit flip behind the datapath's back
  ASSERT_EQ(rf.read(0), 0x01C0);
  for (int i = 0; i < cfg.scrub_interval_slow; ++i) (void)sup.on_slow(nominal_slow());
  EXPECT_NE(sup.dtcs() & kDtcCfgCorrupt, 0);
  EXPECT_EQ(rf.read(0), 0x0180) << "scrubber must repair from the shadow";
  EXPECT_EQ(hook_seen, 0x0180) << "repair must go through the write hook";
}

TEST(Supervisor, ScrubIgnoresDiagClearWrites) {
  platform::RegisterFile rf;
  rf.define("some_cfg", 0, platform::RegKind::Config, 7);
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  sup.attach(&rf, 8);
  arm(sup);
  // A service tool poking the clear register is a legitimate write, not an
  // SEU — the scrubber must not shadow the DIAG block.
  rf.write(static_cast<std::uint16_t>(8 + diag::kClear), 0x2222);
  for (int i = 0; i < 4 * cfg.scrub_interval_slow; ++i)
    (void)sup.on_slow(nominal_slow());
  EXPECT_EQ(sup.dtcs() & kDtcCfgCorrupt, 0);
}

TEST(Supervisor, CalibrationAuditRunsOnCadence) {
  const auto cfg = small_cfg();
  SafetySupervisor sup(cfg);
  int audits = 0;
  bool healthy = true;
  sup.set_calibration_audit([&] {
    ++audits;
    return healthy;
  });
  arm(sup);
  for (int i = 0; i < cfg.audit_interval_slow; ++i) (void)sup.on_slow(nominal_slow());
  EXPECT_EQ(audits, 1);
  EXPECT_EQ(sup.dtcs() & kDtcCalCrc, 0);
  healthy = false;
  for (int i = 0; i < cfg.audit_interval_slow; ++i) (void)sup.on_slow(nominal_slow());
  EXPECT_EQ(audits, 2);
  EXPECT_NE(sup.dtcs() & kDtcCalCrc, 0);
}

TEST(Supervisor, ResetForgetsEverything) {
  SafetySupervisor sup(small_cfg());
  arm(sup);
  sup.notify_watchdog_bite();
  sup.reset();
  EXPECT_EQ(sup.dtcs(), 0);
  EXPECT_EQ(sup.state(), SafetyState::Nominal);
  EXPECT_FALSE(sup.armed());
  EXPECT_EQ(sup.fast_index(), 0);
  EXPECT_EQ(sup.first_latch_fast(kDtcWatchdogBite), -1);
}

TEST(Dtc, NamesAndDescriptions) {
  EXPECT_STREQ(dtc_name(kDtcPllUnlock), "PLL_UNLOCK");
  EXPECT_STREQ(dtc_name(kDtcCalCrc), "CAL_CRC");
  EXPECT_EQ(describe_dtcs(0), "-");
  EXPECT_EQ(describe_dtcs(kDtcPllUnlock | kDtcAgcRail), "PLL_UNLOCK|AGC_RAIL");
  EXPECT_STREQ(state_name(SafetyState::SafeState), "SAFE_STATE");
}

}  // namespace
}  // namespace ascp::safety
