// System-level observability tests.
//
// The two contracts that make telemetry trustworthy:
//   1. Zero perturbation — attaching the full observability stack must not
//      change a single output bit. Proven by re-running all six golden
//      scenarios (tests/core/test_golden_traces.cpp) with and without the
//      stack and comparing the output streams bit-for-bit.
//   2. Faithful narration — events must match what the simulation actually
//      did: exactly one supervisor event per state change, PLL lock-loss /
//      relock events mirroring the PR-1 lock-loss behaviour, MCU profile
//      totals consistent with the executed firmware.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/firmware_corpus.hpp"
#include "core/baselines.hpp"
#include "core/gyro_system.hpp"
#include "obs/observability.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "safety/standard_faults.hpp"

namespace {

using namespace ascp;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Bit-exact stream comparison with a readable first-divergence report.
void expect_bit_identical(const std::vector<double>& ref, const std::vector<double>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(bits(ref[i]), bits(got[i])) << "first divergence at sample " << i;
}

/// Runs one GyroSystem golden scenario, optionally with the full stack
/// attached, returning the output stream.
template <typename Scenario>
std::vector<double> run_gyro_scenario(core::GyroSystemConfig cfg, unsigned seed,
                                      bool with_obs, obs::Observability* obs,
                                      Scenario&& scenario) {
  core::GyroSystem sys(cfg);
  sys.power_on(seed);
  if (with_obs) sys.set_observability(obs->sink());
  std::vector<double> out;
  scenario(sys, out);
  return out;
}

template <typename ScenarioFn>
void golden_bit_identity_gyro(core::GyroSystemConfig cfg, unsigned seed, ScenarioFn scenario) {
  const auto ref = run_gyro_scenario(cfg, seed, false, nullptr, scenario);
  obs::Observability obs;
  const auto instrumented = run_gyro_scenario(cfg, seed, true, &obs, scenario);
  ASSERT_FALSE(ref.empty());
  expect_bit_identical(ref, instrumented);
  // The instrumented run must actually have observed something — otherwise
  // this test would pass vacuously with a dead sink.
  EXPECT_GT(obs.events.total(), 0u);
  EXPECT_DOUBLE_EQ(obs.metrics.snapshot().counter_value("gyro.output_samples"),
                   static_cast<double>(instrumented.size()));
}

// ---- 1. bit-identity over the six golden scenarios -------------------------

TEST(ObsBitIdentity, FullFidelityClosedLoopAcrossTwoRuns) {
  golden_bit_identity_gyro(
      core::default_gyro_system(core::Fidelity::Full), 7,
      [](core::GyroSystem& sys, std::vector<double>& out) {
        sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, &out);
        sys.run(sensor::Profile::step(90.0, 0.01), sensor::Profile::ramp(25.0, 45.0, 0.0, 0.1),
                0.1, &out);
      });
}

TEST(ObsBitIdentity, IdealFidelityClosedLoop) {
  golden_bit_identity_gyro(
      core::default_gyro_system(core::Fidelity::Ideal), 3,
      [](core::GyroSystem& sys, std::vector<double>& out) {
        sys.run(sensor::Profile::sine(50.0, 20.0), sensor::Profile::constant(25.0), 0.1, &out);
      });
}

TEST(ObsBitIdentity, FullFidelityWithSafetyAndMcu) {
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.with_safety = true;
  cfg.with_mcu = true;
  golden_bit_identity_gyro(
      cfg, 11, [](core::GyroSystem& sys, std::vector<double>& out) {
        sys.run(sensor::Profile::constant(30.0), sensor::Profile::constant(35.0), 0.1, &out);
      });
}

TEST(ObsBitIdentity, IdealOpenLoopBatchedPath) {
  // Open loop with no supervisor: attaching obs must not move an output bit.
  auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
  cfg.sense.mode = core::SenseMode::OpenLoop;
  golden_bit_identity_gyro(
      cfg, 5, [](core::GyroSystem& sys, std::vector<double>& out) {
        sys.run(sensor::Profile::constant(40.0), sensor::Profile::constant(25.0), 0.1, &out);
      });
}

template <typename ScenarioFn>
void golden_bit_identity_baseline(const core::BaselineConfig& cfg, unsigned seed,
                                  ScenarioFn scenario) {
  core::AnalogGyroBaseline ref_dut(cfg);
  ref_dut.power_on(seed);
  std::vector<double> ref;
  scenario(ref_dut, ref);

  core::AnalogGyroBaseline dut(cfg);
  dut.power_on(seed);
  obs::Observability obs;
  dut.set_observability(obs.sink());
  std::vector<double> got;
  scenario(dut, got);

  ASSERT_FALSE(ref.empty());
  expect_bit_identical(ref, got);
  EXPECT_GT(obs.tasks.sim_seconds(), 0.0);  // profiler saw the runs
}

TEST(ObsBitIdentity, Adxrs300BaselinePhaseCarriesAcrossRuns) {
  golden_bit_identity_baseline(
      core::adxrs300_like(), 21, [](core::AnalogGyroBaseline& dut, std::vector<double>& out) {
        dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.033335, &out);
        dut.run(sensor::Profile::constant(100.0), sensor::Profile::constant(45.0), 0.05, &out);
      });
}

TEST(ObsBitIdentity, GyrostarBaseline) {
  golden_bit_identity_baseline(
      core::gyrostar_like(), 33, [](core::AnalogGyroBaseline& dut, std::vector<double>& out) {
        dut.run(sensor::Profile::step(80.0, 0.02), sensor::Profile::constant(25.0), 0.06, &out);
      });
}

// ---- 2. event-pipeline faithfulness ----------------------------------------

TEST(ObsEventPipeline, SupervisorEmitsExactlyOneEventPerStateChange) {
  auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
  cfg.with_safety = true;
  core::GyroSystem gyro(cfg);
  gyro.power_on(1);
  obs::Observability obs;
  gyro.set_observability(obs.sink());
  auto* sup = gyro.supervisor();
  ASSERT_NE(sup, nullptr);
  const auto initial = sup->state();

  const auto run_for = [&](double s) {
    gyro.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), s, nullptr);
  };
  for (int i = 0; i < 30 && !sup->armed(); ++i) run_for(0.1);
  ASSERT_TRUE(sup->armed());

  // A transient register SEU: latches a DTC (→ DEGRADED) and is scrubbed
  // back out (→ NOMINAL), giving at least two genuine transitions.
  safety::FaultCampaign campaign;
  safety::faults::add_register_bit_flip(campaign, gyro, gyro.dsp_samples() + 1000);
  gyro.set_fault_campaign(&campaign);
  run_for(2.5);

  // Collect the supervisor transition events and check they form a connected
  // chain: from ≠ to (no duplicate events for an unchanged state), each
  // event's `from` is the previous event's `to` (no missed transition), and
  // the chain endpoints match the states sampled around the run.
  struct Edge {
    double t, from, to;
  };
  std::vector<Edge> edges;
  obs.events.for_each([&](const obs::Event& e) {
    if (e.category != obs::EventCategory::Supervisor) return;
    ASSERT_STREQ(e.name, "state_transition");
    ASSERT_STREQ(e.kv[0].key, "from");
    ASSERT_STREQ(e.kv[1].key, "to");
    edges.push_back({e.t_sim, e.kv[0].value, e.kv[1].value});
  });
  ASSERT_GE(edges.size(), 2u) << "fault should have caused at least enter+leave DEGRADED";
  EXPECT_DOUBLE_EQ(edges.front().from, static_cast<double>(initial));
  EXPECT_DOUBLE_EQ(edges.back().to, static_cast<double>(sup->state()));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_NE(edges[i].from, edges[i].to) << "self-transition event " << i;
    if (i) {
      EXPECT_DOUBLE_EQ(edges[i].from, edges[i - 1].to) << "chain break at event " << i;
      EXPECT_GE(edges[i].t, edges[i - 1].t);
    }
  }
  // The metric and the event stream agree on the transition count.
  EXPECT_DOUBLE_EQ(obs.metrics.snapshot().counter_value("supervisor.state_transitions"),
                   static_cast<double>(edges.size()));
  EXPECT_EQ(obs.events.count(obs::EventCategory::Supervisor),
            static_cast<std::uint64_t>(edges.size()));
}

TEST(ObsEventPipeline, PllLockLossAndRelockEvents) {
  // System-level mirror of Pll.LockLossAndRelock (tests/dsp/test_pll.cpp):
  // an NCO phase jump mid-run throws the drive loop off lock; the event
  // stream must narrate lock → loss → relock in order, with the relock
  // inside the same reacquisition bound the PR-1 test enforces (< ~0.84 s).
  auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
  core::GyroSystem gyro(cfg);
  gyro.power_on(1);
  obs::Observability obs;
  gyro.set_observability(obs.sink());

  const auto run_for = [&](double s) {
    gyro.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), s, nullptr);
  };
  run_for(1.0);
  ASSERT_TRUE(gyro.locked());
  ASSERT_GE(obs.events.count(obs::EventCategory::Pll), 1u) << "no pll_lock during acquisition";

  const double fs_dsp = cfg.analog_fs / cfg.adc_div;
  const long inject_at = gyro.dsp_samples() + 1000;
  const double t_inject = static_cast<double>(inject_at) / fs_dsp;
  safety::FaultCampaign campaign;
  safety::faults::add_nco_phase_jump(campaign, gyro, inject_at);
  gyro.set_fault_campaign(&campaign);
  run_for(2.0);

  // First lock-loss at/after the injection, then the first relock after it.
  double t_loss = -1.0, t_relock = -1.0;
  obs.events.for_each([&](const obs::Event& e) {
    if (e.category != obs::EventCategory::Pll) return;
    const std::string name = e.name;
    if (name == "pll_lock_loss" && t_loss < 0 && e.t_sim >= t_inject) t_loss = e.t_sim;
    if (name == "pll_relock" && t_loss >= 0 && t_relock < 0) t_relock = e.t_sim;
  });
  ASSERT_GE(t_loss, 0.0) << "phase jump never deasserted lock";
  ASSERT_GE(t_relock, 0.0) << "PLL never relocked after the phase jump";
  EXPECT_GE(t_loss, t_inject);
  EXPECT_LT(t_loss - t_inject, 5000.0 / fs_dsp);  // unlock bound from Pll.LockLossAndRelock
  EXPECT_LT(t_relock - t_loss, 1.0) << "reacquisition slower than the PR-1 bound";
  EXPECT_TRUE(gyro.locked());
}

// A run's one record is its gyro.run span and the gyro.runs count: once its
// PLL and AGC have settled (the AGC settles and unsettles a few times in the
// first half second), an observed channel with its flight recorder armed adds
// no event, to its ring or to the recorder, however many runs it goes on to
// make.
TEST(ObsEventPipeline, RunBookkeepingLeavesNoEvent) {
  engine::ChannelConfig cfg;
  cfg.kind = engine::ChannelKind::GyroIdeal;
  cfg.with_flight_recorder = true;
  engine::ConditioningChannel ch(cfg);
  const obs::Observability& o = *ch.observability();
  const long chunk = std::lround(0.005 * ch.base_rate_hz());
  for (int i = 0; i < 200; ++i) ch.advance(chunk);  // 1 s
  ASSERT_TRUE(ch.gyro()->locked());
  ASSERT_GT(o.events.count(obs::EventCategory::Pll), 0u);
  ASSERT_GT(o.events.count(obs::EventCategory::Agc), 0u);

  const std::uint64_t events = o.events.total();
  const std::uint64_t recorded = o.recorder.count(obs::FlightKind::Event);
  const double runs = o.metrics.snapshot().counter_value("gyro.runs");
  const std::uint64_t spans = o.spans.total();
  ASSERT_GT(recorded, 0u) << "the recorder tee is not armed";
  for (int i = 0; i < 300; ++i) ch.advance(chunk);
  EXPECT_EQ(o.events.total(), events);
  EXPECT_EQ(o.recorder.count(obs::FlightKind::Event), recorded);
  EXPECT_EQ(o.metrics.snapshot().counter_value("gyro.runs"), runs + 300.0);
  EXPECT_GT(o.spans.total(), spans + 300u);
}

TEST(ObsEventPipeline, McuProfileConsistentWithExecutedFirmware) {
  auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
  cfg.with_mcu = true;
  cfg.with_safety = true;
  core::GyroSystem gyro(cfg);
  gyro.platform().load_firmware(
      analysis::corpus::assemble_watchdog_kicker(gyro.platform().config().map).image);
  gyro.power_on(1);
  obs::Observability obs;
  gyro.set_observability(obs.sink());
  gyro.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, nullptr);

  ASSERT_GT(obs.mcu.instructions(), 0u);
  EXPECT_GE(obs.mcu.cycles(), obs.mcu.instructions());  // ≥1 cycle per insn

  // PC histogram totals must equal the instruction count, and top_pcs must
  // come back sorted by count descending.
  const auto pcs = obs.mcu.top_pcs(10);
  ASSERT_FALSE(pcs.empty());
  for (std::size_t i = 1; i < pcs.size(); ++i) EXPECT_GE(pcs[i - 1].count, pcs[i].count);

  std::uint64_t op_total = 0;
  for (const auto& op : obs.mcu.top_opcodes(256)) op_total += op.count;
  EXPECT_EQ(op_total, obs.mcu.instructions());
}

}  // namespace
