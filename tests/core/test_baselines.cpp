// Baseline comparator models: Table 2/3 shape checks, kept short (one
// device, coarse assertions); the full campaign lives in the benches.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/math.hpp"
#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "sensor/stimulus_source.hpp"
#include "support/state_twin.hpp"

namespace ascp::core {
namespace {

TEST(Baselines, AdxrsLocksAndMeasuresRate) {
  AnalogGyroBaseline dut(adxrs300_like());
  dut.power_on(1);
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.4, nullptr);
  EXPECT_TRUE(dut.locked());
  const auto s = measure_sensitivity(dut, 25.0, 5, 0.15);
  // Trim tolerance ±8 %: slope within [4.4, 5.6] mV/°/s.
  EXPECT_GT(std::abs(s.mv_per_dps), 4.2);
  EXPECT_LT(std::abs(s.mv_per_dps), 5.8);
}

TEST(Baselines, AdxrsTurnOnIsFast) {
  // Low-Q element: turn-on well under 150 ms — an order of magnitude faster
  // than the high-Q platform (the Table 1 vs Table 2 contrast).
  AnalogGyroBaseline dut(adxrs300_like());
  // 10 mV tolerance (2 °/s): the broadband 0.1 °/s/√Hz floor makes tighter
  // windows flicker. Still 3–10× faster than the high-Q platform.
  EXPECT_LT(measure_turn_on(dut, 1, 25.0, 10e-3, 1.0), 0.2);
}

TEST(Baselines, AdxrsNullWithinTable2Window) {
  AnalogGyroBaseline dut(adxrs300_like());
  dut.power_on(2);
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.4, nullptr);
  const double null = measure_null(dut, 25.0, 0.2, 0.3);
  EXPECT_GT(null, 2.2);
  EXPECT_LT(null, 2.8);
}

TEST(Baselines, AdxrsNullDriftsWithTemperature) {
  // No digital compensation: the null moves measurably over temperature.
  AnalogGyroBaseline dut(adxrs300_like());
  dut.power_on(1);
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.4, nullptr);
  const double at25 = measure_null(dut, 25.0, 0.1, 0.2);
  const double at85 = measure_null(dut, 85.0, 0.3, 0.2);
  EXPECT_GT(std::abs(at85 - at25), 0.02);  // ≥ 20 mV ≈ 4 °/s of drift
}

TEST(Baselines, GyrostarSensitivityIsSubMillivolt) {
  AnalogGyroBaseline dut(gyrostar_like());
  dut.power_on(1);
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.6, nullptr);
  const auto s = measure_sensitivity(dut, 25.0, 5, 0.2);
  EXPECT_GT(std::abs(s.mv_per_dps), 0.4);
  EXPECT_LT(std::abs(s.mv_per_dps), 1.0);  // Table 3: 0.54–0.80
}

TEST(Baselines, GyrostarNullNear1V35) {
  AnalogGyroBaseline dut(gyrostar_like());
  dut.power_on(3);
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.6, nullptr);
  const double null = measure_null(dut, 25.0, 0.2, 0.3);
  EXPECT_NEAR(null, 1.35, 0.2);
}

TEST(Baselines, DevicesVaryAcrossSeeds) {
  std::vector<double> sens;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    AnalogGyroBaseline dut(adxrs300_like());
    dut.power_on(seed);
    dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.4, nullptr);
    std::vector<double> pos, neg;
    dut.run(sensor::Profile::constant(150.0), sensor::Profile::constant(25.0), 0.2, &pos);
    dut.run(sensor::Profile::constant(-150.0), sensor::Profile::constant(25.0), 0.2, &neg);
    sens.push_back((mean(std::span(pos).subspan(pos.size() / 2)) -
                    mean(std::span(neg).subspan(neg.size() / 2))) /
                   300.0);
  }
  EXPECT_GT(stddev(sens), 1e-5);  // trim spread visible
}

TEST(Baselines, RespondsWithCorrectPolarityConsistency) {
  // Positive and negative rates move the output in opposite directions.
  AnalogGyroBaseline dut(adxrs300_like());
  dut.power_on(1);
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.4, nullptr);
  std::vector<double> pos, neg;
  dut.run(sensor::Profile::constant(200.0), sensor::Profile::constant(25.0), 0.2, &pos);
  dut.run(sensor::Profile::constant(-200.0), sensor::Profile::constant(25.0), 0.2, &neg);
  const double zero = dut.nominal_null();
  const double dp = mean(std::span(pos).subspan(pos.size() / 2)) - zero;
  const double dn = mean(std::span(neg).subspan(neg.size() / 2)) - zero;
  EXPECT_LT(dp * dn, 0.0);
}

// ---- throws inside a conditioning cycle -----------------------------------------
// The frame loop runs a conditioning cycle's analog ticks in one call. A
// baseline whose probe's stimulus tap or whose source throws in the middle
// of a cycle must be left as a twin advanced one tick per call is: the ring
// stepped through the ticks that completed (a tap follows its tick's step),
// the counter at the tick that threw, the same outputs.

/// Throws from the stimulus tap on one tick (if any).
class StimulusBomb final : public sensor::Probe {
 public:
  explicit StimulusBomb(long at) : at_(at) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::Stimulus; }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (f.tick == at_) throw std::runtime_error("probe exploded");
  }

 private:
  long at_;
};

/// A constant stimulus whose sample for one tick (if any) throws.
class BombSource final : public sensor::StimulusSource {
 public:
  BombSource(double fs, long at)
      : inner_(sensor::Profile::constant(40.0), sensor::Profile::constant(30.0), fs), at_(at) {}
  sensor::StimulusKind kind() const override { return inner_.kind(); }
  sensor::StimulusSample sample(long tick) override {
    if (tick == at_) throw std::runtime_error("source exploded");
    return inner_.sample(tick);
  }
  void serialize_state(StateArchive& ar) override { inner_.serialize_state(ar); }

 private:
  sensor::SyntheticSource inner_;
  long at_;
};

TEST(Baselines, ThrowMidCycleLeavesTheTickByTickState) {
  constexpr long kAt = 2051;  // ≡ 3 (mod loop_div 8), after two DAQ outputs
  for (const bool tap : {true, false}) {
    SCOPED_TRACE(tap ? "stimulus tap throws" : "source throws");
    const BaselineConfig cfg = adxrs300_like();
    ASSERT_EQ(kAt % cfg.loop_div, 3);
    const double fs = cfg.analog_fs;
    AnalogGyroBaseline cycled(cfg), stepped(cfg);
    StimulusBomb probe_a(tap ? kAt : -1), probe_b(tap ? kAt : -1);
    cycled.set_probe(&probe_a);
    stepped.set_probe(&probe_b);
    cycled.power_on(7);
    stepped.power_on(7);
    const long source_at = tap ? -1 : kAt;
    BombSource src_a(fs, source_at), src_b(fs, source_at);
    std::vector<double> out_a, out_b;
    EXPECT_THROW(cycled.run(src_a, 3000.0 / fs, &out_a), std::runtime_error);
    long calls = 0;
    for (; calls < 3000; ++calls) {
      try {
        stepped.run(src_b, 1.0 / fs, &out_b);
      } catch (const std::runtime_error&) {
        break;
      }
    }
    EXPECT_EQ(calls, kAt);
    EXPECT_FALSE(out_a.empty());
    EXPECT_EQ(out_a, out_b);
    EXPECT_EQ(state_twin::state_of(cycled), state_twin::state_of(stepped));
  }
}

}  // namespace
}  // namespace ascp::core
