// Static fixed-point range analyzer: proves the shipped (Table 1,
// SensorDynamics) configuration saturation-free over the datasheet input
// range, and pinpoints the saturating stage when a configuration breaks.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analysis/range_lint.hpp"
#include "core/gyro_system.hpp"

using namespace ascp;
using namespace ascp::analysis;

namespace {

const StageRange* find_stage(const std::vector<StageRange>& v, const std::string& s) {
  for (const auto& r : v)
    if (r.stage == s) return &r;
  return nullptr;
}

}  // namespace

TEST(RangeLint, Table1SenseChainIsProvenSaturationFree) {
  // The acceptance property: the SensorDynamics configuration the paper's
  // Table 1 characterizes is statically saturation-free over the datasheet
  // input range (±rail at the ADC, −40..85 °C).
  const auto cfg = core::default_gyro_system(core::Fidelity::Full);
  const auto stages = sense_chain_ranges(cfg.sense, cfg.comp);
  EXPECT_GE(stages.size(), 10u);
  for (const auto& s : stages)
    EXPECT_FALSE(s.saturates()) << s.stage << ": bound " << s.bound << " vs "
                                << s.format << " limit " << s.limit;
}

TEST(RangeLint, Table1FullPlatformRangesAreClean) {
  const auto cfg = core::default_gyro_system(core::Fidelity::Full);
  const Report rep = check_ranges(cfg.sense, cfg.drive, cfg.comp);
  EXPECT_TRUE(rep.clean()) << rep.format();
  EXPECT_TRUE(rep.mentions("headroom"));
}

TEST(RangeLint, DriveLoopClampsBoundTheActuators) {
  const auto cfg = core::default_gyro_system(core::Fidelity::Full);
  const auto stages = drive_loop_ranges(cfg.drive);
  const auto* gain = find_stage(stages, "drive.agc.gain");
  ASSERT_NE(gain, nullptr);
  EXPECT_FALSE(gain->saturates());
  const auto* integ = find_stage(stages, "drive.pll.integrator");
  ASSERT_NE(integ, nullptr);
  EXPECT_FALSE(integ->saturates());
}

TEST(RangeLint, OutputLpfUsesComposedCascadeBound) {
  // The Q=1.3 Butterworth section peaks at √2 alone; composed with its
  // Q=0.54 partner the cascade is flat. The analyzer must bound the cascade
  // output by the composed peak, or every flat 4th-order filter would be a
  // false saturation report.
  const auto cfg = core::default_gyro_system(core::Fidelity::Full);
  const auto stages = sense_chain_ranges(cfg.sense, cfg.comp);
  const auto* mid = find_stage(stages, "sense.output_lpf[0]");
  const auto* out = find_stage(stages, "sense.output_lpf[1]");
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(out, nullptr);
  EXPECT_LT(out->bound, 1.1 * mid->bound);  // no √2 blow-up across the cascade
  EXPECT_FALSE(out->saturates());
}

TEST(RangeLint, SaturatingConfigurationPinpointsTheStage) {
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.comp.s0 = 3.0;  // ×3 compensation scale drives the output past Q1_22 FS
  const auto stages = sense_chain_ranges(cfg.sense, cfg.comp);
  const auto* comp = find_stage(stages, "sense.compensation");
  ASSERT_NE(comp, nullptr);
  EXPECT_TRUE(comp->saturates());

  const Report rep = check_ranges(cfg.sense, cfg.drive, cfg.comp);
  EXPECT_FALSE(rep.clean());
  bool names_stage = false;
  for (const auto& f : rep.findings())
    if (f.severity == Severity::Error && f.location == "sense.compensation")
      names_stage = true;
  EXPECT_TRUE(names_stage) << rep.format();
}

TEST(RangeLint, DeclaredFormatLimitsAreTheirLargestValues) {
  // A declared Qi_f register holds one sign bit, i integer and f fraction
  // bits, so its positive full scale is (2^(i+f) − 1) / 2^f: one LSB below
  // 2^i. Every node of both sense modes and of the drive loop that names
  // one of these formats must carry exactly that limit.
  const std::map<std::string, double> largest = {{"Q1_14", 2.0 - std::ldexp(1.0, -14)},
                                                 {"Q1_22", 2.0 - std::ldexp(1.0, -22)},
                                                 {"Q4_18", 16.0 - std::ldexp(1.0, -18)}};
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  std::vector<StageRange> stages = drive_loop_ranges(cfg.drive);
  for (const core::SenseMode mode : {core::SenseMode::ClosedLoop, core::SenseMode::OpenLoop}) {
    cfg.sense.mode = mode;
    const auto sense = sense_chain_ranges(cfg.sense, cfg.comp);
    stages.insert(stages.end(), sense.begin(), sense.end());
  }
  int checked = 0;
  for (const StageRange& s : stages) {
    const auto it = largest.find(s.format);
    if (it == largest.end()) {
      // The only other formats are the CIC's input register and accumulator.
      EXPECT_TRUE(s.format == "Q(16)@vref" || s.format == "int64") << s.stage << ": " << s.format;
      continue;
    }
    EXPECT_EQ(s.limit, it->second) << s.stage << " (" << s.format << ") is off by "
                                   << s.limit - it->second;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(RangeLint, HeadroomIsPositiveAndFinite) {
  const auto cfg = core::default_gyro_system(core::Fidelity::Full);
  for (const auto& s : sense_chain_ranges(cfg.sense, cfg.comp)) {
    if (s.limit == 0.0) continue;  // informational stages
    EXPECT_GT(s.headroom_db(), 0.0) << s.stage;
    EXPECT_LT(s.headroom_db(), 120.0) << s.stage;
  }
}
