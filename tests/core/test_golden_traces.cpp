// test_golden_traces.cpp — bit-exact regression net over the conditioning
// pipeline.
//
// The multi-rate loop was rebuilt from a hand-rolled divider loop onto a
// generic task scheduler, and later onto one static frame loop per pipeline.
// These goldens were captured from the original monolithic loops and pin
// each rebuild to the bit: every scenario below must produce the exact same
// doubles, sample for sample, forever. If an intentional numerical change is
// ever made, re-capture with tools/golden_capture.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/fnv1a.hpp"
#include "core/baselines.hpp"
#include "core/gyro_system.hpp"

namespace {

using namespace ascp;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void expect_golden(const std::vector<double>& v, std::size_t n, std::uint64_t hash,
                   std::uint64_t first, std::uint64_t last) {
  ASSERT_EQ(v.size(), n);
  // First/last bit patterns give a readable failure before the full-stream
  // hash; the hash is what actually guarantees every sample in between.
  EXPECT_EQ(bits(v.front()), first);
  EXPECT_EQ(bits(v.back()), last);
  EXPECT_EQ(fnv1a_doubles(kFnv1aOutputBasis, v.data(), v.size()), hash);
}

TEST(GoldenTraces, FullFidelityClosedLoopAcrossTwoRuns) {
  core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Full));
  sys.power_on(7);
  std::vector<double> out;
  sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, &out);
  sys.run(sensor::Profile::step(90.0, 0.01), sensor::Profile::ramp(25.0, 45.0, 0.0, 0.1), 0.1,
          &out);
  expect_golden(out, 281, 0xca208e27927aa7d5ull, 0x4003ffffffffd4a3ull, 0x4004cd464c5824afull);
}

TEST(GoldenTraces, IdealFidelityClosedLoop) {
  core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Ideal));
  sys.power_on(3);
  std::vector<double> out;
  sys.run(sensor::Profile::sine(50.0, 20.0), sensor::Profile::constant(25.0), 0.1, &out);
  expect_golden(out, 187, 0x45f0b873506aecf5ull, 0x4004000000000ca2ull, 0x4003c1974cf4d6fdull);
}

TEST(GoldenTraces, FullFidelityWithSafetyAndMcu) {
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.with_safety = true;
  cfg.with_mcu = true;
  core::GyroSystem sys(cfg);
  sys.power_on(11);
  std::vector<double> out;
  sys.run(sensor::Profile::constant(30.0), sensor::Profile::constant(35.0), 0.1, &out);
  expect_golden(out, 187, 0xfff6132bba18e523ull, 0x4003ffffffffdebfull, 0x40044818377e8400ull);
}

TEST(GoldenTraces, IdealOpenLoopBatchedPath) {
  // Open loop with no per-sample observers. This scenario once took a
  // batched block-DSP path; it must match the scalar-loop golden exactly.
  auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
  cfg.sense.mode = core::SenseMode::OpenLoop;
  core::GyroSystem sys(cfg);
  sys.power_on(5);
  std::vector<double> out;
  sys.run(sensor::Profile::constant(40.0), sensor::Profile::constant(25.0), 0.1, &out);
  expect_golden(out, 187, 0xf1abe3461ac0c12bull, 0x4004000000000000ull, 0x400431659a4728ceull);
}

TEST(GoldenTraces, Adxrs300BaselinePhaseCarriesAcrossRuns) {
  // 0.033335 s = 64003 analog ticks — deliberately NOT divisible by loop_div,
  // so the second run() only matches if decimation phase persists across
  // calls exactly like the pre-refactor member counters did.
  core::AnalogGyroBaseline dut(core::adxrs300_like());
  dut.power_on(21);
  std::vector<double> out;
  dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.033335, &out);
  dut.run(sensor::Profile::constant(100.0), sensor::Profile::constant(45.0), 0.05, &out);
  expect_golden(out, 156, 0xfef5c291a14a4f25ull, 0x40027f41d38a9184ull, 0x4006a1b5d274c5ecull);
}

TEST(GoldenTraces, GyrostarBaseline) {
  core::AnalogGyroBaseline dut(core::gyrostar_like());
  dut.power_on(33);
  std::vector<double> out;
  dut.run(sensor::Profile::step(80.0, 0.02), sensor::Profile::constant(25.0), 0.06, &out);
  expect_golden(out, 112, 0x16f1d76e39333260ull, 0x3ff52ce2f7814e46ull, 0x3ff6046922ade705ull);
}

}  // namespace
