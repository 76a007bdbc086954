#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "afe/dac.hpp"
#include "support/state_twin.hpp"

namespace ascp::afe {
namespace {

using ascp::state_twin::bits;
using ascp::state_twin::kCacheTemps;
using ascp::state_twin::load;
using ascp::state_twin::state_of;

DacConfig quiet_config() {
  DacConfig cfg;
  cfg.glitch_volts = 0.0;
  cfg.offset_drift = 0.0;
  cfg.settle_tau_s = 1e-7;  // effectively instant at µs steps
  return cfg;
}

TEST(Dac, CodeZeroNearZeroVolts) {
  Dac dac(quiet_config(), ascp::Rng(1));
  dac.write_code(0);
  double v = 0.0;
  for (int i = 0; i < 100; ++i) v = dac.output(1e-6);
  EXPECT_NEAR(v, 0.0, 2 * dac.lsb());
}

TEST(Dac, FullScaleCodes) {
  Dac dac(quiet_config(), ascp::Rng(1));
  dac.write_code(2047);
  double v = 0.0;
  for (int i = 0; i < 100; ++i) v = dac.output(1e-6);
  EXPECT_NEAR(v, 2.5, 0.01);
}

TEST(Dac, WriteVoltsRoundTrips) {
  Dac dac(quiet_config(), ascp::Rng(3));
  dac.write_volts(1.2345);
  double v = 0.0;
  for (int i = 0; i < 200; ++i) v = dac.output(1e-6);
  EXPECT_NEAR(v, 1.2345, 2 * dac.lsb());
}

TEST(Dac, CodesClampAtRange) {
  Dac dac(quiet_config(), ascp::Rng(1));
  dac.write_code(100000);
  double v = 0.0;
  for (int i = 0; i < 100; ++i) v = dac.output(1e-6);
  EXPECT_LE(v, 2.6);
  dac.write_code(-100000);
  for (int i = 0; i < 200; ++i) v = dac.output(1e-6);
  EXPECT_GE(v, -2.6);
}

TEST(Dac, SettlingFollowsExponential) {
  DacConfig cfg = quiet_config();
  cfg.settle_tau_s = 10e-6;
  Dac dac(cfg, ascp::Rng(5));
  dac.write_volts(1.0);
  // After one τ the output reaches ~63 % of the step.
  double v = 0.0;
  for (int i = 0; i < 10; ++i) v = dac.output(1e-6);
  EXPECT_NEAR(v, 1.0 - std::exp(-1.0), 0.05);
}

TEST(Dac, GlitchDecays) {
  DacConfig cfg = quiet_config();
  cfg.glitch_volts = 0.1;
  cfg.settle_tau_s = 10e-6;
  Dac dac(cfg, ascp::Rng(7));
  dac.write_code(-1);
  for (int i = 0; i < 100; ++i) dac.output(1e-6);
  // Mid-scale transition: −1 → 0 flips every bit (two's complement) → the
  // worst-case glitch.
  dac.write_code(0);
  const double just_after = dac.output(1e-6);
  double later = just_after;
  for (int i = 0; i < 200; ++i) later = dac.output(1e-6);
  EXPECT_GT(std::abs(just_after - later), 0.01);
}

TEST(Dac, MonotoneAcrossCodes) {
  Dac dac(quiet_config(), ascp::Rng(11));
  double prev = -1e9;
  for (std::int32_t c = -2048; c < 2048; c += 32) {
    dac.write_code(c);
    double v = 0.0;
    for (int i = 0; i < 50; ++i) v = dac.output(1e-6);
    EXPECT_GT(v, prev) << c;
    prev = v;
  }
}

TEST(Dac, OffsetDriftScalesWithTemperature) {
  DacConfig cfg = quiet_config();
  cfg.offset_drift = 1e-3;
  Dac dac(cfg, ascp::Rng(13));
  dac.write_volts(0.0);
  for (int i = 0; i < 100; ++i) dac.output(1e-6, 25.0);
  const double at25 = dac.output(1e-6, 25.0);
  const double at125 = dac.output(1e-6, 125.0);
  EXPECT_NEAR(at125 - at25, 0.1, 1e-3);
}

// The settling factors are cached on dt. A DAC stepped continuously must
// match, bit for bit, a twin rebuilt and loaded from its state before every
// step (so the twin's cache is always cold), with dt alternating between
// two values and every temperature in kCacheTemps.
TEST(DacCache, InvisibleAcrossAlternatingDt) {
  const DacConfig cfg;
  Dac dac(cfg, ascp::Rng(9));
  const double dts[] = {1.0 / 1.92e6, 1.0 / 240e3};
  const int pattern[] = {0, 0, 1, 0, 1, 1, 0};
  for (int k = 0; k < 400; ++k) {
    if (k % 8 == 7) dac.write_volts(0.9 * std::sin(0.05 * k));
    const double dt = dts[pattern[k % 7]];
    const double temp = kCacheTemps[static_cast<std::size_t>(k) % kCacheTemps.size()];
    Dac twin(cfg, ascp::Rng(9));
    load(twin, state_of(dac));
    ASSERT_EQ(bits(dac.output(dt, temp)), bits(twin.output(dt, temp))) << "step " << k;
    ASSERT_EQ(state_of(dac), state_of(twin)) << "step " << k;
  }
}

}  // namespace
}  // namespace ascp::afe
