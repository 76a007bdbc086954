#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "afe/noise.hpp"
#include "common/math.hpp"
#include "common/spectrum.hpp"
#include "support/state_twin.hpp"

namespace ascp::afe {
namespace {

using ascp::state_twin::bits;
using ascp::state_twin::kCacheTemps;
using ascp::state_twin::load;
using ascp::state_twin::state_of;

TEST(NoiseSource, WhiteDensityRealizedCorrectly) {
  // density d at rate fs ⇒ sigma = d·√(fs/2).
  const double d = 100e-9, fs = 1e6;
  NoiseSource src(NoiseSpec{d, 0.0}, fs, ascp::Rng(1));
  std::vector<double> v(200000);
  for (auto& x : v) x = src.sample();
  EXPECT_NEAR(ascp::rms(v), d * std::sqrt(fs / 2.0), 0.02 * d * std::sqrt(fs / 2.0));
}

TEST(NoiseSource, PsdMatchesDeclaredDensity) {
  const double d = 50e-9, fs = 100e3;
  NoiseSource src(NoiseSpec{d, 0.0}, fs, ascp::Rng(3));
  std::vector<double> v(1 << 17);
  for (auto& x : v) x = src.sample();
  const auto psd = ascp::welch_psd(v, fs, 1 << 11);
  const double measured = std::sqrt(psd.band_mean(fs * 0.05, fs * 0.4));
  EXPECT_NEAR(measured, d, 0.1 * d);
}

TEST(NoiseSource, ZeroSpecIsSilent) {
  NoiseSource src(NoiseSpec{0.0, 0.0}, 1e6, ascp::Rng(1));
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(src.sample(), 0.0);
}

TEST(NoiseSource, HotterIsNoisier) {
  NoiseSource cold(NoiseSpec{100e-9, 0.0}, 1e6, ascp::Rng(5));
  NoiseSource hot(NoiseSpec{100e-9, 0.0}, 1e6, ascp::Rng(5));
  std::vector<double> vc(100000), vh(100000);
  for (auto& x : vc) x = cold.sample(-40.0);
  for (auto& x : vh) x = hot.sample(125.0);
  EXPECT_GT(ascp::rms(vh), ascp::rms(vc) * 1.1);
}

TEST(NoiseSource, ThermalScaleIsSqrtKelvinRatio) {
  EXPECT_NEAR(thermal_noise_scale(25.0), 1.0, 1e-12);
  EXPECT_NEAR(thermal_noise_scale(125.0), std::sqrt(398.15 / 298.15), 1e-12);
  EXPECT_LT(thermal_noise_scale(-40.0), 1.0);
}

TEST(NoiseSource, FlickerRaisesLowFrequencyPsd) {
  const double d = 100e-9, fs = 100e3;
  NoiseSource white(NoiseSpec{d, 0.0}, fs, ascp::Rng(7));
  NoiseSource pink(NoiseSpec{d, 1e3}, fs, ascp::Rng(7));
  std::vector<double> vw(1 << 17), vp(1 << 17);
  for (auto& x : vw) x = white.sample();
  for (auto& x : vp) x = pink.sample();
  const auto pw = ascp::welch_psd(vw, fs, 1 << 12);
  const auto pp = ascp::welch_psd(vp, fs, 1 << 12);
  // Well below the 1 kHz corner the pink source must dominate.
  EXPECT_GT(pp.band_mean(20.0, 100.0), 2.0 * pw.band_mean(20.0, 100.0));
  // Well above the corner both are close to the white density.
  EXPECT_NEAR(pp.band_mean(20e3, 40e3), pw.band_mean(20e3, 40e3),
              1.0 * pw.band_mean(20e3, 40e3));
}

// The thermal scale is cached on the temperature: a source sampled
// continuously must match, bit for bit, a twin rebuilt and loaded from its
// state before every sample, over every temperature in kCacheTemps.
TEST(NoiseCache, InvisibleOverTemperatureSequence) {
  const NoiseSpec spec{50e-9, 2e3};
  NoiseSource src(spec, 1.92e6, ascp::Rng(4));
  for (int round = 0; round < 3; ++round)
    for (const double temp : kCacheTemps) {
      NoiseSource twin(spec, 1.92e6, ascp::Rng(4));
      load(twin, state_of(src));
      ASSERT_EQ(bits(src.sample(temp)), bits(twin.sample(temp))) << "temp " << temp;
      ASSERT_EQ(state_of(src), state_of(twin));
    }
}

// A stale scale would fool both twins above alike; this check has its own
// oracle. At 25 °C the scale is exactly 1, so white noise at any temperature
// is the 25 °C draw times thermal_noise_scale(temp).
TEST(NoiseCache, ServesTheScaleOfTheCurrentTemperature) {
  ASSERT_EQ(thermal_noise_scale(25.0), 1.0);
  NoiseSource src(NoiseSpec{50e-9, 0.0}, 1.92e6, ascp::Rng(4));
  NoiseSource ref(NoiseSpec{50e-9, 0.0}, 1.92e6, ascp::Rng(4));
  for (const double temp : kCacheTemps)
    ASSERT_EQ(bits(src.sample(temp)), bits(ref.sample(25.0) * thermal_noise_scale(temp)))
        << "temp " << temp;
}

}  // namespace
}  // namespace ascp::afe
