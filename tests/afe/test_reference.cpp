#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "afe/reference.hpp"
#include "common/math.hpp"

namespace ascp::afe {
namespace {

TEST(TempSensor, TracksTrueTemperature) {
  TempSensor ts(0.0, 0.0, ascp::Rng(1));
  std::vector<double> err(1000);
  for (auto& e : err) e = ts.read(60.0) - 60.0;
  EXPECT_NEAR(ascp::mean(err), 0.0, 0.05);
}

TEST(TempSensor, GainErrorGrowsWithKelvin) {
  // 1 % PTAT gain error ⇒ ~3.3 °C error at 60 °C but anchored to kelvin.
  TempSensor ts(1.0, 0.0, ascp::Rng(42));
  std::vector<double> at_hot(500), at_cold(500);
  for (auto& x : at_hot) x = ts.read(85.0) - 85.0;
  for (auto& x : at_cold) x = ts.read(-40.0) - (-40.0);
  // Error magnitudes differ because the PTAT error scales with T_abs.
  EXPECT_NE(std::abs(ascp::mean(at_hot)), std::abs(ascp::mean(at_cold)));
}

TEST(TempSensor, NoiseIsSmall) {
  TempSensor ts(0.0, 0.0, ascp::Rng(7));
  std::vector<double> v(2000);
  for (auto& x : v) x = ts.read(25.0);
  EXPECT_LT(ascp::stddev(v), 0.2);
}

}  // namespace
}  // namespace ascp::afe
