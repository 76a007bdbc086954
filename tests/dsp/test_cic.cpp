#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math.hpp"
#include "dsp/cic.hpp"

namespace ascp::dsp {
namespace {

TEST(Cic, OutputRateIsInputOverR) {
  CicDecimator cic(3, 16);
  int outputs = 0;
  for (int i = 0; i < 1600; ++i)
    if (cic.push(1.0)) ++outputs;
  EXPECT_EQ(outputs, 100);
}

TEST(Cic, DcGainIsUnityAfterNormalization) {
  CicDecimator cic(3, 16, 16, 1.0);
  double last = 0.0;
  for (int i = 0; i < 3200; ++i)
    if (auto y = cic.push(0.5)) last = *y;
  EXPECT_NEAR(last, 0.5, 1e-3);
}

TEST(Cic, RawGainIsRToTheN) {
  CicDecimator cic(4, 8);
  EXPECT_DOUBLE_EQ(cic.raw_gain(), 4096.0);
}

TEST(Cic, PassesSlowSignal) {
  // 100 Hz signal at 240 kHz input, R=128 → output at 1.875 kHz follows it.
  const double fs = 240e3;
  CicDecimator cic(3, 128, 16, 1.0);
  std::vector<double> out;
  for (int i = 0; i < 480000; ++i) {
    if (auto y = cic.push(0.7 * std::sin(kTwoPi * 100.0 * i / fs))) out.push_back(*y);
  }
  double peak = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) peak = std::max(peak, std::abs(out[i]));
  EXPECT_NEAR(peak, 0.7, 0.02);
}

TEST(Cic, AttenuatesNearAliasBands)  {
  // Frequencies near multiples of fs/R fold onto baseband but arrive deeply
  // attenuated — the CIC's anti-alias property.
  const double fs = 240e3;
  const int r = 128;
  CicDecimator cic(3, r, 16, 1.0);
  const double f_near_null = fs / r * 1.02;  // just off the first null
  std::vector<double> out;
  for (int i = 0; i < 480000; ++i) {
    if (auto y = cic.push(std::sin(kTwoPi * f_near_null * i / fs))) out.push_back(*y);
  }
  double peak = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) peak = std::max(peak, std::abs(out[i]));
  EXPECT_LT(peak, 5e-4);
}

TEST(Cic, MagnitudeFormulaMatchesMeasurement) {
  const double fs = 240e3;
  const int r = 64;
  CicDecimator cic(2, r, 16, 1.0);
  const double f_test = 500.0;
  std::vector<double> out;
  for (int i = 0; i < 960000; ++i) {
    if (auto y = cic.push(std::sin(kTwoPi * f_test * i / fs))) out.push_back(*y);
  }
  double peak = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i) peak = std::max(peak, std::abs(out[i]));
  EXPECT_NEAR(peak, cic.magnitude(f_test, fs), 0.01);
}

TEST(Cic, MagnitudeAtDcIsOne) {
  CicDecimator cic(3, 128);
  EXPECT_DOUBLE_EQ(cic.magnitude(0.0, 240e3), 1.0);
}

TEST(Cic, NullsAtOutputRateMultiples) {
  CicDecimator cic(3, 128);
  const double fs = 240e3;
  EXPECT_LT(cic.magnitude(fs / 128.0, fs), 1e-9);
  EXPECT_LT(cic.magnitude(2.0 * fs / 128.0, fs), 1e-9);
}

TEST(Cic, ResetClearsState) {
  CicDecimator cic(3, 4, 16, 1.0);
  for (int i = 0; i < 40; ++i) cic.push(1.0);
  cic.reset();
  // After reset, the transient restarts from zero: first output is small.
  std::optional<double> first;
  for (int i = 0; i < 4 && !first; ++i) first = cic.push(0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_NEAR(*first, 0.0, 1e-12);
}

TEST(Cic, RatioOneDegeneratesToUnity) {
  CicDecimator cic(1, 1, 16, 1.0);
  // N=1, R=1: y[n] = x[n] (integrator + differentiator cancel).
  std::vector<double> in{0.1, -0.3, 0.5, 0.9};
  for (double x : in) {
    auto y = cic.push(x);
    ASSERT_TRUE(y.has_value());
    EXPECT_NEAR(*y, x, 1e-4);
  }
}

// Stage-count sweep: more stages → more alias rejection at the folding band.
class CicStages : public ::testing::TestWithParam<int> {};

TEST_P(CicStages, AliasRejectionIsSingleStageToTheN) {
  const int n = GetParam();
  const double fs = 240e3;
  const double f_fold = fs / 32.0 * 0.9;
  CicDecimator multi(n, 32);
  CicDecimator one(1, 32);
  EXPECT_NEAR(multi.magnitude(f_fold, fs), std::pow(one.magnitude(f_fold, fs), n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Stages, CicStages, ::testing::Values(1, 2, 3, 4));

TEST(Cic, TicksUntilOutputTracksPhase) {
  CicDecimator cic(3, 8);
  EXPECT_EQ(cic.ticks_until_output(), 8);
  for (int i = 0; i < 5; ++i) {
    cic.push(1.0);
    EXPECT_EQ(cic.ticks_until_output(), 8 - (i + 1));
  }
  std::size_t n = 0;
  for (int i = 0; i < 3; ++i)
    if (cic.push(1.0)) ++n;
  EXPECT_EQ(n, 1u);  // the three pushes complete the frame exactly
  EXPECT_EQ(cic.ticks_until_output(), 8);
}

}  // namespace
}  // namespace ascp::dsp
