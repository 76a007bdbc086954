#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/math.hpp"
#include "dsp/fir.hpp"

namespace ascp::dsp {
namespace {

TEST(Fir, ImpulseResponseEqualsTaps) {
  const std::vector<double> taps{0.25, 0.5, 0.25};
  FirFilter f(taps);
  std::vector<double> out;
  out.push_back(f.process(1.0));
  out.push_back(f.process(0.0));
  out.push_back(f.process(0.0));
  for (std::size_t i = 0; i < taps.size(); ++i) EXPECT_DOUBLE_EQ(out[i], taps[i]);
}

TEST(Fir, DcGainIsTapSum) {
  const std::vector<double> taps{0.1, 0.2, 0.3, 0.4};
  FirFilter f(taps);
  double y = 0.0;
  for (int i = 0; i < 20; ++i) y = f.process(1.0);
  EXPECT_NEAR(y, std::accumulate(taps.begin(), taps.end(), 0.0), 1e-12);
}

TEST(Fir, ResetClearsState) {
  FirFilter f({0.5, 0.5});
  f.process(7.0);
  f.reset();
  EXPECT_DOUBLE_EQ(f.process(0.0), 0.0);
}

TEST(Fir, LinearityAndTimeInvariance) {
  const auto taps = design_lowpass(31, 100.0, 1000.0);
  FirFilter f1(taps), f2(taps), f3(taps);
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(0.3 * i) + 0.2 * std::cos(1.1 * i);
  for (double xi : x) {
    const double y1 = f1.process(2.0 * xi);
    const double y2 = f2.process(xi);
    EXPECT_NEAR(y1, 2.0 * y2, 1e-12);
    (void)f3;
  }
}

TEST(FirDesign, LowpassUnityDcGain) {
  const auto taps = design_lowpass(63, 100.0, 1000.0);
  EXPECT_NEAR(fir_magnitude(taps, 0.0, 1000.0), 1.0, 1e-12);
}

TEST(FirDesign, LowpassAttenuatesStopband) {
  const auto taps = design_lowpass(63, 100.0, 1000.0);
  // Hamming window: ≥ 50 dB stopband rejection well past cutoff.
  EXPECT_LT(fir_magnitude(taps, 300.0, 1000.0), from_db20(-50.0));
  EXPECT_LT(fir_magnitude(taps, 450.0, 1000.0), from_db20(-50.0));
}

TEST(FirDesign, LowpassHalfPowerNearCutoff) {
  const auto taps = design_lowpass(127, 100.0, 1000.0);
  const double g = fir_magnitude(taps, 100.0, 1000.0);
  EXPECT_NEAR(g, 0.5, 0.08);  // window-method cutoff is the −6 dB point
}

TEST(FirDesign, LowpassIsSymmetricLinearPhase) {
  const auto taps = design_lowpass(41, 50.0, 500.0);
  for (std::size_t i = 0; i < taps.size() / 2; ++i)
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-14);
}

TEST(Fir, GroupDelayIsHalfOrder) {
  FirFilter f(design_lowpass(41, 50.0, 500.0));
  EXPECT_DOUBLE_EQ(f.group_delay(), 20.0);
}

// Parameterized sweep: stopband rejection improves with filter length.
class FirLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FirLength, StopbandRejectionAtLeast40Db) {
  const auto taps = design_lowpass(GetParam(), 50.0, 1000.0);
  EXPECT_LT(fir_magnitude(taps, 250.0, 1000.0), from_db20(-40.0)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Lengths, FirLength, ::testing::Values(33, 63, 95, 127));

}  // namespace
}  // namespace ascp::dsp
