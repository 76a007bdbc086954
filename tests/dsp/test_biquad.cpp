#include <gtest/gtest.h>

#include <cmath>

#include "common/math.hpp"
#include "dsp/biquad.hpp"

namespace ascp::dsp {
namespace {

TEST(BiquadDesign, LowpassDcUnityNyquistZero) {
  const auto c = design_biquad_lowpass(100.0, 0.707, 1000.0);
  EXPECT_NEAR(biquad_magnitude(c, 0.0, 1000.0), 1.0, 1e-9);
  EXPECT_LT(biquad_magnitude(c, 499.0, 1000.0), 0.05);
}

TEST(BiquadDesign, LowpassMinus3DbAtCutoffButterworthQ) {
  const auto c = design_biquad_lowpass(100.0, 0.7071, 1000.0);
  EXPECT_NEAR(biquad_magnitude(c, 100.0, 1000.0), from_db20(-3.0), 0.01);
}

TEST(Biquad, TimeDomainMatchesMagnitudeResponse) {
  // Drive with a sine, compare steady-state amplitude against the analytic
  // magnitude — ties the sample-domain implementation to the z-transform.
  const double fs = 10000.0, f0 = 400.0;
  const auto c = design_biquad_lowpass(800.0, 1.0, fs);
  Biquad bq(c);
  double peak = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double y = bq.process(std::sin(kTwoPi * f0 * i / fs));
    if (i > n / 2) peak = std::max(peak, std::abs(y));
  }
  EXPECT_NEAR(peak, biquad_magnitude(c, f0, fs), 0.01);
}

TEST(Biquad, ImpulseDecaysForStableFilter) {
  Biquad bq(design_biquad_lowpass(100.0, 2.0, 1000.0));
  double y = bq.process(1.0);
  double late = 0.0;
  for (int i = 0; i < 2000; ++i) {
    y = bq.process(0.0);
    if (i > 1900) late = std::max(late, std::abs(y));
  }
  EXPECT_LT(late, 1e-9);
}

TEST(Biquad, ResetClearsState) {
  Biquad bq(design_biquad_lowpass(100.0, 0.707, 1000.0));
  bq.process(5.0);
  bq.reset();
  EXPECT_NEAR(bq.process(0.0), 0.0, 1e-15);
}

TEST(BiquadCascade, EmptyCascadeIsIdentity) {
  BiquadCascade c;
  EXPECT_DOUBLE_EQ(c.process(0.7), 0.7);
}

TEST(BiquadCascade, TwoSectionsMultiplyResponses) {
  const auto c1 = design_biquad_lowpass(100.0, 0.54, 1000.0);
  const auto c2 = design_biquad_lowpass(100.0, 1.31, 1000.0);
  BiquadCascade cas({c1, c2});
  // Measure at 150 Hz via steady-state sine.
  const double fs = 1000.0, f0 = 150.0;
  double peak = 0.0;
  for (int i = 0; i < 8000; ++i) {
    const double y = cas.process(std::sin(kTwoPi * f0 * i / fs));
    if (i > 6000) peak = std::max(peak, std::abs(y));
  }
  EXPECT_NEAR(peak, biquad_magnitude(c1, f0, fs) * biquad_magnitude(c2, f0, fs), 0.02);
}

TEST(Butterworth, FourthOrderMinus3DbAtCutoff) {
  auto cas = design_butterworth_lowpass(4, 100.0, 1000.0);
  EXPECT_EQ(cas.size(), 2u);
  const double fs = 1000.0;
  double peak = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double y = cas.process(std::sin(kTwoPi * 100.0 * i / fs));
    if (i > 8000) peak = std::max(peak, std::abs(y));
  }
  // RBJ sections carry bilinear frequency warping at fc = fs/10, so the
  // measured point sits slightly below the analog −3 dB value.
  EXPECT_NEAR(peak, from_db20(-3.0), 0.05);
}

TEST(Butterworth, RolloffSteepensWithOrder) {
  const double fs = 1000.0, f_test = 300.0;
  double gains[2];
  int idx = 0;
  for (int order : {2, 6}) {
    auto cas = design_butterworth_lowpass(order, 100.0, fs);
    double peak = 0.0;
    for (int i = 0; i < 10000; ++i) {
      const double y = cas.process(std::sin(kTwoPi * f_test * i / fs));
      if (i > 8000) peak = std::max(peak, std::abs(y));
    }
    gains[idx++] = peak;
  }
  EXPECT_LT(gains[1], gains[0] / 50.0);  // 6th order ≫ steeper than 2nd
}

// Grid sweep: the cookbook low-pass's measured magnitude matches the
// analytic response at a probe frequency across (fc, q).
class BiquadDesignGrid : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BiquadDesignGrid, TimeDomainMatchesAnalyticResponse) {
  const auto [fc, q] = GetParam();
  const double fs = 48000.0;
  const auto c = design_biquad_lowpass(fc, q, fs);
  Biquad bq(c);
  const double f_probe = fc * 1.7;
  double peak = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const double y = bq.process(std::sin(kTwoPi * f_probe * i / fs));
    if (i > n * 3 / 4) peak = std::max(peak, std::abs(y));
  }
  EXPECT_NEAR(peak, biquad_magnitude(c, f_probe, fs), 0.03 + 0.03 * peak)
      << "fc=" << fc << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Grid, BiquadDesignGrid,
                         ::testing::Combine(::testing::Values(100.0, 1000.0, 6000.0),
                                            ::testing::Values(0.5, 0.707, 3.0)));

// Sweep: every design stays stable (|poles| < 1 ⇒ impulse decays).
class BiquadStability : public ::testing::TestWithParam<double> {};

TEST_P(BiquadStability, ImpulseResponseDecays) {
  const double q = GetParam();
  Biquad bq(design_biquad_lowpass(200.0, q, 1000.0));
  bq.process(1.0);
  double energy_tail = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double y = bq.process(0.0);
    if (i > 49000) energy_tail += y * y;
  }
  EXPECT_LT(energy_tail, 1e-12) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Qs, BiquadStability, ::testing::Values(0.3, 0.707, 2.0, 10.0, 50.0));

}  // namespace
}  // namespace ascp::dsp
