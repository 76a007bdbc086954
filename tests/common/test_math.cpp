#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math.hpp"

namespace ascp {
namespace {

TEST(Math, SincAtZeroIsOne) { EXPECT_DOUBLE_EQ(sinc(0.0), 1.0); }

TEST(Math, SincAtIntegersIsZero) {
  for (int k = 1; k <= 5; ++k) {
    EXPECT_NEAR(sinc(k), 0.0, 1e-15);
    EXPECT_NEAR(sinc(-k), 0.0, 1e-15);
  }
}

TEST(Math, HannWindowEndpointsAndPeak) {
  const auto w = hann_window(65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Math, HammingWindowEndpoints) {
  const auto w = hamming_window(33);
  EXPECT_NEAR(w.front(), 0.08, 1e-12);
  EXPECT_NEAR(w.back(), 0.08, 1e-12);
}

TEST(Math, WindowsAreSymmetric) {
  for (const auto& w : {hann_window(31), hamming_window(31)}) {
    for (std::size_t i = 0; i < w.size() / 2; ++i)
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << i;
  }
}

TEST(Math, FitLineRecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.5 * i - 7.0);
  }
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 3.5, 1e-12);
  EXPECT_NEAR(fit.offset, -7.0, 1e-10);
  EXPECT_NEAR(fit.max_abs_residual, 0.0, 1e-10);
}

TEST(Math, FitLineResidualsOfParabola) {
  // y = x² over [-1,1]: best line is y = 1/3 (slope 0); max residual 2/3.
  std::vector<double> x, y;
  for (int i = 0; i <= 200; ++i) {
    const double xv = -1.0 + i * 0.01;
    x.push_back(xv);
    y.push_back(xv * xv);
  }
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-9);
  EXPECT_NEAR(fit.offset, 1.0 / 3.0, 0.01);
  EXPECT_NEAR(fit.max_abs_residual, 2.0 / 3.0, 0.02);
}

TEST(Math, MeanStddevRms) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(rms(v), std::sqrt(30.0 / 4.0), 1e-12);
}

TEST(Math, WrapPhaseIntoRange) {
  EXPECT_NEAR(wrap_phase(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_phase(3.0 * kPi), kPi, 1e-9);
  EXPECT_NEAR(wrap_phase(-3.0 * kPi), kPi, 1e-9);
  EXPECT_NEAR(wrap_phase(kTwoPi), 0.0, 1e-12);
  for (double p = -20.0; p < 20.0; p += 0.37) {
    const double w = wrap_phase(p);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    EXPECT_NEAR(std::sin(w), std::sin(p), 1e-9);
  }
}

TEST(Math, DbConversions) {
  EXPECT_DOUBLE_EQ(db20(10.0), 20.0);
  EXPECT_DOUBLE_EQ(db10(10.0), 10.0);
  EXPECT_NEAR(from_db20(-3.0), 0.7079457843841379, 1e-12);
}

}  // namespace
}  // namespace ascp
