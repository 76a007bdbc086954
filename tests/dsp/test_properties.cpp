// Randomized DSP kernel properties: the inputs and designs are drawn from a
// seeded Rng so each run sweeps a different corner of the legal space
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "dsp/biquad.hpp"
#include "dsp/cic.hpp"

namespace ascp::dsp {
namespace {

constexpr double kFs = 240e3;

TEST(DspProperties, RandomLegalBiquadDesignsAreStable) {
  // Every RBJ low-pass over the legal (fc, Q) space must sit inside the
  // stability triangle |a2| < 1, |a1| < 1 + a2, and produce bounded output
  // for bounded input.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 0x51AB);
    const double fc = rng.uniform(20.0, 0.45 * kFs);
    const double q = rng.uniform(0.35, 12.0);
    const BiquadCoeffs c = design_biquad_lowpass(fc, q, kFs);
    ASSERT_LT(std::abs(c.a2), 1.0) << "seed " << seed << " fc=" << fc << " q=" << q;
    ASSERT_LT(std::abs(c.a1), 1.0 + c.a2) << "seed " << seed << " fc=" << fc << " q=" << q;

    Biquad f(c);
    double peak = 0.0;
    for (int k = 0; k < 5000; ++k)
      peak = std::max(peak, std::abs(f.process(rng.uniform(-1.0, 1.0))));
    // Worst-case resonant gain at Q=12 stays well under this; instability
    // would blow through it within a few thousand samples.
    ASSERT_LT(peak, 100.0) << "seed " << seed << " fc=" << fc << " q=" << q;
  }
}

TEST(DspProperties, CicOutputBoundedByInputExtremes) {
  // The CIC impulse response is a nonnegative boxcar cascade normalized to
  // unit DC gain, so outputs are convex combinations of inputs (up to the
  // input quantizer's LSB): min x − lsb ≤ y ≤ max x + lsb.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 0xCCC);
    const int stages = 1 + static_cast<int>(rng.next_u64() % 4);
    const int ratio = 1 << (3 + rng.next_u64() % 5);
    const double fs_v = 2.5;
    CicDecimator cic(stages, ratio, 16, fs_v);
    const double lsb = 2.0 * fs_v / 65536.0;
    const double amp = rng.uniform(0.2, fs_v);
    for (int k = 0; k < ratio * 40; ++k) {
      if (const auto y = cic.push(rng.uniform(-amp, amp))) {
        ASSERT_LE(std::abs(*y), amp + lsb) << "seed " << seed << " k=" << k;
      }
    }
  }
}

TEST(DspProperties, CicDcGainIsExactlyNormalized) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 0xDC);
    const int stages = 1 + static_cast<int>(rng.next_u64() % 4);
    const int ratio = 1 << (3 + rng.next_u64() % 5);
    CicDecimator cic(stages, ratio, 16, 2.5);
    const double dc = rng.uniform(-2.0, 2.0);
    double last = 0.0;
    for (int k = 0; k < ratio * (stages + 4); ++k)
      if (const auto y = cic.push(dc)) last = *y;
    // After the N-stage pipeline fills, a DC input must come out at the
    // input value to within the 16-bit input quantizer's LSB.
    EXPECT_NEAR(last, dc, 2.0 * 2.5 / 65536.0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ascp::dsp
