#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "afe/adc.hpp"
#include "common/fnv1a.hpp"
#include "common/math.hpp"
#include "common/spectrum.hpp"

namespace ascp::afe {
namespace {

AdcConfig quiet_config(int bits = 12) {
  // Noise-free, linear configuration for deterministic transfer tests.
  AdcConfig cfg;
  cfg.bits = bits;
  cfg.noise_density = 0.0;
  cfg.inl_lsb = 0.0;
  cfg.dnl_sigma_lsb = 0.0;
  cfg.offset_drift = 0.0;
  cfg.gain_drift = 0.0;
  return cfg;
}

TEST(SarAdc, LsbMatchesResolution) {
  SarAdc adc(quiet_config(12), ascp::Rng(1));
  EXPECT_DOUBLE_EQ(adc.lsb(), 2.5 / 2048.0);
}

TEST(SarAdc, MidScaleConvertsNearZero) {
  SarAdc adc(quiet_config(), ascp::Rng(1));
  // Residual offset is only the sub-LSB mismatch draw.
  EXPECT_NEAR(adc.convert_volts(0.0), 0.0, adc.lsb());
}

TEST(SarAdc, TransferIsMonotone) {
  // DNL mismatch enabled — monotonicity must still hold (SAR arrays with
  // bounded DNL are monotone by construction in this model).
  AdcConfig cfg = quiet_config();
  cfg.dnl_sigma_lsb = 0.2;
  cfg.inl_lsb = 0.5;
  SarAdc adc(cfg, ascp::Rng(99));
  std::int32_t prev = adc.convert(-2.5);
  for (double v = -2.5; v <= 2.5; v += 0.002) {
    const auto c = adc.convert(v);
    EXPECT_GE(c, prev - 1) << v;  // allow ±1 code chatter from INL steps
    prev = std::max(prev, c);
  }
}

TEST(SarAdc, SaturatesAtRails) {
  SarAdc adc(quiet_config(10), ascp::Rng(1));
  EXPECT_EQ(adc.convert(10.0), 511);
  EXPECT_EQ(adc.convert(-10.0), -512);
}

// A NaN input (a MEMS model driven out of its envelope) must not reach a
// float-to-integer cast: it reads as the bottom code and is counted, with
// the noise stream advanced as for any conversion. ±Inf saturate to the
// rails and are not counted. Run under the sanitizer builds with
// float-cast-overflow.
TEST(SarAdc, NanInputReadsBottomCodeAndIsCounted) {
  AdcConfig cfg;
  cfg.bits = 14;
  SarAdc adc(cfg, ascp::Rng(3)), twin(cfg, ascp::Rng(3));
  EXPECT_EQ(adc.convert(0.1), twin.convert(0.1));
  EXPECT_EQ(adc.convert(std::nan("")), -8192);
  EXPECT_EQ(adc.nonfinite_inputs(), 1u);
  (void)twin.convert(0.3);
  EXPECT_EQ(adc.convert(0.2), twin.convert(0.2)) << "the NaN conversion drew its noise";
  EXPECT_EQ(adc.convert(INFINITY), 8191);
  EXPECT_EQ(adc.convert(-INFINITY), -8192);
  EXPECT_EQ(adc.nonfinite_inputs(), 1u);
  EXPECT_EQ(twin.nonfinite_inputs(), 0u);
}

TEST(SarAdc, GainIsUnityWithinTolerance) {
  SarAdc adc(quiet_config(), ascp::Rng(5));
  std::vector<double> x, y;
  for (double v = -2.0; v <= 2.0; v += 0.05) {
    x.push_back(v);
    y.push_back(adc.convert_volts(v));
  }
  const auto fit = ascp::fit_line(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 2e-3);
}

TEST(SarAdc, NoiseProducesCodeSpread) {
  AdcConfig cfg = quiet_config();
  cfg.noise_density = 5e-6;  // strong noise: several LSB rms
  SarAdc adc(cfg, ascp::Rng(7));
  std::vector<double> codes;
  for (int i = 0; i < 2000; ++i) codes.push_back(static_cast<double>(adc.convert(0.5)));
  EXPECT_GT(ascp::stddev(codes), 0.5);
}

TEST(SarAdc, QuantizationNoiseFloorMatchesTheory) {
  // ENOB check: ideal quantizer SNR for a full-scale sine is 6.02·N+1.76 dB.
  AdcConfig cfg = quiet_config(10);
  cfg.fs = 240e3;
  SarAdc adc(cfg, ascp::Rng(11));
  // Integer number of cycles in the record so the tone fit has no leakage.
  const double fs = 240e3, f0 = 137.0 * fs / (1 << 15);
  const double amp = 2.5 * 0.95;
  std::vector<double> out(1 << 15);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = adc.convert_volts(amp * std::sin(kTwoPi * f0 * i / fs));
  // Remove the static offset draw: offset is a DC error, not noise.
  const double dc = mean(out);
  for (auto& v : out) v -= dc;
  const auto tone = estimate_tone(out, fs, f0);
  double residual_power = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double fit = tone.amplitude * std::cos(kTwoPi * f0 * i / fs + tone.phase);
    residual_power += (out[i] - fit) * (out[i] - fit);
  }
  residual_power /= static_cast<double>(out.size());
  const double snr_db = db10(tone.amplitude * tone.amplitude / 2.0 / residual_power);
  EXPECT_GT(snr_db, 6.02 * 10 + 1.76 - 3.0);
  EXPECT_LT(snr_db, 6.02 * 10 + 1.76 + 3.0);
}

TEST(SarAdc, OffsetDriftsWithTemperature) {
  AdcConfig cfg = quiet_config();
  cfg.offset_drift = 100e-6;  // 100 µV/°C, exaggerated for visibility
  SarAdc adc(cfg, ascp::Rng(13));
  const double cold = adc.convert_volts(0.0, -40.0);
  const double hot = adc.convert_volts(0.0, 125.0);
  EXPECT_NEAR(hot - cold, 100e-6 * 165.0, 3 * adc.lsb());
}

TEST(SarAdc, InlReadbackBounded) {
  AdcConfig cfg = quiet_config();
  cfg.inl_lsb = 0.5;
  cfg.dnl_sigma_lsb = 0.1;
  SarAdc adc(cfg, ascp::Rng(17));
  double worst = 0.0;
  for (std::int32_t c = -2048; c < 2048; c += 16) worst = std::max(worst, std::abs(adc.inl_at(c)));
  EXPECT_GT(worst, 0.01);  // nonlinearity exists...
  EXPECT_LT(worst, 4.0);   // ...but stays within a few LSB
}

TEST(SarAdc, EndpointInlIsZero) {
  AdcConfig cfg = quiet_config();
  cfg.inl_lsb = 1.0;
  SarAdc adc(cfg, ascp::Rng(19));
  EXPECT_NEAR(adc.inl_at(-2048), 0.0, 1e-9);
  EXPECT_NEAR(adc.inl_at(2047), 0.0, 1e-9);
}

TEST(SarAdc, SeedsGiveDifferentMismatch) {
  AdcConfig cfg = quiet_config();
  cfg.inl_lsb = 0.5;
  SarAdc a(cfg, ascp::Rng(1)), b(cfg, ascp::Rng(2));
  bool differ = false;
  for (std::int32_t c = -2000; c < 2000 && !differ; c += 64)
    differ = std::abs(a.inl_at(c) - b.inl_at(c)) > 1e-6;
  EXPECT_TRUE(differ);
}

// FNV-1a of inl_at() over every code of the converter.
std::uint64_t inl_hash(const SarAdc& adc) {
  std::uint64_t h = kFnv1aBasis;
  const std::int32_t half = std::int32_t{1} << (adc.bits() - 1);
  for (std::int32_t c = -half; c < half; ++c) {
    const double v = adc.inl_at(c);
    h = fnv1a_doubles(h, &v, 1);
  }
  return h;
}

// FNV-1a of 4096 output codes over a full-scale ramp.
std::uint64_t ramp_hash(SarAdc& adc) {
  std::uint64_t h = kFnv1aBasis;
  const double vref = adc.config().vref;
  for (int i = 0; i < 4096; ++i) {
    const std::int32_t code = adc.convert(-vref + 2.0 * vref * i / 4096.0);
    std::uint8_t le[4];
    for (int b = 0; b < 4; ++b) le[b] = static_cast<std::uint8_t>(code >> (8 * b));
    h = fnv1a_bytes(h, le, sizeof le);
  }
  return h;
}

TEST(SarAdc, InlTableIsTheSameWhicheverCallDrawsIt) {
  // The INL table is drawn at its first use from the stream the constructor
  // kept, so its values and their order do not depend on which call draws
  // it: both pins hold when the table is read back first and when a
  // conversion draws it.
  constexpr std::uint64_t kInlPin = 11223415905784893790ull;
  constexpr std::uint64_t kRampPin = 15283444182154491313ull;
  AdcConfig cfg;
  cfg.bits = 14;
  SarAdc read_first(cfg, ascp::Rng(29)), convert_first(cfg, ascp::Rng(29));
  EXPECT_EQ(inl_hash(read_first), kInlPin);
  EXPECT_EQ(ramp_hash(read_first), kRampPin);
  EXPECT_EQ(ramp_hash(convert_first), kRampPin);
  EXPECT_EQ(inl_hash(convert_first), kInlPin);
  // The table is filled a 4 KiB page at a time, at each page's first read:
  // pages first read from the top code down, or in a scattered order (an odd
  // stride through all 2^14 codes), hold the same values.
  SarAdc reverse(cfg, ascp::Rng(29)), scattered(cfg, ascp::Rng(29));
  constexpr std::int32_t kHalf = 1 << 13;
  for (std::int32_t c = kHalf - 1; c >= -kHalf; --c) (void)reverse.inl_at(c);
  for (std::int32_t k = 0; k < 2 * kHalf; ++k)
    (void)scattered.inl_at((k * 4099) % (2 * kHalf) - kHalf);
  EXPECT_EQ(inl_hash(reverse), kInlPin);
  EXPECT_EQ(ramp_hash(reverse), kRampPin);
  EXPECT_EQ(inl_hash(scattered), kInlPin);
  EXPECT_EQ(ramp_hash(scattered), kRampPin);
}

// Resolution sweep: programmability knob of the platform (paper §3,
// "number of ADC bits").
class AdcBits : public ::testing::TestWithParam<int> {};

TEST_P(AdcBits, RoundTripErrorBoundedByLsbPlusMismatch) {
  SarAdc adc(quiet_config(GetParam()), ascp::Rng(23));
  for (double v = -2.0; v <= 2.0; v += 0.0137) {
    // Budget: ±1.5 LSB quantization/offset plus the ~1e-4 gain-mismatch draw
    // (which dominates at fine resolutions).
    EXPECT_LE(std::abs(adc.convert_volts(v) - v), adc.lsb() * 1.5 + std::abs(v) * 4e-4) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, AdcBits, ::testing::Values(8, 10, 12, 14, 16));

}  // namespace
}  // namespace ascp::afe
