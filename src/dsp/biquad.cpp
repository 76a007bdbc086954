#include "dsp/biquad.hpp"

#include <cassert>
#include <cmath>
#include <complex>

#include "common/math.hpp"

namespace ascp::dsp {

namespace {
struct RbjIntermediates {
  double w0, cw, sw, alpha;
};

RbjIntermediates rbj(double fc, double q, double fs) {
  assert(fc > 0.0 && fc < fs / 2.0 && q > 0.0);
  RbjIntermediates r{};
  r.w0 = kTwoPi * fc / fs;
  r.cw = std::cos(r.w0);
  r.sw = std::sin(r.w0);
  r.alpha = r.sw / (2.0 * q);
  return r;
}

BiquadCoeffs normalize(double b0, double b1, double b2, double a0, double a1, double a2) {
  return BiquadCoeffs{b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0};
}
}  // namespace

BiquadCoeffs design_biquad_lowpass(double fc, double q, double fs) {
  const auto r = rbj(fc, q, fs);
  return normalize((1 - r.cw) / 2, 1 - r.cw, (1 - r.cw) / 2, 1 + r.alpha, -2 * r.cw, 1 - r.alpha);
}

BiquadCoeffs design_biquad_highpass(double fc, double q, double fs) {
  const auto r = rbj(fc, q, fs);
  return normalize((1 + r.cw) / 2, -(1 + r.cw), (1 + r.cw) / 2, 1 + r.alpha, -2 * r.cw,
                   1 - r.alpha);
}

BiquadCoeffs design_biquad_bandpass(double fc, double q, double fs) {
  const auto r = rbj(fc, q, fs);
  // Constant 0 dB peak gain variant.
  return normalize(r.alpha, 0.0, -r.alpha, 1 + r.alpha, -2 * r.cw, 1 - r.alpha);
}

BiquadCoeffs design_biquad_notch(double fc, double q, double fs) {
  const auto r = rbj(fc, q, fs);
  return normalize(1.0, -2 * r.cw, 1.0, 1 + r.alpha, -2 * r.cw, 1 - r.alpha);
}

BiquadCascade::BiquadCascade(std::vector<BiquadCoeffs> sections) {
  sections_.reserve(sections.size());
  for (const auto& c : sections) sections_.emplace_back(c);
}

double BiquadCascade::process(double x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

BiquadCascade design_butterworth_lowpass(int order, double fc, double fs) {
  assert(order >= 2 && order % 2 == 0);
  BiquadCascade cascade;
  const int pairs = order / 2;
  for (int k = 0; k < pairs; ++k) {
    // Pole-pair Q for Butterworth: 1 / (2 sin((2k+1) pi / (2 order))).
    const double q = 1.0 / (2.0 * std::sin((2.0 * k + 1.0) * kPi / (2.0 * order)));
    cascade.append(design_biquad_lowpass(fc, q, fs));
  }
  return cascade;
}

double biquad_magnitude(const BiquadCoeffs& c, double f, double fs) {
  const double w = kTwoPi * f / fs;
  const std::complex<double> z1(std::cos(w), -std::sin(w));
  const std::complex<double> z2 = z1 * z1;
  const std::complex<double> num = c.b0 + c.b1 * z1 + c.b2 * z2;
  const std::complex<double> den = 1.0 + c.a1 * z1 + c.a2 * z2;
  return std::abs(num / den);
}

}  // namespace ascp::dsp
