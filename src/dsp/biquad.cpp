#include "dsp/biquad.hpp"

#include <cassert>
#include <cmath>
#include <complex>

#include "common/math.hpp"

namespace ascp::dsp {

BiquadCoeffs design_biquad_lowpass(double fc, double q, double fs) {
  assert(fc > 0.0 && fc < fs / 2.0 && q > 0.0);
  const double w0 = kTwoPi * fc / fs;
  const double cw = std::cos(w0);
  const double alpha = std::sin(w0) / (2.0 * q);
  const double a0 = 1 + alpha;
  return BiquadCoeffs{(1 - cw) / 2 / a0, (1 - cw) / a0, (1 - cw) / 2 / a0, -2 * cw / a0,
                      (1 - alpha) / a0};
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
