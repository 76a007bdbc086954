#include "dsp/fir.hpp"

#include <cassert>
#include <cmath>
#include <complex>

#include "common/math.hpp"

namespace ascp::dsp {

FirFilter::FirFilter(std::vector<double> taps) : taps_(std::move(taps)) {
  assert(!taps_.empty());
  delay_.assign(taps_.size(), 0.0);
}

double FirFilter::process(double x) {
  delay_[head_] = x;
  double acc = 0.0;
  std::size_t idx = head_;
  for (double tap : taps_) {
    acc += tap * delay_[idx];
    idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
  }
  head_ = (head_ + 1) % delay_.size();
  return acc;
}

void FirFilter::reset() {
  std::fill(delay_.begin(), delay_.end(), 0.0);
  head_ = 0;
}

std::vector<double> design_lowpass(std::size_t taps, double fc, double fs) {
  assert(taps >= 3 && fc > 0.0 && fc < fs / 2.0);
  std::vector<double> h(taps);
  const auto w = hamming_window(taps);
  const double norm_fc = fc / fs;  // cycles per sample
  const double centre = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t n = 0; n < taps; ++n) {
    const double t = static_cast<double>(n) - centre;
    h[n] = 2.0 * norm_fc * sinc(2.0 * norm_fc * t) * w[n];
    sum += h[n];
  }
  // Normalize to exactly unity DC gain — the chain's scale calibration
  // assumes low-pass stages are transparent at DC.
  for (double& v : h) v /= sum;
  return h;
}

double fir_magnitude(std::span<const double> taps, double f, double fs) {
  const double w = kTwoPi * f / fs;
  std::complex<double> acc(0.0, 0.0);
  for (std::size_t n = 0; n < taps.size(); ++n)
    acc += taps[n] * std::complex<double>(std::cos(w * static_cast<double>(n)),
                                          -std::sin(w * static_cast<double>(n)));
  return std::abs(acc);
}

}  // namespace ascp::dsp
