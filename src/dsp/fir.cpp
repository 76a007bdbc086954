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

FirFilterFx::FirFilterFx(std::vector<double> taps, int coeff_bits, int data_bits, int acc_bits,
                         double full_scale)
    : taps_q_(std::move(taps)),
      data_q_(data_bits, full_scale),
      acc_q_(acc_bits, full_scale * 8.0) {
  assert(!taps_q_.empty());
  // Coefficients live in their own registers with unit full-scale (taps of a
  // unity-gain low-pass are < 1 in magnitude; larger taps saturate, which is
  // exactly the failure a designer would catch during exploration).
  const Quantizer cq(coeff_bits, 1.0);
  for (double& t : taps_q_) t = cq.quantize(t);
  delay_.assign(taps_q_.size(), 0.0);
}

double FirFilterFx::process(double x) {
  delay_[head_] = data_q_.quantize(x);
  double acc = 0.0;
  std::size_t idx = head_;
  for (double tap : taps_q_) {
    acc = acc_q_.quantize(acc + tap * delay_[idx]);
    idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
  }
  head_ = (head_ + 1) % delay_.size();
  return data_q_.quantize(acc);
}

void FirFilterFx::reset() {
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

std::vector<double> design_bandpass(std::size_t taps, double f1, double f2, double fs) {
  assert(taps >= 3 && f1 > 0.0 && f2 > f1 && f2 < fs / 2.0);
  std::vector<double> h(taps);
  const auto w = hamming_window(taps);
  const double n1 = f1 / fs, n2 = f2 / fs;
  const double centre = static_cast<double>(taps - 1) / 2.0;
  for (std::size_t n = 0; n < taps; ++n) {
    const double t = static_cast<double>(n) - centre;
    h[n] = (2.0 * n2 * sinc(2.0 * n2 * t) - 2.0 * n1 * sinc(2.0 * n1 * t)) * w[n];
  }
  // Normalize to unity gain at the geometric band centre.
  const double fc = std::sqrt(f1 * f2);
  const double g = fir_magnitude(h, fc, fs);
  if (g > 1e-12)
    for (double& v : h) v /= g;
  return h;
}

std::vector<double> design_highpass(std::size_t taps, double fc, double fs) {
  assert(taps % 2 == 1 && "high-pass needs odd length (type-I)");
  auto h = design_lowpass(taps, fc, fs);
  // Spectral inversion: delta[centre] - h_lp.
  for (double& v : h) v = -v;
  h[(taps - 1) / 2] += 1.0;
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
