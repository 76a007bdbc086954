#include "common/math.hpp"

#include <algorithm>
#include <cassert>

namespace ascp {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

std::vector<double> hann_window(std::size_t n) {
  std::vector<double> w(n, 1.0);
  if (n < 2) return w;
  for (std::size_t i = 0; i < n; ++i)
    w[i] = 0.5 - 0.5 * std::cos(kTwoPi * static_cast<double>(i) / static_cast<double>(n - 1));
  return w;
}

std::vector<double> hamming_window(std::size_t n) {
  std::vector<double> w(n, 1.0);
  if (n < 2) return w;
  for (std::size_t i = 0; i < n; ++i)
    w[i] = 0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) / static_cast<double>(n - 1));
  return w;
}

LineFit fit_line(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size() && x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  LineFit fit;
  const double denom = n * sxx - sx * sx;
  fit.slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  fit.offset = (sy - fit.slope * sx) / n;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.slope * x[i] + fit.offset);
    fit.max_abs_residual = std::max(fit.max_abs_residual, std::abs(r));
    sum_sq += r * r;
  }
  fit.rms_residual = std::sqrt(sum_sq / n);
  return fit;
}

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

double rms(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

double wrap_phase(double phi) {
  phi = std::fmod(phi + kPi, kTwoPi);
  if (phi < 0) phi += kTwoPi;
  const double r = phi - kPi;
  // fmod lands exactly on 0 for odd multiples of pi: map -pi to +pi so the
  // documented range (-pi, pi] holds.
  return r <= -kPi ? kPi : r;
}

}  // namespace ascp
