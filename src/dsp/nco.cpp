#include "dsp/nco.hpp"

#include <cassert>
#include <cmath>

#include "common/math.hpp"

namespace ascp::dsp {

namespace {
/// Shared quarter-symmetric sine table, built once. A hardware DDS stores a
/// quarter wave; here we store the full wave for clarity — behaviourally
/// identical, and the table is shared by every NCO instance.
const std::array<double, 1 << 10>& sine_table() {
  static const auto table = [] {
    std::array<double, 1 << 10> t{};
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = std::sin(kTwoPi * static_cast<double>(i) / static_cast<double>(t.size()));
    return t;
  }();
  return table;
}
}  // namespace

Nco::Nco(double fs, double f0) : fs_(fs) {
  assert(fs > 0.0);
  set_frequency(f0);
}

double Nco::lut_lookup(std::uint32_t acc) const {
  const auto& lut = sine_table();
  // Top kLutBits address the table; the residual phase linearly interpolates
  // between entries (matching a DDS with phase dithering / interpolation).
  const std::uint32_t idx = acc >> (32 - kLutBits);
  const double frac =
      static_cast<double>(acc & ((1u << (32 - kLutBits)) - 1)) / static_cast<double>(1u << (32 - kLutBits));
  const double a = lut[idx];
  const double b = lut[(idx + 1) & (kLutSize - 1)];
  return a + frac * (b - a);
}

double Nco::step() {
  acc_ += fcw_;
  sin_ = lut_lookup(acc_);
  cos_ = lut_lookup(acc_ + (1u << 30));  // +90 degrees
  return sin_;
}

double Nco::frequency() const {
  return static_cast<double>(fcw_) * fs_ / 4294967296.0;
}

void Nco::set_frequency(double f) {
  if (f < 0.0) f = 0.0;
  const double nyquist = fs_ * 0.5;
  if (f >= nyquist) f = nyquist * (1.0 - 1e-9);
  fcw_ = static_cast<std::uint32_t>(f / fs_ * 4294967296.0);
}

double Nco::phase() const {
  return static_cast<double>(acc_) / 4294967296.0 * kTwoPi;
}

double Nco::resolution() const { return fs_ / 4294967296.0; }

void Nco::advance_phase(double radians) {
  const double turns = radians / kTwoPi;
  acc_ += static_cast<std::uint32_t>(
      static_cast<std::int64_t>(turns * 4294967296.0));
}

}  // namespace ascp::dsp
