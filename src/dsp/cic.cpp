#include "dsp/cic.hpp"

#include <cassert>
#include <cmath>

#include "common/math.hpp"

namespace ascp::dsp {

CicDecimator::CicDecimator(int stages, int ratio, int input_bits, double full_scale)
    : stages_(stages), ratio_(ratio) {
  assert(stages >= 1 && stages <= 6);
  assert(ratio >= 1);
  assert(input_bits >= 2 && input_bits <= 24);
  // Input LSB: full_scale over 2^(bits-1). Accumulators grow by
  // N log2(R) bits — with int64 this never overflows for our dimensions
  // (24 input bits + 6*log2(4096) = 96... so constrain: we assert below).
  lsb_ = full_scale / static_cast<double>(std::int64_t{1} << (input_bits - 1));
  [[maybe_unused]] const double growth_bits = stages * std::log2(static_cast<double>(ratio));
  assert(input_bits + growth_bits < 62.0 && "CIC accumulator would overflow int64");
  inv_gain_ = 1.0 / raw_gain();
  integ_.assign(static_cast<std::size_t>(stages), 0);
  comb_.assign(static_cast<std::size_t>(stages), 0);
}

std::optional<double> CicDecimator::push(double x) {
  // Quantize input onto the integer grid; integrators wrap modulo 2^64,
  // which is exact for CIC because the comb differences cancel overflow.
  auto v = static_cast<std::int64_t>(std::llround(x / lsb_));
  for (auto& acc : integ_) {
    acc = static_cast<std::int64_t>(static_cast<std::uint64_t>(acc) + static_cast<std::uint64_t>(v));
    v = acc;
  }
  if (++phase_ < ratio_) return std::nullopt;
  phase_ = 0;
  // Comb section at the low rate.
  std::int64_t y = integ_.back();
  for (auto& prev : comb_) {
    const std::int64_t d =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(y) - static_cast<std::uint64_t>(prev));
    prev = y;
    y = d;
  }
  return static_cast<double>(y) * lsb_ * inv_gain_;
}

double CicDecimator::raw_gain() const {
  double g = 1.0;
  for (int i = 0; i < stages_; ++i) g *= static_cast<double>(ratio_);
  return g;
}

double CicDecimator::magnitude(double f, double fs) const {
  if (f <= 0.0) return 1.0;
  const double num = std::sin(kPi * f * ratio_ / fs);
  const double den = ratio_ * std::sin(kPi * f / fs);
  if (std::abs(den) < 1e-15) return 1.0;
  return std::pow(std::abs(num / den), stages_);
}

void CicDecimator::reset() {
  std::fill(integ_.begin(), integ_.end(), 0);
  std::fill(comb_.begin(), comb_.end(), 0);
  phase_ = 0;
}

}  // namespace ascp::dsp
