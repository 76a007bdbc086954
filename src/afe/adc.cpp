#include "afe/adc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math.hpp"

namespace ascp::afe {

SarAdc::SarAdc(const AdcConfig& cfg, ascp::Rng rng)
    : cfg_(cfg), noise_(NoiseSpec{cfg.noise_density, 0.0}, cfg.fs, rng.fork(7)) {
  assert(cfg_.bits >= 6 && cfg_.bits <= 16);
  const std::int64_t half = std::int64_t{1} << (cfg_.bits - 1);
  code_min_ = static_cast<std::int32_t>(-half);
  code_max_ = static_cast<std::int32_t>(half - 1);
  lsb_ = cfg_.vref / static_cast<double>(half);

  // Die-specific static errors: offset and gain mismatch draws.
  offset_ = cfg_.offset_volts + rng.gaussian(0.25 * lsb_);
  gain_ = (1.0 + cfg_.gain_error) * (1.0 + rng.gaussian(1e-4));

  inl_rng_ = rng;
}

const std::vector<double>& SarAdc::inl() const {
  if (inl_.empty()) [[unlikely]] draw_inl();
  return inl_;
}

void SarAdc::draw_inl() const {
  // INL: smooth bowing (2nd/3rd order) plus integrated per-code DNL noise —
  // the signature of a binary-weighted SAR capacitor array.
  ascp::Rng rng = inl_rng_;
  const std::size_t ncodes = static_cast<std::size_t>(code_max_ - code_min_ + 1);
  inl_.resize(ncodes);
  const double bow2 = rng.uniform(-1.0, 1.0) * cfg_.inl_lsb;
  const double bow3 = rng.uniform(-1.0, 1.0) * cfg_.inl_lsb * 0.5;
  double walk = 0.0;
  const double dnl_step = cfg_.dnl_sigma_lsb / std::sqrt(static_cast<double>(ncodes));
  for (std::size_t i = 0; i < ncodes; ++i) {
    const double x = 2.0 * static_cast<double>(i) / static_cast<double>(ncodes - 1) - 1.0;  // −1..1
    walk += rng.gaussian(dnl_step);
    inl_[i] = bow2 * (1.0 - x * x) + bow3 * x * (1.0 - x * x) + walk;
  }
  // Remove endpoint line so INL is endpoint-referenced.
  const double i0 = inl_.front(), i1 = inl_.back();
  for (std::size_t i = 0; i < ncodes; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(ncodes - 1);
    inl_[i] -= i0 + t * (i1 - i0);
  }
}

std::int32_t SarAdc::convert(double vin, double temp_c) {
  if (stuck_) return stuck_code_;

  const double dt = temp_c - 25.0;
  double v = vin + offset_ + cfg_.offset_drift * dt;
  v *= gain_ * (1.0 + cfg_.gain_drift * dt);
  v += noise_.sample(temp_c);

  // Ideal quantization first, then displace by the local INL. A shifted
  // reference scales the real LSB; the digital side keeps the nominal one.
  double code_f = v / (lsb_ * (1.0 + ref_shift_));
  // A real comparator never emits NaN: a NaN input (a model driven out of
  // its envelope) reads as the bottom code, counted. ±Inf saturate below.
  if (std::isnan(code_f)) {
    ++nonfinite_inputs_;
    return code_min_;
  }
  const std::vector<double>& inl = this->inl();
  const double idx = std::clamp(code_f - static_cast<double>(code_min_), 0.0,
                                static_cast<double>(inl.size() - 1));
  code_f += inl[static_cast<std::size_t>(idx)];

  const double rounded = std::nearbyint(code_f);
  return static_cast<std::int32_t>(
      std::clamp(rounded, static_cast<double>(code_min_), static_cast<double>(code_max_)));
}

double SarAdc::convert_volts(double vin, double temp_c) {
  return static_cast<double>(convert(vin, temp_c)) * lsb_;
}

double SarAdc::inl_at(std::int32_t code) const {
  const std::int64_t idx = static_cast<std::int64_t>(code) - code_min_;
  const std::vector<double>& inl = this->inl();
  if (idx < 0 || idx >= static_cast<std::int64_t>(inl.size())) return 0.0;
  return inl[static_cast<std::size_t>(idx)];
}

}  // namespace ascp::afe
