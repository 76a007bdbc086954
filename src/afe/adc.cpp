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
  ncodes_ = static_cast<std::size_t>(2 * half);
  lsb_ = cfg_.vref / static_cast<double>(half);

  // Die-specific static errors: offset and gain mismatch draws.
  offset_ = cfg_.offset_volts + rng.gaussian(0.25 * lsb_);
  gain_ = (1.0 + cfg_.gain_error) * (1.0 + rng.gaussian(1e-4));

  inl_rng_ = rng;
}

// INL: smooth bowing (2nd/3rd order) plus integrated per-code DNL noise —
// the signature of a binary-weighted SAR capacitor array — with the endpoint
// line removed so INL is endpoint-referenced.
double SarAdc::inl_raw(std::size_t i, double walk) const {
  // x in −1..1 over the codes.
  const double x = 2.0 * static_cast<double>(i) / static_cast<double>(ncodes_ - 1) - 1.0;
  return bow2_ * (1.0 - x * x) + bow3_ * x * (1.0 - x * x) + walk;
}

void SarAdc::survey_inl() const {
  ascp::Rng rng = inl_rng_;
  bow2_ = rng.uniform(-1.0, 1.0) * cfg_.inl_lsb;
  bow3_ = rng.uniform(-1.0, 1.0) * cfg_.inl_lsb * 0.5;
  dnl_step_ = cfg_.dnl_sigma_lsb / std::sqrt(static_cast<double>(ncodes_));
  std::vector<InlPage> pages((ncodes_ + kInlPage - 1) / kInlPage);
  double walk = 0.0;
  for (std::size_t i = 0; i < ncodes_; ++i) {
    if (i % kInlPage == 0) pages[i / kInlPage] = {rng, walk, {}};
    walk += rng.gaussian(dnl_step_);
    if (i == 0) inl_first_ = inl_raw(0, walk);
  }
  inl_last_ = inl_raw(ncodes_ - 1, walk);
  inl_pages_ = std::move(pages);
}

void SarAdc::fill_inl_page(std::size_t p) const {
  InlPage& page = inl_pages_[p];
  ascp::Rng rng = page.rng;
  double walk = page.walk;
  const std::size_t first = p * kInlPage, end = std::min(ncodes_, first + kInlPage);
  page.values.resize(end - first);
  for (std::size_t i = first; i < end; ++i) {
    walk += rng.gaussian(dnl_step_);
    const double t = static_cast<double>(i) / static_cast<double>(ncodes_ - 1);
    page.values[i - first] = inl_raw(i, walk) - (inl_first_ + t * (inl_last_ - inl_first_));
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
  const double idx = std::clamp(code_f - static_cast<double>(code_min_), 0.0,
                                static_cast<double>(ncodes_ - 1));
  code_f += inl(static_cast<std::size_t>(idx));

  const double rounded = std::nearbyint(code_f);
  return static_cast<std::int32_t>(
      std::clamp(rounded, static_cast<double>(code_min_), static_cast<double>(code_max_)));
}

double SarAdc::convert_volts(double vin, double temp_c) {
  return static_cast<double>(convert(vin, temp_c)) * lsb_;
}

double SarAdc::inl_at(std::int32_t code) const {
  const std::int64_t idx = static_cast<std::int64_t>(code) - code_min_;
  if (idx < 0 || idx >= static_cast<std::int64_t>(ncodes_)) return 0.0;
  return inl(static_cast<std::size_t>(idx));
}

}  // namespace ascp::afe
