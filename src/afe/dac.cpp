#include "afe/dac.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace ascp::afe {

Dac::Dac(const DacConfig& cfg, ascp::Rng rng) : cfg_(cfg) {
  assert(cfg_.bits >= 6 && cfg_.bits <= 16);
  const std::int64_t half = std::int64_t{1} << (cfg_.bits - 1);
  code_min_ = static_cast<std::int32_t>(-half);
  code_max_ = static_cast<std::int32_t>(half - 1);
  lsb_ = cfg_.vref / static_cast<double>(half);
  offset_ = rng.gaussian(0.25 * lsb_);
  gain_ = 1.0 + rng.gaussian(1e-4);
  bow_ = rng.uniform(-0.5, 0.5) * lsb_;
}

void Dac::write_code(std::int32_t code) {
  code = std::clamp(code, code_min_, code_max_);
  // Glitch energy proportional to the number of switching MSBs — largest at
  // the mid-scale transition, standard R-2R/binary-array behaviour.
  const std::uint32_t toggled = static_cast<std::uint32_t>(code ^ code_);
  if (toggled != 0) {
    int msb = 31;
    while (msb > 0 && !(toggled & (1u << msb))) --msb;
    glitch_ += cfg_.glitch_volts * static_cast<double>(msb + 1) / static_cast<double>(cfg_.bits) *
               ((code > code_) ? 1.0 : -1.0);
  }
  code_ = code;
  const double x = static_cast<double>(code_) / static_cast<double>(code_max_);  // −1..1
  target_ = gain_ * static_cast<double>(code_) * lsb_ + offset_ + bow_ * (1.0 - x * x);
}

void Dac::write_volts(double v) {
  write_code(static_cast<std::int32_t>(std::nearbyint(v / lsb_)));
}

double Dac::output(double dt, double temp_c) {
  // One-pole settling toward the latched target, plus a decaying glitch.
  if (const auto key = std::bit_cast<std::uint64_t>(dt); key != dt_key_) {
    dt_key_ = key;
    alpha_ = 1.0 - std::exp(-dt / cfg_.settle_tau_s);
    glitch_decay_ = std::exp(-dt / (cfg_.settle_tau_s * 0.25));
  }
  out_ += alpha_ * (target_ - out_);
  const double g = glitch_;
  glitch_ *= glitch_decay_;
  return out_ + g + cfg_.offset_drift * (temp_c - 25.0);
}

}  // namespace ascp::afe
