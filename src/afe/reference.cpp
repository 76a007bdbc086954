#include "afe/reference.hpp"

namespace ascp::afe {

TempSensor::TempSensor(double gain_error_pct, double offset_c, ascp::Rng rng)
    : gain_(1.0 + rng.gaussian(gain_error_pct / 100.0)), offset_(rng.gaussian(offset_c)), rng_(rng) {}

double TempSensor::read(double true_temp_c) {
  // PTAT slope error is relative to absolute zero, not 0 °C.
  const double kelvin = true_temp_c + 273.15;
  return gain_ * kelvin - 273.15 + offset_ + rng_.gaussian(0.05);
}

}  // namespace ascp::afe
