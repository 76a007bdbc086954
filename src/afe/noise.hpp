// noise.hpp — analog noise processes.
//
// The platform's analog cells each carry a thermal (white) and a flicker
// (1/f) component; the automotive temperature range (−40..+125 °C) makes the
// thermal component temperature-dependent (∝ √T). NoiseSource packages both
// so every AFE model declares its noise with two numbers: a density and a
// corner frequency — the way an analog datasheet specifies it.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace ascp::afe {

struct NoiseSpec {
  /// White-noise density [units/√Hz] referenced at 25 °C.
  double white_density = 0.0;
  /// 1/f corner frequency [Hz]; 0 disables the flicker component.
  double flicker_corner_hz = 0.0;
};

/// Sampled noise process at a fixed simulation rate.
class NoiseSource {
 public:
  /// `fs` sample rate the process is evaluated at [Hz].
  NoiseSource(const NoiseSpec& spec, double fs, ascp::Rng rng);

  /// One sample of noise at ambient temperature `temp_c`. The thermal
  /// scale is recomputed only when the temperature changes.
  double sample(double temp_c = 25.0);

  const NoiseSpec& spec() const { return spec_; }

  void serialize_state(StateArchive& ar) {
    rng_.serialize_state(ar);
    flicker_.serialize_state(ar);
  }

 private:
  NoiseSpec spec_;
  double sigma_white_;  ///< white sigma at 25 °C for this fs
  ascp::Rng rng_;
  ascp::FlickerNoise flicker_;
  bool has_flicker_;
  // thermal_noise_scale() of the temperature whose bit pattern is
  // temp_key_. Not serialized: the key covers its only input.
  std::uint64_t temp_key_;
  double thermal_scale_;
};

/// Thermal scaling factor √(T/T0) with T in kelvin, T0 = 298.15 K.
double thermal_noise_scale(double temp_c);

}  // namespace ascp::afe
