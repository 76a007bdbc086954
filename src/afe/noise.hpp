// noise.hpp — analog noise processes.
//
// The platform's analog cells each carry a thermal (white) and a flicker
// (1/f) component; the automotive temperature range (−40..+125 °C) makes the
// thermal component temperature-dependent (∝ √T). NoiseSource packages both
// so every AFE model declares its noise with two numbers: a density and a
// corner frequency — the way an analog datasheet specifies it.
//
// The two components come from two independent streams, and neither depends
// on the signal or the temperature: the white part is a standard normal that
// σ and the thermal scale multiply, the flicker part the next sample of a
// FlickerNoise. So a copy of either stream draws the same values ahead of
// it, and each stream has its own read-ahead cursor (white(), flicker())
// through which a run takes them from there (core/noise_crew.hpp).
#pragma once

#include <bit>
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
  double sample(double temp_c = 25.0) {
    if (const auto key = std::bit_cast<std::uint64_t>(temp_c); key != temp_key_)
      rescale(temp_c);
    double n = (sigma_white_ * white_.next()) * thermal_scale_;
    if (has_flicker_) n += flicker_.next();
    return n;
  }

  const NoiseSpec& spec() const { return spec_; }

  /// The white stream: one standard normal per sample.
  ascp::ReadAhead<ascp::Rng>& white() { return white_; }
  /// The flicker stream: one FlickerNoise sample per sample, when
  /// has_flicker(); untouched otherwise.
  ascp::ReadAhead<ascp::FlickerNoise>& flicker() { return flicker_; }
  bool has_flicker() const { return has_flicker_; }

  void serialize_state(StateArchive& ar) {
    white_.gen.serialize_state(ar);
    flicker_.gen.serialize_state(ar);
  }

 private:
  void rescale(double temp_c);

  NoiseSpec spec_;
  double sigma_white_;  ///< white sigma at 25 °C for this fs
  ascp::ReadAhead<ascp::Rng> white_;
  ascp::ReadAhead<ascp::FlickerNoise> flicker_;
  bool has_flicker_;
  // thermal_noise_scale() of the temperature whose bit pattern is
  // temp_key_. Not serialized: the key covers its only input.
  std::uint64_t temp_key_;
  double thermal_scale_;
};

/// Thermal scaling factor √(T/T0) with T in kelvin, T0 = 298.15 K.
double thermal_noise_scale(double temp_c);

}  // namespace ascp::afe
