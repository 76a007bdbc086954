#include "afe/noise.hpp"

#include <bit>
#include <cmath>

namespace ascp::afe {

double thermal_noise_scale(double temp_c) {
  const double t_kelvin = temp_c + 273.15;
  return std::sqrt(t_kelvin / 298.15);
}

NoiseSource::Stream::Stream(const NoiseSpec& spec, double fs, ascp::Rng rng)
    : // Sampled white noise of density d [units/√Hz] has per-sample sigma
      // d·√(fs/2) (one-sided bandwidth fs/2).
      sigma_white_(spec.white_density * std::sqrt(fs / 2.0)),
      rng_(rng),
      // Flicker RMS chosen so its density crosses the white density at the
      // corner frequency (standard corner definition). The Voss-bank RMS over
      // fs/2 bandwidth ≈ white sigma scaled by √(corner · ln(fs/2) / fs·2)…
      // we use the simpler calibrated form: corner density matching.
      flicker_([&] {
        const double corner = spec.flicker_corner_hz;
        if (corner <= 0.0) return ascp::FlickerNoise(rng_.fork(1), 0.0);
        // Total 1/f power between f_lo and fs/2 with density d²·fc/f:
        // P = d²·fc·ln((fs/2)/f_lo); take f_lo = fs/2^20 (sim-length floor).
        const double f_hi = fs / 2.0;
        const double f_lo = f_hi / 1048576.0;
        const double power =
            spec.white_density * spec.white_density * corner * std::log(f_hi / f_lo);
        return ascp::FlickerNoise(rng_.fork(1), std::sqrt(power), 20);
      }()),
      has_flicker_(spec.flicker_corner_hz > 0.0) {}

NoiseSource::NoiseSource(const NoiseSpec& spec, double fs, ascp::Rng rng)
    : spec_(spec),
      stream_(spec, fs, rng),
      temp_key_(std::bit_cast<std::uint64_t>(25.0)),
      thermal_scale_(thermal_noise_scale(25.0)) {}

void NoiseSource::rescale(double temp_c) {
  temp_key_ = std::bit_cast<std::uint64_t>(temp_c);
  thermal_scale_ = thermal_noise_scale(temp_c);
}

}  // namespace ascp::afe
