// noise.hpp — analog noise processes.
//
// The platform's analog cells each carry a thermal (white) and a flicker
// (1/f) component; the automotive temperature range (−40..+125 °C) makes the
// thermal component temperature-dependent (∝ √T). NoiseSource packages both
// so every AFE model declares its noise with two numbers: a density and a
// corner frequency — the way an analog datasheet specifies it.
//
// The deviates never depend on the signal or the temperature: the thermal
// scale multiplies a white deviate drawn at 25 °C. So a copy of a source's
// Stream draws the same deviates ahead of it, and read_ahead() lets the
// source take them from there (core/noise_crew.hpp) instead of drawing.
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

/// One sample's deviates: the white part at 25 °C, which the thermal scale
/// multiplies, and the flicker part (0 without a flicker component).
struct NoiseDraw {
  double white = 0.0;
  double flicker = 0.0;
};

/// Sampled noise process at a fixed simulation rate.
class NoiseSource {
 public:
  /// The state a NoiseSource draws from, and its one draw routine: a copy
  /// draws exactly the deviates the source itself would.
  class Stream {
   public:
    Stream(const NoiseSpec& spec, double fs, ascp::Rng rng);

    /// The next sample's deviates.
    NoiseDraw draw() { return {rng_.gaussian(sigma_white_), has_flicker_ ? flicker_.next() : 0.0}; }

    bool has_flicker() const { return has_flicker_; }

    void serialize_state(StateArchive& ar) {
      rng_.serialize_state(ar);
      flicker_.serialize_state(ar);
    }

   private:
    double sigma_white_;  ///< white sigma at 25 °C for this fs
    ascp::Rng rng_;
    ascp::FlickerNoise flicker_;
    bool has_flicker_;
  };

  /// `fs` sample rate the process is evaluated at [Hz].
  NoiseSource(const NoiseSpec& spec, double fs, ascp::Rng rng);

  /// One sample of noise at ambient temperature `temp_c`. The thermal
  /// scale is recomputed only when the temperature changes.
  double sample(double temp_c = 25.0) {
    if (const auto key = std::bit_cast<std::uint64_t>(temp_c); key != temp_key_)
      rescale(temp_c);
    const NoiseDraw d = ahead_ ? *ahead_++ : stream_.draw();
    double n = d.white * thermal_scale_;
    if (stream_.has_flicker()) n += d.flicker;
    return n;
  }

  const NoiseSpec& spec() const { return spec_; }

  /// The live stream. While a run reads ahead it is the stream as the run
  /// began; the run writes it back at its end.
  Stream& stream() { return stream_; }

  /// Take the next samples' deviates from `next` onward, one per sample,
  /// instead of drawing them; null draws again. The caller keeps `next`
  /// valid and writes the stream state those deviates leave back.
  void read_ahead(const NoiseDraw* next) { ahead_ = next; }
  /// Where the next sample's deviates come from (null: drawn).
  const NoiseDraw* ahead() const { return ahead_; }

  void serialize_state(StateArchive& ar) { stream_.serialize_state(ar); }

 private:
  void rescale(double temp_c);

  NoiseSpec spec_;
  Stream stream_;
  const NoiseDraw* ahead_ = nullptr;
  // thermal_noise_scale() of the temperature whose bit pattern is
  // temp_key_. Not serialized: the key covers its only input.
  std::uint64_t temp_key_;
  double thermal_scale_;
};

/// Thermal scaling factor √(T/T0) with T in kelvin, T0 = 298.15 K.
double thermal_noise_scale(double temp_c);

}  // namespace ascp::afe
