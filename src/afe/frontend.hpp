// frontend.hpp — composable analog acquisition channel.
//
// One AFE channel = PGA → anti-aliasing filter → SAR ADC, evaluated at the
// analog simulation rate and sampled down to the DSP rate. This is the
// "essential circuitry" of the paper's analog section (§3: "the analog
// front-end only consists of ADCs, DACs, amplifiers and voltage/current
// sources"); everything else lives in the digital domain. All channel
// parameters are register-programmable (the platform customization knobs).
#pragma once

#include <optional>

#include "afe/adc.hpp"
#include "afe/amplifier.hpp"
#include "common/rng.hpp"

namespace ascp::afe {

struct FrontendConfig {
  AmplifierConfig amp{};
  AdcConfig adc{};
  double analog_fs = 1.92e6;  ///< analog evaluation rate [Hz]
  int decimation = 8;         ///< analog steps per ADC sample (fs_adc = analog_fs/decimation)
  double aa_corner_hz = 60e3; ///< anti-aliasing one-pole corner
};

/// Acquisition channel: feed analog samples at analog_fs; an ADC code (in
/// volts) pops out every `decimation` steps.
class AcquisitionChannel {
 public:
  AcquisitionChannel(const FrontendConfig& cfg, ascp::Rng rng);

  /// One analog step; returns the converted sample when the ADC fires.
  std::optional<double> step(double vin, double temp_c = 25.0);

  Amplifier& amplifier() { return amp_; }
  SarAdc& adc() { return adc_; }
  const FrontendConfig& config() const { return cfg_; }

  /// ADC sample rate [Hz].
  double sample_rate() const { return cfg_.analog_fs / cfg_.decimation; }
  /// Analog steps since the last conversion, in [0, decimation): the next
  /// conversion pops out decimation − phase() steps from now.
  int phase() const { return phase_; }

  void reset();

  void serialize_state(StateArchive& ar) {
    amp_.serialize_state(ar);
    adc_.serialize_state(ar);
    ar.value(aa_state_);
    std::int32_t p = phase_;
    ar.value(p);
    if (p < 0 || p >= cfg_.decimation) throw StateError("checkpoint SAR phase out of range");
    phase_ = p;
  }

 private:
  FrontendConfig cfg_;
  Amplifier amp_;
  SarAdc adc_;
  double aa_alpha_;
  double aa_state_ = 0.0;
  int phase_ = 0;
};

}  // namespace ascp::afe
