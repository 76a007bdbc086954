// amplifier.hpp — programmable gain amplifier (PGA).
//
// Paper §3: "programming main components parameters (such as amplifier gains
// and bandwidth …) through the digital part allows a more accurate adaptation
// of the front end circuitry" — gain and bandwidth are register-writable at
// run time (the JTAG config path). The model is a one-pole amplifier with
// offset/drift, input-referred noise and supply-rail saturation.
#pragma once

#include "afe/noise.hpp"
#include "common/rng.hpp"

namespace ascp::afe {

struct AmplifierConfig {
  double gain = 1.0;             ///< nominal gain (programmable)
  double bandwidth_hz = 1e6;     ///< −3 dB bandwidth (programmable)
  double vsat = 2.5;             ///< output saturation rails ±vsat
  double offset_volts = 100e-6;  ///< input-referred offset 1σ mismatch draw
  double offset_drift = 1e-6;    ///< offset tempco [V/°C]
  NoiseSpec noise{10e-9, 100.0}; ///< input-referred: 10 nV/√Hz, 100 Hz corner
  double fs = 1.92e6;            ///< simulation step rate [Hz]
};

/// One-pole PGA evaluated at the analog simulation rate.
class Amplifier {
 public:
  Amplifier(const AmplifierConfig& cfg, ascp::Rng rng);

  /// Advance one analog time step with input vin at ambient temp_c.
  double step(double vin, double temp_c = 25.0);

  /// Register-programmable controls (write path from the digital section).
  void set_gain(double g) { cfg_.gain = g; }
  void set_bandwidth(double bw_hz);
  double gain() const { return cfg_.gain; }
  double bandwidth() const { return cfg_.bandwidth_hz; }

  void reset() { state_ = 0.0; }

  /// The input-referred noise source (one sample per step).
  NoiseSource& noise() { return noise_; }

  void serialize_state(StateArchive& ar) {
    // Gain/bandwidth are register-writable at run time, so they travel with
    // the state even though they look like config.
    ar.value(cfg_.gain);
    ar.value(cfg_.bandwidth_hz);
    ar.value(alpha_);
    ar.value(state_);
    noise_.serialize_state(ar);
  }

 private:
  AmplifierConfig cfg_;
  double offset_;
  double alpha_;
  double state_ = 0.0;
  NoiseSource noise_;
};

}  // namespace ascp::afe
