// charge_amp.hpp — capacitance-to-voltage converter for capacitive pickoff.
//
// The vibrating-ring gyro is read out capacitively (paper §4.1: the
// secondary vibration "can be capacitively detected through the sense
// electrodes"). A charge amplifier converts the time-varying sense
// capacitance (biased at Vbias) into a voltage: Vout ≈ −Vbias · ΔC / Cf.
// Modelled with feedback-capacitor gain, a high-pass corner from the DC
// servo (bias resistor), bandwidth limit and kTC-style noise.
#pragma once

#include "afe/noise.hpp"
#include "common/rng.hpp"

namespace ascp::afe {

struct ChargeAmpConfig {
  double c_feedback_farads = 1e-12;  ///< feedback capacitor Cf
  double v_bias = 5.0;               ///< electrode bias voltage [V]
  double hp_corner_hz = 100.0;       ///< DC-servo high-pass corner
  double bandwidth_hz = 500e3;       ///< closed-loop bandwidth
  double vsat = 2.5;                 ///< output rails
  NoiseSpec noise{20e-9, 200.0};     ///< output-referred noise
  double fs = 1.92e6;                ///< simulation step rate [Hz]
};

/// Converts a differential capacitance deviation ΔC [F] into volts.
class ChargeAmp {
 public:
  ChargeAmp(const ChargeAmpConfig& cfg, ascp::Rng rng);

  /// One analog step with instantaneous capacitance deviation dc_farads.
  double step(double dc_farads, double temp_c = 25.0);

  /// Conversion gain [V/F].
  double gain() const { return cfg_.v_bias / cfg_.c_feedback_farads; }

  /// Fault injection: input bond wire open — the amplifier sees no charge
  /// and its output servos to the baseline (plus noise).
  void inject_open_wire(bool open) { open_wire_ = open; }

  void reset();

  /// The output noise source (one sample per step).
  NoiseSource& noise() { return noise_; }

  void serialize_state(StateArchive& ar) {
    ar.value(lp_state_);
    ar.value(hp_state_);
    noise_.serialize_state(ar);
    ar.value(open_wire_);
  }

 private:
  ChargeAmpConfig cfg_;
  double lp_alpha_;
  double hp_alpha_;
  double lp_state_ = 0.0;
  double hp_state_ = 0.0;
  NoiseSource noise_;
  bool open_wire_ = false;
};

}  // namespace ascp::afe
