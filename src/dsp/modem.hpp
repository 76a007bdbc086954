// modem.hpp — coherent modulator / demodulator IPs.
//
// The sense chain (paper §4.1: "a chain including demodulators, filters,
// temperature/offset compensation and modulators for secondary drive and
// rate sensing") detects the Coriolis signal as an amplitude modulation of
// the drive carrier. The demodulator mixes with the PLL's phase-coherent
// carriers and low-passes the products; the modulator re-impresses a
// baseband correction onto the carrier for closed-loop force feedback.
#pragma once

#include "dsp/biquad.hpp"

namespace ascp::dsp {

/// I/Q pair: in-phase (rate) and quadrature (mechanical quadrature error).
struct Iq {
  double i = 0.0;
  double q = 0.0;
};

/// Coherent quadrature demodulator: two mixers and matched 2nd-order
/// low-pass filters. The carrier inputs come from the drive NCO so the
/// detection is phase-locked to the resonator.
class IqDemodulator {
 public:
  /// `fs` sample rate, `bw` post-mixer low-pass corner [Hz].
  IqDemodulator(double fs, double bw);

  /// One sample: signal plus the in-phase/quadrature carrier pair.
  Iq step(double x, double carrier_i, double carrier_q);

  Iq output() const { return out_; }
  void reset();

  void serialize_state(StateArchive& ar) {
    lpf_i_.serialize_state(ar);
    lpf_q_.serialize_state(ar);
    ar.value(out_.i);
    ar.value(out_.q);
  }

 private:
  Biquad lpf_i_;
  Biquad lpf_q_;
  Iq out_;
};

/// Coherent modulator: y = (i · carrier_i + q · carrier_q) · scale.
/// Used for secondary (force-feedback) drive synthesis.
class IqModulator {
 public:
  explicit IqModulator(double scale = 1.0) : scale_(scale) {}

  double step(Iq baseband, double carrier_i, double carrier_q) const {
    return scale_ * (baseband.i * carrier_i + baseband.q * carrier_q);
  }

  void set_scale(double s) { scale_ = s; }
  double scale() const { return scale_; }

 private:
  double scale_;
};

}  // namespace ascp::dsp
