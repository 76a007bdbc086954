// nco.hpp — numerically controlled oscillator (phase accumulator + sine LUT).
//
// The NCO is the heart of the drive loop: the PLL steers its frequency word
// so the generated carrier tracks the MEMS resonance, and the demodulators
// reuse its phase for coherent detection. Modelled as the standard hardware
// structure — a W-bit phase accumulator addressing a quarter-wave sine table.
#pragma once

#include <array>
#include <cstdint>

#include "common/state_archive.hpp"

namespace ascp::dsp {

/// Phase-accumulator NCO with a 1024-entry sine lookup table and 32-bit
/// phase accumulator (the dimensioning typical of a small hardwired DDS IP).
class Nco {
 public:
  /// `fs` DSP sample rate [Hz], `f0` initial output frequency [Hz].
  Nco(double fs, double f0);

  /// Advance one sample; returns sin(phase). Call cos()/sin_out() afterwards
  /// for the quadrature pair belonging to the same sample.
  double step();

  /// Outputs of the current sample (valid after step()).
  double sine() const { return sin_; }
  double cosine() const { return cos_; }

  /// Current frequency [Hz].
  double frequency() const;

  /// Retune; frequency clamps to [0, fs/2).
  void set_frequency(double f);

  /// Frequency adjustment in Hz (the PLL loop-filter output path).
  void adjust_frequency(double df) { set_frequency(frequency() + df); }

  /// Current phase in radians [0, 2pi).
  double phase() const;

  void reset_phase() { acc_ = 0; }

  /// Fault injection: instantaneous phase jump [radians] — an SEU in the
  /// phase-accumulator flops. The PLL must re-acquire from the new phase.
  void advance_phase(double radians);

  /// Tuning resolution [Hz]: fs / 2^32.
  double resolution() const;

  void serialize_state(StateArchive& ar) {
    ar.value(acc_);
    ar.value(fcw_);
    ar.value(sin_);
    ar.value(cos_);
  }

 private:
  static constexpr int kLutBits = 10;
  static constexpr std::size_t kLutSize = std::size_t{1} << kLutBits;

  double lut_lookup(std::uint32_t acc) const;

  double fs_;
  std::uint32_t acc_ = 0;
  std::uint32_t fcw_ = 0;  ///< frequency control word
  double sin_ = 0.0, cos_ = 1.0;
};

}  // namespace ascp::dsp
