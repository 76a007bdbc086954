// cic.hpp — cascaded integrator-comb decimator.
//
// The demodulated rate signal lives below ~100 Hz but is produced at the
// 240 kHz DSP rate; a CIC stage is the canonical hardware-cheap way to
// decimate it before the sharper FIR clean-up filter. Modelled with wide
// integer accumulators exactly as the hardware would be built (CIC
// integrators rely on modular wrap-around arithmetic being exact).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::dsp {

/// N-stage CIC decimator with decimation ratio R and differential delay 1.
/// push() accepts one input sample and yields an output sample every R
/// inputs. Gain R^N is normalized out at the output.
class CicDecimator {
 public:
  /// `stages` N (1..6 typical), `ratio` R >= 1, `input_bits` the quantization
  /// applied to the input (models the B_in-wide input register).
  CicDecimator(int stages, int ratio, int input_bits = 16, double full_scale = 1.0);

  /// Push one high-rate sample; returns the decimated sample when one
  /// completes, std::nullopt otherwise.
  std::optional<double> push(double x);

  int stages() const { return stages_; }
  int ratio() const { return ratio_; }

  /// Inputs still to push before the next decimated output completes.
  int ticks_until_output() const { return ratio_ - phase_; }

  /// DC gain before normalization: R^N.
  double raw_gain() const;

  /// Magnitude response at frequency f (input rate fs): |sin(pi f R/fs) /
  /// (R sin(pi f/fs))|^N.
  double magnitude(double f, double fs) const;

  void reset();

  void serialize_state(StateArchive& ar) {
    for (auto& v : integ_) ar.value(v);
    for (auto& v : comb_) ar.value(v);
    std::int32_t p = phase_;
    ar.value(p);
    phase_ = p;
  }

 private:
  int stages_;
  int ratio_;
  double lsb_;
  double inv_gain_;
  std::vector<std::int64_t> integ_;
  std::vector<std::int64_t> comb_;
  int phase_ = 0;
};

}  // namespace ascp::dsp
