// fir.hpp — FIR filter IP and window-method designer.
//
// The DSP block's IP portfolio (paper §3: "FIR/IIR filters, modulator,
// demodulator, etc.") includes a generic transversal FIR, modelled at the
// double-precision behavioural ("MATLAB") level.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::dsp {

/// Double-precision transversal FIR filter (direct form).
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  double process(double x);
  void reset();

  std::size_t order() const { return taps_.size() - 1; }
  std::span<const double> taps() const { return taps_; }

  /// Group delay in samples (linear-phase symmetric designs): (N-1)/2.
  double group_delay() const { return static_cast<double>(taps_.size() - 1) / 2.0; }

  void serialize_state(StateArchive& ar) {
    for (auto& v : delay_) ar.value(v);
    std::uint64_t h = head_;
    ar.value(h);
    head_ = static_cast<std::size_t>(h);
  }

 private:
  std::vector<double> taps_;
  std::vector<double> delay_;
  std::size_t head_ = 0;
};

/// Window-method low-pass FIR design: cutoff fc (Hz) at sample rate fs,
/// length `taps` (odd lengths give a type-I linear-phase filter).
std::vector<double> design_lowpass(std::size_t taps, double fc, double fs);

/// Magnitude response |H(e^{j 2 pi f / fs})| of a tap set.
double fir_magnitude(std::span<const double> taps, double f, double fs);

}  // namespace ascp::dsp
