// biquad.hpp — IIR biquad section and cascade (RBJ cookbook low-pass).
//
// IIR sections implement the chain's narrow low-pass functions far cheaper
// than equivalent FIRs — the hardwired "IIR filter" IP of the paper's DSP
// portfolio. Direct form II transposed is used for its better numerical
// behaviour at high Q.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::dsp {

/// Normalized biquad coefficients: H(z) = (b0 + b1 z^-1 + b2 z^-2) /
/// (1 + a1 z^-1 + a2 z^-2).
struct BiquadCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// RBJ cookbook low-pass design (fc and fs in Hz).
BiquadCoeffs design_biquad_lowpass(double fc, double q, double fs);

/// Single second-order section, direct form II transposed.
class Biquad {
 public:
  explicit Biquad(BiquadCoeffs c) : c_(c) {}

  double process(double x) {
    const double y = c_.b0 * x + s1_;
    s1_ = c_.b1 * x - c_.a1 * y + s2_;
    s2_ = c_.b2 * x - c_.a2 * y;
    return y;
  }

  void reset() { s1_ = s2_ = 0.0; }
  const BiquadCoeffs& coeffs() const { return c_; }

  void serialize_state(StateArchive& ar) {
    ar.value(s1_);
    ar.value(s2_);
  }

 private:
  BiquadCoeffs c_;
  double s1_ = 0.0, s2_ = 0.0;
};

/// Cascade of second-order sections.
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<BiquadCoeffs> sections);

  void append(BiquadCoeffs c) { sections_.emplace_back(c); }
  double process(double x);
  void reset();
  std::size_t size() const { return sections_.size(); }

  void serialize_state(StateArchive& ar) {
    // Section count is structural (set at design time), so only the
    // recurrence states travel; a count mismatch means the wrong config.
    std::uint32_t n = static_cast<std::uint32_t>(sections_.size());
    ar.value(n);
    if (n != sections_.size())
      throw StateError("BiquadCascade section count mismatch");
    for (auto& s : sections_) s.serialize_state(ar);
  }

 private:
  std::vector<Biquad> sections_;
};

/// Butterworth low-pass of even order `order` as a cascade of biquads
/// (order/2 sections with the classic pole-pair Q values).
BiquadCascade design_butterworth_lowpass(int order, double fc, double fs);

/// Magnitude response of a biquad at frequency f.
double biquad_magnitude(const BiquadCoeffs& c, double f, double fs);

}  // namespace ascp::dsp
