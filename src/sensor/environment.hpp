// environment.hpp — stimulus profiles for experiments.
//
// The metrology benches exercise the conditioned sensor with the stimuli an
// evaluation lab would use: rate steps (turn-on / step response), rate sines
// (bandwidth), rate staircases (sensitivity/linearity), temperature ramps
// and soaks (over-temperature rows of Table 1).
//
// Profile::at() runs twice per 1.92 MHz analog tick, so the six canned
// shapes evaluate through a tagged small-variant switch instead of a
// std::function call; the Fn constructor remains as the escape hatch for
// arbitrary closures (the conformance fuzzer's segment evaluator uses it).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/math.hpp"

namespace ascp::sensor {

/// One analog tick's environment: what the MEMS element experiences.
struct StimulusSample {
  double rate_dps = 0.0;  ///< angular rate [°/s]
  double temp_c = 25.0;   ///< ambient temperature [°C]
};

/// Time-dependent scalar profile (rate in °/s or temperature in °C).
class Profile {
 public:
  using Fn = std::function<double(double /*t_seconds*/)>;

  Profile() = default;  ///< constant 0
  explicit Profile(Fn fn) : kind_(Kind::Fn), fn_(std::move(fn)) {}

  double at(double t) const {
    switch (kind_) {
      case Kind::Constant:
        return a_;
      case Kind::Step:
        return t >= t0_ ? a_ : 0.0;
      case Kind::Sine:
        return t >= t0_ ? a_ * std::sin(kTwoPi * b_ * (t - t0_)) : 0.0;
      case Kind::Ramp:
        if (t <= t0_) return a_;
        if (t >= t1_) return b_;
        return a_ + (b_ - a_) * (t - t0_) / (t1_ - t0_);
      case Kind::Staircase: {
        if (levels_.empty() || t < 0.0) return 0.0;
        // Degenerate dwell: every edge is already behind us — hold the
        // final level instead of dividing by zero.
        if (!(b_ > 0.0)) return levels_.back();
        const double q = t / b_;
        // Clamp in the double domain *before* the size_t cast: t/dwell can
        // exceed SIZE_MAX (UB on cast) long before it exceeds levels.size().
        // At an exact dwell edge t == i·dwell the i-th level starts (the
        // boundary sample belongs to the new step); the last edge
        // t == n·dwell and beyond hold the final level.
        if (q >= static_cast<double>(levels_.size())) return levels_.back();
        return levels_[static_cast<std::size_t>(q)];
      }
      case Kind::Chirp: {
        if (t < t0_) return 0.0;
        // Degenerate sweep window (t1 <= t0): a constant-frequency sine at
        // f0 from t0 on, instead of a 0/0 sweep slope.
        if (!(t1_ > t0_)) return a_ * std::sin(kTwoPi * b_ * (t - t0_));
        // At t == t0 the phase is exactly 0; at t == t1 the sweep ends on
        // phase 2π(f0 + f1)(t1−t0)/2 and freezes (the value holds past t1).
        const double tt = std::min(t, t1_) - t0_;
        const double k = (c_ - b_) / (t1_ - t0_);
        const double phase = kTwoPi * (b_ * tt + 0.5 * k * tt * tt);
        return a_ * std::sin(phase);
      }
      case Kind::Fn:
        return fn_(t);
    }
    return 0.0;
  }

  static Profile constant(double value);
  /// 0 before t0, `value` after.
  static Profile step(double value, double t0);
  /// amplitude·sin(2π f (t − t0)) after t0, 0 before.
  static Profile sine(double amplitude, double freq_hz, double t0 = 0.0);
  /// Linear sweep from v0 at t0 to v1 at t1 (clamped outside).
  static Profile ramp(double v0, double v1, double t0, double t1);
  /// Piecewise-constant staircase: `levels[i]` held for `dwell` seconds each;
  /// the final level holds past the last dwell edge.
  static Profile staircase(std::vector<double> levels, double dwell);
  /// Linear-frequency chirp: amplitude·sin(phase(t)), f0→f1 over [t0, t1];
  /// the sweep-end value holds past t1.
  static Profile chirp(double amplitude, double f0, double f1, double t0, double t1);

 private:
  enum class Kind : std::uint8_t { Constant, Step, Sine, Ramp, Staircase, Chirp, Fn };

  // Parameter slots, by kind:
  //   Constant:  a = value
  //   Step:      a = value, t0
  //   Sine:      a = amplitude, b = freq_hz, t0
  //   Ramp:      a = v0, b = v1, t0, t1
  //   Staircase: b = dwell, levels
  //   Chirp:     a = amplitude, b = f0, c = f1, t0, t1
  Kind kind_ = Kind::Constant;
  double a_ = 0.0, b_ = 0.0, c_ = 0.0, t0_ = 0.0, t1_ = 0.0;
  std::vector<double> levels_;
  Fn fn_;
};

}  // namespace ascp::sensor
