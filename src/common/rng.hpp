// rng.hpp — deterministic random sources for noise modelling.
//
// Every stochastic block in the platform (ADC thermal noise, MEMS Brownian
// noise, amplifier flicker noise, mismatch draws) pulls from one of these so
// that a simulation is fully reproducible from a single master seed.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/state_archive.hpp"

namespace ascp {

/// xoshiro256++ — small, fast, high-quality PRNG. We implement it directly
/// instead of using <random> engines so the bit stream is stable across
/// standard-library implementations (reproducible experiments).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box–Muller (cached second deviate).
  double gaussian();

  /// Normal with given standard deviation.
  double gaussian(double sigma) { return sigma * gaussian(); }

  /// Derive an independent stream for a sub-block (splitmix of seed + tag).
  Rng fork(std::uint64_t tag);

  void serialize_state(StateArchive& ar) {
    for (auto& s : s_) ar.value(s);
    ar.value(has_cached_);
    ar.value(cached_);
  }

 private:
  std::uint64_t s_[4]{};
  bool has_cached_ = false;
  double cached_ = 0.0;
};

/// 1/f (flicker) noise generator — Voss–McCartney: octave-spaced sources
/// where stage k redraws every 2^k samples, so the amortized cost is ~2
/// Gaussian draws per sample regardless of octave count. The summed
/// spectrum approximates 1/f over num_octaves octaves below fs/2.
class FlickerNoise {
 public:
  /// `sigma` is the approximate RMS of the output process.
  FlickerNoise(Rng rng, double sigma, int num_octaves = 12);

  double next();

  void serialize_state(StateArchive& ar) {
    rng_.serialize_state(ar);
    for (auto& s : state_) ar.value(s);
    ar.value(sum_);
    ar.value(counter_);
  }

 private:
  Rng rng_;
  double per_stage_sigma_;
  double state_[24]{};
  double sum_ = 0.0;
  std::uint64_t counter_ = 0;
  int stages_;
};

/// A noise generator whose values can be drawn ahead of it
/// (core/noise_crew.hpp). next() takes the next value from `ahead`, one per
/// call, while a cursor is attached, and draws it from `gen` otherwise.
/// draw() is the one draw routine, so a copy of `gen` draws exactly the
/// values `gen` would. While a cursor is attached, `gen` is still the state
/// those values began from: whoever attached it writes back the state they
/// leave.
template <typename Gen>
struct ReadAhead {
  Gen gen;
  const double* ahead = nullptr;

  double next() { return ahead ? *ahead++ : draw(gen); }

  /// A standard normal from an Rng, the next sample of a FlickerNoise.
  static double draw(Gen& g) {
    if constexpr (std::is_same_v<Gen, Rng>) return g.gaussian();
    else return g.next();
  }
};

}  // namespace ascp
