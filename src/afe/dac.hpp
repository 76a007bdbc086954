// dac.hpp — DAC behavioral model.
//
// Paper §4.2: the AFE drives the sensor electrodes "through couples of DACs
// for each loop". The model includes quantization, zero-order hold with
// first-order settling, static mismatch (offset/gain/INL bow), and glitch
// energy at major code transitions — the artefacts that leak into the
// resonator drive and must be tolerated by the loops.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace ascp::afe {

struct DacConfig {
  int bits = 12;              ///< resolution
  double vref = 2.5;          ///< output range ±vref
  double settle_tau_s = 1e-6; ///< output RC settling time constant [s]
  double glitch_volts = 1e-4; ///< glitch impulse amplitude at MSB transitions
  double offset_drift = 2e-6; ///< offset tempco [V/°C]
  double update_rate = 240e3; ///< sample update rate [Hz]
};

/// Behavioral DAC: write codes at the update rate, read the settled analog
/// output at any (higher) simulation rate via output().
class Dac {
 public:
  Dac(const DacConfig& cfg, ascp::Rng rng);

  /// Latch a signed code (clamped to the code range).
  void write_code(std::int32_t code);

  /// Convenience: latch the code nearest to `v` volts.
  void write_volts(double v);

  /// Advance the analog output by dt seconds and return it. The settling
  /// factors are recomputed only when dt changes.
  double output(double dt, double temp_c = 25.0);

  /// Instantaneous settled target (ideal value the output approaches).
  double target() const { return target_; }

  double lsb() const { return lsb_; }
  int bits() const { return cfg_.bits; }

  void serialize_state(StateArchive& ar) {
    ar.value(code_);
    ar.value(target_);
    ar.value(out_);
    ar.value(glitch_);
  }

 private:
  DacConfig cfg_;
  double lsb_;
  std::int32_t code_min_, code_max_;
  double offset_;
  double gain_;
  double bow_;
  std::int32_t code_ = 0;
  double target_ = 0.0;
  double out_ = 0.0;
  double glitch_ = 0.0;
  // output()'s settling factors for the dt whose bit pattern is dt_key_
  // (key 0 is dt = +0.0: no settling, no decay). Not serialized: the key
  // covers their only input.
  std::uint64_t dt_key_ = 0;
  double alpha_ = 0.0;
  double glitch_decay_ = 1.0;
};

}  // namespace ascp::afe
