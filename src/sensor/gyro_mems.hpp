// gyro_mems.hpp — vibrating-ring MEMS gyroscope behavioral model.
//
// Paper §4.1 ([7],[8]): a circular ring with drive, sense and control
// electrodes. The ring's two degenerate flexural modes are modelled as a
// pair of damped second-order oscillators (per unit mass):
//
//   ẍ + (ω0d/Qd)·ẋ + ω0d²·x = f_drive + 2κΩ·ẏ          (primary / drive)
//   ÿ + (ω0s/Qs)·ẏ + ω0s²·y = f_ctrl − 2κΩ·ẋ − kq·x + n (secondary / sense)
//
// κ is the ring's angular gain (~0.37), Ω the yaw rate, kq the quadrature
// stiffness coupling, n the Brownian force noise. Electrostatic drive
// converts electrode volts to force; capacitive pickoff converts modal
// displacement to ΔC with electrode-gap nonlinearity. Resonance frequency
// and Q drift with temperature — the effects the conditioning chain's PLL
// and compensation stages exist to fight.
//
// The RK4 is written once, over structure-of-arrays lanes: step_lanes
// advances up to kLanes independent rings in lockstep, so the serial
// multiply-add chain of one ring's step overlaps with its neighbours'.
// Every lane computes exactly its own ring's scalar step (each keeps its
// temperature-term cache and draws its Brownian deviate from its own Rng),
// and step() is the one-lane instance. The Brownian deviate is a standard
// normal the temperature scales, so it can be drawn ahead from a copy of
// the ring's Rng and read through the stream's cursor (brownian(),
// core/noise_crew.hpp), as the charge amps' and PGAs' noise is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace ascp::sensor {

struct GyroMemsConfig {
  // Mechanics (per unit mass).
  double f0_hz = 15e3;      ///< drive-mode resonance at 25 °C (paper: ~15 kHz)
  double mode_split_hz = 0; ///< f0_sense − f0_drive (0 = mode-matched ring)
  double q_drive = 5000.0;  ///< drive-mode quality factor at 25 °C
  double q_sense = 5000.0;  ///< sense-mode quality factor at 25 °C
  double angular_gain = 0.37;  ///< κ, Coriolis coupling of the ring

  // Transduction.
  double force_per_volt = 1.0;      ///< electrostatic drive [m/s² per V]
  double cap_per_meter = 1e-7;      ///< pickoff ΔC/Δx [F/m]
  double electrode_gap_m = 2e-6;    ///< gap for pickoff nonlinearity
  double quad_stiffness = 6.0e4;    ///< kq [1/s²] (≈50 °/s equivalent)

  // Temperature coefficients.
  double f0_tempco = -20e-6;        ///< Δf0/f0 per °C
  double q_tempco = -2e-3;          ///< ΔQ/Q per °C (Q drops when hot)
  double force_tempco = -150e-6;    ///< drive-force gain per °C
  double cap_tempco = 80e-6;        ///< pickoff gain per °C
  double quad_tempco = 2e-3;        ///< quadrature coupling per °C

  // Noise.
  /// Brownian force noise per unit mass at 25 °C [(m/s²)/√Hz]. Scaled in
  /// operation by √(T/T₀ · Q₀/Q(T)) — fluctuation-dissipation: hotter and
  /// more damped means noisier.
  double brownian_accel_density = 6.5e-5;

  double sim_fs = 1.92e6;  ///< integration rate [Hz]
};

/// Electrode interface sampled once per integration step.
struct GyroInputs {
  double v_drive = 0.0;    ///< primary drive electrode voltage [V]
  double v_control = 0.0;  ///< secondary control (force-feedback) voltage [V]
  double rate_dps = 0.0;   ///< yaw rate Ω [°/s]
  double temp_c = 25.0;    ///< die temperature [°C]
};

struct GyroOutputs {
  double dc_primary = 0.0;  ///< drive pickoff ΔC [F]
  double dc_sense = 0.0;    ///< sense pickoff ΔC [F]
};

/// Drive-electrode interconnect faults (bond-wire / metallization failures).
enum class DriveElectrodeFault {
  None,
  Open,   ///< electrode floating: no drive force reaches the ring
  Stuck,  ///< electrode shorted to a DC level: constant force, no AC drive
};

/// RK4-integrated two-mode ring model.
class GyroMems {
 public:
  /// Most rings one step_lanes call advances.
  static constexpr std::size_t kLanes = 8;

  GyroMems(const GyroMemsConfig& cfg, ascp::Rng rng);

  /// Advance one integration step (1/sim_fs seconds). The temperature
  /// terms are recomputed only when the temperature or the quadrature step
  /// changes.
  GyroOutputs step(const GyroInputs& in);

  /// Advance rings[l] one step with in[l], writing out[l], for 1 to kLanes
  /// distinct rings in lockstep. Each lane is bit-identical to
  /// rings[l]->step(in[l]). Throws std::invalid_argument on a count outside
  /// 1…kLanes or spans of unequal length.
  static void step_lanes(std::span<GyroMems* const> rings, std::span<const GyroInputs> in,
                         std::span<GyroOutputs> out);

  // ---- fault injection -----------------------------------------------------
  void inject_drive_fault(DriveElectrodeFault fault, double stuck_v = 0.0) {
    drive_fault_ = fault;
    stuck_v_ = stuck_v;
  }
  /// Additive quadrature-stiffness step Δkq [1/s²] — a crack or particle
  /// suddenly skewing the ring's stiffness axes.
  void inject_quadrature_step(double delta_kq) { quad_step_ = delta_kq; }
  void clear_faults() {
    drive_fault_ = DriveElectrodeFault::None;
    stuck_v_ = 0.0;
    quad_step_ = 0.0;
  }

  /// Modal state access for tests/analysis.
  double x() const { return s_.x; }
  double y() const { return s_.y; }
  double vx() const { return s_.vx; }
  double vy() const { return s_.vy; }

  /// Drive resonance frequency at a given temperature [Hz].
  double f0_at(double temp_c) const;
  /// Drive-mode Q at a given temperature.
  double q_at(double temp_c) const;
  /// Mechanical rate sensitivity ∂(sense amplitude)/∂Ω for matched modes at
  /// drive amplitude `x_amp` [m per °/s] — used by tests as ground truth.
  double mechanical_sensitivity(double x_amp, double temp_c = 25.0) const;

  const GyroMemsConfig& config() const { return cfg_; }

  /// The Brownian stream: one standard normal per step, which the
  /// fluctuation-dissipation scale multiplies.
  ascp::ReadAhead<ascp::Rng>& brownian() { return brownian_; }

  void reset();

  void serialize_state(StateArchive& ar) {
    ar.value(s_.x);
    ar.value(s_.vx);
    ar.value(s_.y);
    ar.value(s_.vy);
    brownian_.gen.serialize_state(ar);
    ar.enum_value(drive_fault_);
    ar.value(stuck_v_);
    ar.value(quad_step_);
  }

 private:
  struct State {
    double x = 0.0, vx = 0.0, y = 0.0, vy = 0.0;
  };
  struct Params {  ///< temperature-resolved coefficients
    double w0d2, w0s2, dd, ds, fpv, kq;
  };

  /// The one RK4, over L lanes: rings[l] steps with in[l] into out[l].
  template <std::size_t L>
  static void step_lanes(GyroMems* const* rings, const GyroInputs* in, GyroOutputs* out);
  /// Recompute the temperature terms for `temp_c` and the current
  /// quadrature step, and key them on both bit patterns.
  void resolve(double temp_c);
  double pickoff_cap(double displacement) const;

  GyroMemsConfig cfg_;
  State s_;
  ascp::ReadAhead<ascp::Rng> brownian_;
  double noise_sigma_;
  double dt_;
  DriveElectrodeFault drive_fault_ = DriveElectrodeFault::None;
  double stuck_v_ = 0.0;
  double quad_step_ = 0.0;

  // Temperature terms for the (temp_c, quad_step_) bit patterns in the two
  // keys: the Params, the Brownian fluctuation-dissipation scale and the
  // pickoff gain. Not serialized: the keys cover every input, so a restore
  // or fault injection simply recomputes.
  std::uint64_t temp_key_ = 0, quad_key_ = 0;
  Params terms_{};
  double t_scale_ = 0.0;
  double cap_k_ = 0.0;
};

}  // namespace ascp::sensor
