#include "sensor/gyro_mems.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/math.hpp"

namespace ascp::sensor {

GyroMems::GyroMems(const GyroMemsConfig& cfg, ascp::Rng rng)
    : cfg_(cfg), rng_(rng), dt_(1.0 / cfg.sim_fs) {
  // Brownian force noise: density d [(m/s²)/√Hz] sampled at sim_fs has
  // per-step sigma d·√(sim_fs/2).
  noise_sigma_ = cfg_.brownian_accel_density * std::sqrt(cfg_.sim_fs / 2.0);
  resolve(25.0);
}

double GyroMems::f0_at(double temp_c) const {
  return cfg_.f0_hz * (1.0 + cfg_.f0_tempco * (temp_c - 25.0));
}

double GyroMems::q_at(double temp_c) const {
  return cfg_.q_drive * (1.0 + cfg_.q_tempco * (temp_c - 25.0));
}

double GyroMems::mechanical_sensitivity(double x_amp, double temp_c) const {
  // Matched modes, response at resonance: y_amp = (2κΩ·ẋ_amp)·Qs/ω0².
  const double w0 = kTwoPi * f0_at(temp_c);
  const double vx_amp = w0 * x_amp;
  const double qs = cfg_.q_sense * (1.0 + cfg_.q_tempco * (temp_c - 25.0));
  const double omega_per_dps = kPi / 180.0;
  return 2.0 * cfg_.angular_gain * omega_per_dps * vx_amp * qs / (w0 * w0);
}

void GyroMems::resolve(double temp_c) {
  temp_key_ = std::bit_cast<std::uint64_t>(temp_c);
  quad_key_ = std::bit_cast<std::uint64_t>(quad_step_);
  Params& p = terms_;
  const double dtc = temp_c - 25.0;
  const double w0d = kTwoPi * f0_at(temp_c);
  const double w0s = kTwoPi * (f0_at(temp_c) + cfg_.mode_split_hz * (1.0 + cfg_.f0_tempco * dtc));
  const double qd = cfg_.q_drive * (1.0 + cfg_.q_tempco * dtc);
  const double qs = cfg_.q_sense * (1.0 + cfg_.q_tempco * dtc);
  p.w0d2 = w0d * w0d;
  p.w0s2 = w0s * w0s;
  p.dd = w0d / qd;
  p.ds = w0s / qs;
  p.fpv = cfg_.force_per_volt * (1.0 + cfg_.force_tempco * dtc);
  p.kq = cfg_.quad_stiffness * (1.0 + cfg_.quad_tempco * dtc) + quad_step_;
  // Fluctuation-dissipation scaling of the Brownian force.
  t_scale_ = std::sqrt((temp_c + 273.15) / 298.15 * cfg_.q_drive /
                       (cfg_.q_drive * (1.0 + cfg_.q_tempco * (temp_c - 25.0))));
  cap_k_ = cfg_.cap_per_meter * (1.0 + cfg_.cap_tempco * (temp_c - 25.0));
}

GyroMems::State GyroMems::derivative(const State& s, const Params& p, double fd, double fc,
                                     double noise) {
  // Coriolis terms couple the modal velocities antisymmetrically: energy
  // pumped into the sense mode is drawn from the drive mode.
  State d;
  d.x = s.vx;
  d.y = s.vy;
  d.vx = fd - p.dd * s.vx - p.w0d2 * s.x + 2.0 * p.kappa_omega * s.vy;
  d.vy = fc - p.ds * s.vy - p.w0s2 * s.y - 2.0 * p.kappa_omega * s.vx - p.kq * s.x + noise;
  return d;
}

double GyroMems::pickoff_cap(double displacement) const {
  // Parallel-plate pickoff: ΔC = k·x / (1 − x/gap) — soft nonlinearity that
  // the closed-loop configuration suppresses (paper §4.1: closed loop gives
  // "more linear and accurate measures").
  const double ratio = displacement / cfg_.electrode_gap_m;
  const double clamped = std::clamp(ratio, -0.9, 0.9);
  return cap_k_ * displacement / (1.0 - clamped * 0.5);
}

GyroOutputs GyroMems::step(const GyroInputs& in) {
  if (std::bit_cast<std::uint64_t>(in.temp_c) != temp_key_ ||
      std::bit_cast<std::uint64_t>(quad_step_) != quad_key_)
    resolve(in.temp_c);
  Params p = terms_;
  p.kappa_omega = cfg_.angular_gain * in.rate_dps * kPi / 180.0;

  double v_drive = in.v_drive;
  if (drive_fault_ == DriveElectrodeFault::Open) v_drive = 0.0;
  else if (drive_fault_ == DriveElectrodeFault::Stuck) v_drive = stuck_v_;
  const double fd = p.fpv * v_drive;
  const double fc = p.fpv * in.v_control;
  const double noise = rng_.gaussian(noise_sigma_ * t_scale_);

  // Classic RK4 with inputs held over the step (zero-order hold).
  const State k1 = derivative(s_, p, fd, fc, noise);
  State s2{s_.x + 0.5 * dt_ * k1.x, s_.vx + 0.5 * dt_ * k1.vx, s_.y + 0.5 * dt_ * k1.y,
           s_.vy + 0.5 * dt_ * k1.vy};
  const State k2 = derivative(s2, p, fd, fc, noise);
  State s3{s_.x + 0.5 * dt_ * k2.x, s_.vx + 0.5 * dt_ * k2.vx, s_.y + 0.5 * dt_ * k2.y,
           s_.vy + 0.5 * dt_ * k2.vy};
  const State k3 = derivative(s3, p, fd, fc, noise);
  State s4{s_.x + dt_ * k3.x, s_.vx + dt_ * k3.vx, s_.y + dt_ * k3.y, s_.vy + dt_ * k3.vy};
  const State k4 = derivative(s4, p, fd, fc, noise);

  s_.x += dt_ / 6.0 * (k1.x + 2 * k2.x + 2 * k3.x + k4.x);
  s_.vx += dt_ / 6.0 * (k1.vx + 2 * k2.vx + 2 * k3.vx + k4.vx);
  s_.y += dt_ / 6.0 * (k1.y + 2 * k2.y + 2 * k3.y + k4.y);
  s_.vy += dt_ / 6.0 * (k1.vy + 2 * k2.vy + 2 * k3.vy + k4.vy);

  return GyroOutputs{pickoff_cap(s_.x), pickoff_cap(s_.y)};
}

void GyroMems::reset() { s_ = State{}; }

}  // namespace ascp::sensor
