#include "sensor/gyro_mems.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

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

double GyroMems::pickoff_cap(double displacement) const {
  // Parallel-plate pickoff: ΔC = k·x / (1 − x/gap) — soft nonlinearity that
  // the closed-loop configuration suppresses (paper §4.1: closed loop gives
  // "more linear and accurate measures").
  const double ratio = displacement / cfg_.electrode_gap_m;
  const double clamped = std::clamp(ratio, -0.9, 0.9);
  return cap_k_ * displacement / (1.0 - clamped * 0.5);
}

template <std::size_t L>
void GyroMems::step_lanes(GyroMems* const* rings, const GyroInputs* in, GyroOutputs* out) {
  static_assert(L >= 1 && L <= kLanes);
  // One array per quantity, one element per lane. Every lane runs exactly
  // the scalar operation sequence, so the lanes only interleave; no result
  // depends on a neighbour.
  struct Lanes {
    double x[L], vx[L], y[L], vy[L];
  };
  Lanes s, k1, k2, k3, k4, q;
  double dt[L], w0d2[L], w0s2[L], dd[L], ds[L], kq[L], coriolis[L], fd[L], fc[L], noise[L];
  for (std::size_t l = 0; l < L; ++l) {
    GyroMems& g = *rings[l];
    const GyroInputs& u = in[l];
    if (std::bit_cast<std::uint64_t>(u.temp_c) != g.temp_key_ ||
        std::bit_cast<std::uint64_t>(g.quad_step_) != g.quad_key_)
      g.resolve(u.temp_c);
    const Params& p = g.terms_;
    double v_drive = u.v_drive;
    if (g.drive_fault_ == DriveElectrodeFault::Open) v_drive = 0.0;
    else if (g.drive_fault_ == DriveElectrodeFault::Stuck) v_drive = g.stuck_v_;
    fd[l] = p.fpv * v_drive;
    fc[l] = p.fpv * u.v_control;
    const double z = g.ahead_ ? *g.ahead_++ : g.rng_.gaussian();
    noise[l] = (g.noise_sigma_ * g.t_scale_) * z;
    const double kappa_omega = g.cfg_.angular_gain * u.rate_dps * kPi / 180.0;
    coriolis[l] = 2.0 * kappa_omega;
    w0d2[l] = p.w0d2;
    w0s2[l] = p.w0s2;
    dd[l] = p.dd;
    ds[l] = p.ds;
    kq[l] = p.kq;
    dt[l] = g.dt_;
    s.x[l] = g.s_.x;
    s.vx[l] = g.s_.vx;
    s.y[l] = g.s_.y;
    s.vy[l] = g.s_.vy;
  }

  // k = f(r), inputs held over the step (zero-order hold). The Coriolis
  // terms couple the modal velocities antisymmetrically: energy pumped into
  // the sense mode is drawn from the drive mode.
  const auto derivative = [&](const Lanes& r, Lanes& k) {
    for (std::size_t l = 0; l < L; ++l) {
      k.x[l] = r.vx[l];
      k.y[l] = r.vy[l];
      k.vx[l] = fd[l] - dd[l] * r.vx[l] - w0d2[l] * r.x[l] + coriolis[l] * r.vy[l];
      k.vy[l] = fc[l] - ds[l] * r.vy[l] - w0s2[l] * r.y[l] - coriolis[l] * r.vx[l] -
                kq[l] * r.x[l] + noise[l];
    }
  };
  // q = s + c·dt·k
  const auto stage = [&](const Lanes& k, double c) {
    for (std::size_t l = 0; l < L; ++l) {
      const double h = c * dt[l];
      q.x[l] = s.x[l] + h * k.x[l];
      q.vx[l] = s.vx[l] + h * k.vx[l];
      q.y[l] = s.y[l] + h * k.y[l];
      q.vy[l] = s.vy[l] + h * k.vy[l];
    }
  };

  // Classic RK4.
  derivative(s, k1);
  stage(k1, 0.5);
  derivative(q, k2);
  stage(k2, 0.5);
  derivative(q, k3);
  stage(k3, 1.0);
  derivative(q, k4);
  for (std::size_t l = 0; l < L; ++l) {
    GyroMems& g = *rings[l];
    const double h = dt[l] / 6.0;
    g.s_.x = s.x[l] + h * (k1.x[l] + 2 * k2.x[l] + 2 * k3.x[l] + k4.x[l]);
    g.s_.vx = s.vx[l] + h * (k1.vx[l] + 2 * k2.vx[l] + 2 * k3.vx[l] + k4.vx[l]);
    g.s_.y = s.y[l] + h * (k1.y[l] + 2 * k2.y[l] + 2 * k3.y[l] + k4.y[l]);
    g.s_.vy = s.vy[l] + h * (k1.vy[l] + 2 * k2.vy[l] + 2 * k3.vy[l] + k4.vy[l]);
    out[l] = GyroOutputs{g.pickoff_cap(g.s_.x), g.pickoff_cap(g.s_.y)};
  }
}

// Flattened so a lone ring runs the one-lane kernel inline, at the cost of
// the scalar step it replaced.
[[gnu::flatten]] GyroOutputs GyroMems::step(const GyroInputs& in) {
  GyroMems* self = this;
  GyroOutputs out;
  step_lanes<1>(&self, &in, &out);
  return out;
}

void GyroMems::step_lanes(std::span<GyroMems* const> rings, std::span<const GyroInputs> in,
                          std::span<GyroOutputs> out) {
  using Kernel = void (*)(GyroMems* const*, const GyroInputs*, GyroOutputs*);
  static constexpr auto kKernels = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<Kernel, kLanes>{&step_lanes<I + 1>...};
  }(std::make_index_sequence<kLanes>{});
  if (rings.empty() || rings.size() > kLanes || in.size() != rings.size() ||
      out.size() != rings.size())
    throw std::invalid_argument("GyroMems::step_lanes: 1 to kLanes rings, one input and output "
                                "each");
  kKernels[rings.size() - 1](rings.data(), in.data(), out.data());
}

void GyroMems::reset() { s_ = State{}; }

}  // namespace ascp::sensor
