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
    : cfg_(cfg), brownian_{rng}, dt_(1.0 / cfg.sim_fs) {
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
void GyroMems::frame(const GyroFrameLane* lanes, long n) {
  static_assert(L >= 1 && L <= kLanes);
  // One array per quantity, one element per lane. Every lane runs exactly
  // the scalar operation sequence, tick after tick, so the lanes only
  // interleave; no result depends on a neighbour. The rings are read before
  // the first tick and written after the last: the state, the temperature
  // terms, the Coriolis term and the step sizes stay here in between.
  struct Lanes {
    double x[L], vx[L], y[L], vy[L];
  };
  Lanes s, k1, k2, k3, k4, q;
  GyroMems* ring[L];
  const StimulusSample* stim[L];
  const double* ahead[L];  ///< the Brownian stream's cursor (ReadAhead::next)
  double v_drive[L], v_control[L], dt[L], half_dt[L], sixth_dt[L];
  double w0d2[L], w0s2[L], dd[L], ds[L], kq[L], fd[L], fc[L], noise_scale[L], coriolis[L];
  double noise[L], z[L];  ///< the tick's Brownian force and its standard normal deviate
  std::uint64_t temp_key[L], rate_key[L];

  // The temperature terms step() reads from the ring's cache.
  const auto load_terms = [&](std::size_t l) {
    const GyroMems& g = *ring[l];
    const Params& p = g.terms_;
    w0d2[l] = p.w0d2;
    w0s2[l] = p.w0s2;
    dd[l] = p.dd;
    ds[l] = p.ds;
    kq[l] = p.kq;
    fd[l] = p.fpv * v_drive[l];
    fc[l] = p.fpv * v_control[l];
    noise_scale[l] = g.noise_sigma_ * g.t_scale_;
    temp_key[l] = g.temp_key_;
  };
  // The Coriolis term, keyed on the rate's bit pattern as the temperature
  // terms are on the temperature's: a held rate is converted once a frame.
  const auto load_coriolis = [&](std::size_t l, double rate_dps) {
    rate_key[l] = std::bit_cast<std::uint64_t>(rate_dps);
    const double kappa_omega = ring[l]->cfg_.angular_gain * rate_dps * kPi / 180.0;
    coriolis[l] = 2.0 * kappa_omega;
  };
  for (std::size_t l = 0; l < L; ++l) {
    GyroMems& g = *lanes[l].ring;
    ring[l] = &g;
    stim[l] = lanes[l].stim;
    const double temp_c = stim[l][0].temp_c;
    if (std::bit_cast<std::uint64_t>(temp_c) != g.temp_key_ ||
        std::bit_cast<std::uint64_t>(g.quad_step_) != g.quad_key_)
      g.resolve(temp_c);
    v_drive[l] = lanes[l].v_drive;
    if (g.drive_fault_ == DriveElectrodeFault::Open) v_drive[l] = 0.0;
    else if (g.drive_fault_ == DriveElectrodeFault::Stuck) v_drive[l] = g.stuck_v_;
    v_control[l] = lanes[l].v_control;
    // The first tick's deviate is read before anything else is loaded: an
    // inline draw is a call, and every value live across it is spilled
    // (about 3 ns a step() call).
    ahead[l] = g.brownian_.ahead;
    z[l] = g.brownian_.next(ahead[l]);
    load_terms(l);
    load_coriolis(l, stim[l][0].rate_dps);
    dt[l] = g.dt_;
    half_dt[l] = 0.5 * g.dt_;
    sixth_dt[l] = g.dt_ / 6.0;
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
  // q = s + h·k
  const auto stage = [&](const Lanes& k, const double* h) {
    for (std::size_t l = 0; l < L; ++l) {
      q.x[l] = s.x[l] + h[l] * k.x[l];
      q.vx[l] = s.vx[l] + h[l] * k.vx[l];
      q.y[l] = s.y[l] + h[l] * k.y[l];
      q.vy[l] = s.vy[l] + h[l] * k.vy[l];
    }
  };

  for (long i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      // The first tick's terms and deviate are loaded above, so step()
      // checks no key.
      if (i > 0) {
        const StimulusSample& u = stim[l][i];
        if (std::bit_cast<std::uint64_t>(u.temp_c) != temp_key[l]) [[unlikely]] {
          ring[l]->resolve(u.temp_c);
          load_terms(l);
        }
        if (std::bit_cast<std::uint64_t>(u.rate_dps) != rate_key[l]) [[unlikely]]
          load_coriolis(l, u.rate_dps);
        z[l] = ring[l]->brownian_.next(ahead[l]);
      }
      noise[l] = noise_scale[l] * z[l];
    }
    // Classic RK4.
    derivative(s, k1);
    stage(k1, half_dt);
    derivative(q, k2);
    stage(k2, half_dt);
    derivative(q, k3);
    stage(k3, dt);
    derivative(q, k4);
    for (std::size_t l = 0; l < L; ++l) {
      const double h = sixth_dt[l];
      s.x[l] = s.x[l] + h * (k1.x[l] + 2 * k2.x[l] + 2 * k3.x[l] + k4.x[l]);
      s.vx[l] = s.vx[l] + h * (k1.vx[l] + 2 * k2.vx[l] + 2 * k3.vx[l] + k4.vx[l]);
      s.y[l] = s.y[l] + h * (k1.y[l] + 2 * k2.y[l] + 2 * k3.y[l] + k4.y[l]);
      s.vy[l] = s.vy[l] + h * (k1.vy[l] + 2 * k2.vy[l] + 2 * k3.vy[l] + k4.vy[l]);
    }
  }
  // The last tick's pickoffs, two divisions each: the only ones a frame's
  // caller samples.
  for (std::size_t l = 0; l < L; ++l)
    *lanes[l].pick = GyroOutputs{ring[l]->pickoff_cap(s.x[l]), ring[l]->pickoff_cap(s.y[l])};
  for (std::size_t l = 0; l < L; ++l) {
    ring[l]->s_ = State{s.x[l], s.vx[l], s.y[l], s.vy[l]};
    ring[l]->brownian_.ahead = ahead[l];
  }
}

// Flattened so a lone ring runs the one-lane, one-tick kernel inline, at the
// cost of the scalar step it replaced.
[[gnu::flatten]] GyroOutputs GyroMems::step(const GyroInputs& in) {
  const StimulusSample stim{in.rate_dps, in.temp_c};
  GyroOutputs out;
  const GyroFrameLane lane{this, &stim, in.v_drive, in.v_control, &out};
  frame<1>(&lane, 1);
  return out;
}

void GyroMems::step_frame(std::span<const GyroFrameLane> lanes, long n) {
  using Kernel = void (*)(const GyroFrameLane*, long);
  static constexpr auto kKernels = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<Kernel, kLanes>{&frame<I + 1>...};
  }(std::make_index_sequence<kLanes>{});
  if (lanes.empty() || lanes.size() > kLanes || n < 1)
    throw std::invalid_argument("GyroMems::step_frame: 1 to kLanes rings and at least one tick");
  kKernels[lanes.size() - 1](lanes.data(), n);
}

void GyroMems::reset() { s_ = State{}; }

}  // namespace ascp::sensor
