#include "core/baselines.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/math.hpp"
#include "dsp/modem.hpp"

namespace ascp::core {

BaselineConfig adxrs300_like() {
  BaselineConfig cfg;
  // Low-Q resonator: surface-micromachined polysilicon in air — this is
  // what buys the 35 ms turn-on (envelope τ = 2Q/ω0 ≈ 8.5 ms).
  cfg.mems.f0_hz = 14e3;
  cfg.mems.q_drive = 400.0;
  cfg.mems.q_sense = 400.0;
  // Low-Q element needs a stronger electrostatic drive to reach the same
  // amplitude (F = x·ω0²/Q quadruples vs the high-Q ring).
  cfg.mems.force_per_volt = 4.0;
  cfg.mems.brownian_accel_density = 1.5e-5;
  // Split-mode operation: the sense resonance sits 200 Hz above the drive,
  // so the rate response is stiffness-dominated and flat across the output
  // filter's 40 Hz — the analog way to buy bandwidth (at a gain penalty).
  cfg.mems.mode_split_hz = 200.0;
  cfg.drive.pll.f_center = 14e3;
  cfg.drive.pll.f_min = 12e3;
  cfg.drive.pll.f_max = 16e3;
  // Continuous-time AGC/PLL settle much faster than the platform's digital
  // loops — part of how the analog part reaches its 35 ms turn-on.
  cfg.drive.agc.kp = 2.0;
  cfg.drive.agc.ki = 600.0;
  cfg.drive.agc.settle_count = 500;
  cfg.drive.pll.ki = 12000.0;
  cfg.drive.pll.lock_count = 500;
  cfg.nominal_sensitivity = 5e-3;   // Table 2: 5 mV/°/s typ
  cfg.trim_sigma = 0.04;            // 4.6–5.4 mV/°/s initial spread
  cfg.sens_tempco = -4e-4;
  cfg.null_v = 2.5;
  cfg.null_sigma_v = 0.15;          // 2.3–2.7 V initial nulls
  cfg.null_tempco_v = 1.5e-3;
  cfg.output_lpf_hz = 40.0;         // Table 2: 40 Hz bandwidth
  cfg.output_lpf_poles = 1;
  cfg.noise_dps_rt_hz = 0.1;        // Table 2: 0.1 °/s/√Hz
  cfg.full_scale_dps = 300.0;
  return cfg;
}

BaselineConfig gyrostar_like() {
  BaselineConfig cfg;
  // Piezoelectric tuning-fork element (ENV-05 class): moderate Q, very low
  // transduction, loose factory trim, narrow temperature window.
  cfg.mems.f0_hz = 15e3;
  cfg.mems.q_drive = 2000.0;
  cfg.mems.q_sense = 2000.0;
  cfg.mems.brownian_accel_density = 2e-5;
  cfg.mems.mode_split_hz = 120.0;
  cfg.drive = default_drive_loop();
  cfg.nominal_sensitivity = 0.67e-3;  // Table 3: 0.67 mV/°/s
  cfg.trim_sigma = 0.10;              // 0.54–0.80 spread
  cfg.sens_tempco = 1.0e-3;           // ±5 % over −5..+75 °C
  cfg.null_v = 1.35;
  cfg.null_sigma_v = 0.05;
  cfg.null_tempco_v = 2.0e-3;
  cfg.demod_phase_err_sigma = 0.05;
  cfg.output_lpf_hz = 50.0;           // Table 3: < 50 Hz
  cfg.output_lpf_poles = 2;
  cfg.noise_dps_rt_hz = 0.15;
  cfg.full_scale_dps = 300.0;
  return cfg;
}

AnalogGyroBaseline::AnalogGyroBaseline(const BaselineConfig& cfg) : cfg_(cfg) {
  build(1);
}

void AnalogGyroBaseline::build(std::uint64_t seed) {
  Rng rng(seed);
  sensor::GyroMemsConfig mems_cfg = cfg_.mems;
  mems_cfg.sim_fs = cfg_.analog_fs;
  mems_ = std::make_unique<sensor::GyroMems>(mems_cfg, rng.fork(1));

  DriveLoopConfig drive_cfg = cfg_.drive;
  const double loop_fs = cfg_.analog_fs / cfg_.loop_div;
  drive_cfg.pll.fs = loop_fs;
  drive_cfg.agc.fs = loop_fs;
  drive_ = std::make_unique<DriveLoop>(drive_cfg);
  demod_ = std::make_unique<dsp::IqDemodulator>(loop_fs, cfg_.demod_bw_hz);

  trim_gain_ = 1.0 + rng.gaussian(cfg_.trim_sigma);
  null_draw_ = rng.gaussian(cfg_.null_sigma_v);
  phase_err_ = rng.gaussian(cfg_.demod_phase_err_sigma);
  noise_rng_ = rng.fork(9);
  noise_sigma_ = cfg_.noise_dps_rt_hz * cfg_.nominal_sensitivity * std::sqrt(loop_fs / 2.0);

  // Factory scaling: demod volts per °/s from the element physics at the
  // AGC operating point (the trim station sets the final analog gain).
  // The split-mode sense response to a drive-frequency force is
  // H(jωd) = 1/((ωs²−ωd²) + jωd·ωs/Qs): magnitude sets the gain, and its
  // phase φH sets where the Coriolis signal lands in the I/Q plane — the
  // analog demodulator is built rotated to that angle.
  const double x_amp = drive_cfg.agc.target / cfg_.sense_gain_v_per_m;
  const double w0d = kTwoPi * cfg_.mems.f0_hz;
  const double w0s = kTwoPi * (cfg_.mems.f0_hz + cfg_.mems.mode_split_hz);
  const double split_term = w0s * w0s - w0d * w0d;
  const double damp_term = w0d * w0s / cfg_.mems.q_sense;
  const double h_mag = 1.0 / std::hypot(split_term, damp_term);
  demod_angle_ = std::atan2(damp_term, split_term);
  const double omega_per_dps = kPi / 180.0;
  const double raw_v_per_dps = 2.0 * cfg_.mems.angular_gain * omega_per_dps * w0d * x_amp *
                               h_mag * cfg_.sense_gain_v_per_m;
  scale_v_per_demod_ = cfg_.nominal_sensitivity / raw_v_per_dps;

  lpf_state_[0] = lpf_state_[1] = 0.0;
  lpf_alpha_ = 1.0 - std::exp(-kTwoPi * cfg_.output_lpf_hz / loop_fs);
  v_per_m_ = cfg_.sense_gain_v_per_m / cfg_.mems.cap_per_meter;  // V per farad
  drive_v_ = 0.0;

  // A new die powers on with its decimators at phase zero. The conditioning
  // fires on the last analog step of each loop_div cycle; the DAQ samples the
  // analog output on the last conditioning sample of each out_div cycle.
  const int out_div = static_cast<int>(loop_fs / cfg_.output_rate_hz + 0.5);
  out_period_ = static_cast<long>(cfg_.loop_div) * out_div;
  ticks_ = 0;
}

void AnalogGyroBaseline::analog() {
  // ticks_ is the global index of this tick until it ends; the active source
  // maps it to its own time base (SyntheticSource applies the run-origin
  // offset for local-time runs, bit-identical to the historical
  // (ticks − run_origin)·dt arithmetic).
  const sensor::StimulusSample smp = run_src_->sample(ticks_);
  tick_temp_ = smp.temp_c;

  sensor::GyroInputs in;
  in.v_drive = drive_v_;
  in.rate_dps = smp.rate_dps;
  in.temp_c = tick_temp_;
  pick_ = mems_->step(in);
  if (probe_) {
    using sensor::ProbePoint;
    if (probe_stim_) probe_->on_frame({ProbePoint::Stimulus, ticks_, smp.rate_dps, smp.temp_c});
    if (probe_mems_)
      probe_->on_frame({ProbePoint::PostMems, ticks_, pick_.dc_primary, pick_.dc_sense});
  }
  ++ticks_;
}

void AnalogGyroBaseline::conditioning() {
  // ---- analog conditioning at the loop rate ----
  const double vp = v_per_m_ * pick_.dc_primary;
  const double vs = v_per_m_ * pick_.dc_sense;
  drive_v_ = drive_->step(vp);
  const auto bb = demod_->step(vs, drive_->carrier_i(), drive_->carrier_q());

  // Fixed analog demodulation phase, built at φH + trim error, drifting
  // with temperature; residual misalignment leaks quadrature into rate.
  const double phi = demod_angle_ + phase_err_ + cfg_.demod_phase_tempco * (tick_temp_ - 25.0);
  const double rate_demod = bb.q * std::sin(phi) - bb.i * std::cos(phi);

  const double dtc = tick_temp_ - 25.0;
  const double gain = scale_v_per_demod_ * trim_gain_ * (1.0 + cfg_.sens_tempco * dtc);
  double v = gain * rate_demod + noise_rng_.gaussian(noise_sigma_);

  // Output RC filter.
  lpf_state_[0] += lpf_alpha_ * (v - lpf_state_[0]);
  v = lpf_state_[0];
  if (cfg_.output_lpf_poles >= 2) {
    lpf_state_[1] += lpf_alpha_ * (v - lpf_state_[1]);
    v = lpf_state_[1];
  }
}

void AnalogGyroBaseline::daq_output() {
  if (!run_out_ && !(probe_ && probe_out_)) return;
  const double v = cfg_.output_lpf_poles >= 2 ? lpf_state_[1] : lpf_state_[0];
  const double null = cfg_.null_v + null_draw_ + cfg_.null_tempco_v * (tick_temp_ - 25.0);
  if (run_out_) run_out_->push_back(null + v);
  if (probe_ && probe_out_)
    probe_->on_frame({sensor::ProbePoint::DecimatedOutput, ticks_ - 1, null + v, tick_temp_});
}

void AnalogGyroBaseline::run_frame(long n, bool ends) {
  // Within a tick: analog, then conditioning, then the DAQ.
  for (long i = 0; i < n; ++i) analog();
  if (!ends) return;
  conditioning();
  if (ticks_ % out_period_ == 0) daq_output();
}

[[gnu::noinline]] void AnalogGyroBaseline::run_timed(long n, bool ends) {
  using clock = std::chrono::steady_clock;
  const long first = ticks_;
  const auto t0 = clock::now();
  for (long i = 0; i < n; ++i) analog();
  const auto t1 = clock::now();
  const bool daq = ends && ticks_ % out_period_ == 0;
  auto t2 = t1, t3 = t1;
  if (ends) {
    conditioning();
    t2 = clock::now();
  }
  if (daq) {
    daq_output();
    t3 = clock::now();
  }
  const auto secs = [](clock::duration d) { return std::chrono::duration<double>(d).count(); };
  obs_.tasks->record(obs_tasks_[0], first, n, secs(t1 - t0));
  if (ends) obs_.tasks->record(obs_tasks_[1], ticks_ - 1, 1, secs(t2 - t1));
  if (daq) obs_.tasks->record(obs_tasks_[2], ticks_ - 1, 1, secs(t3 - t2));
}

void AnalogGyroBaseline::count_tasks(long tick0) {
  if (!obs_.tasks) return;
  // Each task fires on the ticks ≡ divider − 1 among [tick0, ticks_), the
  // ticks whose analog step completed (a probe that throws from daq_output
  // leaves that firing counted).
  const long div = cfg_.loop_div;
  obs_.tasks->count(obs_tasks_[0], static_cast<std::uint64_t>(ticks_ - tick0));
  obs_.tasks->count(obs_tasks_[1], static_cast<std::uint64_t>(ticks_ / div - tick0 / div));
  obs_.tasks->count(obs_tasks_[2],
                    static_cast<std::uint64_t>(ticks_ / out_period_ - tick0 / out_period_));
}

void AnalogGyroBaseline::power_on(std::uint64_t seed) { build(seed); }

void AnalogGyroBaseline::set_observability(const obs::ObsSink& sink) {
  obs_ = sink;
  if (!obs_.tasks) return;
  const long div = cfg_.loop_div;
  obs_tasks_ = {obs_.tasks->register_task("analog", 1, 0),
                obs_.tasks->register_task("conditioning", div, div - 1),
                obs_.tasks->register_task("daq_output", out_period_, out_period_ - 1)};
  obs_.tasks->set_base_rate(cfg_.analog_fs);
  obs_.tasks->set_span_log(obs_.spans);
}

void AnalogGyroBaseline::serialize_state(StateArchive& ar) {
  ar.begin_section("BASE");
  mems_->serialize_state(ar);
  drive_->serialize_state(ar);
  demod_->serialize_state(ar);
  std::int64_t ticks = ticks_;
  ar.value(ticks);
  if (!ar.saving()) ticks_ = static_cast<long>(ticks);
  ar.value(tick_temp_);
  ar.value(pick_.dc_primary);
  ar.value(pick_.dc_sense);
  noise_rng_.serialize_state(ar);
  ar.value(lpf_state_[0]);
  ar.value(lpf_state_[1]);
  ar.value(drive_v_);
  ar.end_section();
}

void AnalogGyroBaseline::run(const sensor::Profile& rate, const sensor::Profile& temp,
                             double seconds, std::vector<double>* out) {
  // Profiles are evaluated from t = 0 at the start of this call (the
  // RateSensor contract) unless the owner pinned the stimulus to the global
  // tick axis; the origin makes the wrapper bit-identical to the historical
  // (ticks − run_origin)·dt evaluation.
  sensor::SyntheticSource src(rate, temp, cfg_.analog_fs,
                              cfg_.stimulus_global_time ? 0 : ticks_);
  run(src, seconds, out);
}

void AnalogGyroBaseline::run(sensor::StimulusSource& src, double seconds,
                             std::vector<double>* out) {
  // The tick counter — and with it the conditioning and DAQ decimation
  // phase — persists across calls like the hardware would. One frame per
  // pass: the analog ticks up to the end of a loop_div cycle, then the tasks
  // that fire on its last tick; a run may begin or end mid-cycle.
  run_src_ = &src;
  run_out_ = out;
  const long tick0 = ticks_;
  const long div = cfg_.loop_div;
  const auto wall0 = std::chrono::steady_clock::now();
  try {
    for (long left = static_cast<long>(seconds * cfg_.analog_fs + 0.5); left > 0;) {
      const long to_end = div - ticks_ % div;
      const long n = std::min(left, to_end);
      if (obs_.tasks && ticks_ / div % obs::TaskProfiler::kTimedFrameStride == 0)
        run_timed(n, n == to_end);
      else
        run_frame(n, n == to_end);
      left -= n;
    }
  } catch (...) {
    count_tasks(tick0);
    throw;
  }
  count_tasks(tick0);
  if (obs_.tasks)
    obs_.tasks->record_run(
        seconds, std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  run_src_ = nullptr;
  run_out_ = nullptr;
}

void AnalogGyroBaseline::set_probe(sensor::Probe* probe) {
  probe_ = probe;
  probe_stim_ = probe_ && probe_->wants(sensor::ProbePoint::Stimulus);
  probe_mems_ = probe_ && probe_->wants(sensor::ProbePoint::PostMems);
  probe_out_ = probe_ && probe_->wants(sensor::ProbePoint::DecimatedOutput);
}

}  // namespace ascp::core
