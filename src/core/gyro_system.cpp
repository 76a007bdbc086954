#include "core/gyro_system.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/calibration.hpp"
#include "core/noise_crew.hpp"
#include "platform/selftest.hpp"
#include "safety/cal_store.hpp"

namespace ascp::core {

GyroSystemConfig default_gyro_system(Fidelity fidelity) {
  GyroSystemConfig cfg;
  cfg.fidelity = fidelity;

  // Drive-loop servo tuning (see DESIGN.md "simulation-rate architecture").
  cfg.drive = default_drive_loop(240e3);

  // Force-feedback servo: plant envelope pole at ω0/2Q ≈ 1.5 Hz and
  // baseband gain ≈ 2.2 V/V require a strong PD zero for a ~100 Hz loop.
  cfg.sense.fs = 240e3;
  cfg.sense.rate_kp = 30.0;
  cfg.sense.rate_ki = 4000.0;
  cfg.sense.quad_kp = 30.0;
  cfg.sense.quad_ki = 4000.0;

  // Design-space-exploration outcome (see bench/ablation_partitioning): the
  // Brownian-excited sense carrier is sub-LSB at 12 bits, and quantizing a
  // narrowband sub-LSB signal folds correlated noise into the rate band —
  // 14-bit SAR converters restore the Brownian-limited floor.
  cfg.adc.bits = 14;
  cfg.adc.vref = 2.5;
  cfg.dac.bits = 12;
  cfg.dac.vref = 2.5;
  cfg.dac.update_rate = 240e3;
  return cfg;
}

GyroSystem::GyroSystem(const GyroSystemConfig& cfg) : cfg_(cfg) {
  // Area bookkeeping: the DSP IPs this customization instantiates on top of
  // the MCU subsystem (paper §4.3: ≈200 Kgates total digital).
  auto& area = platform_.area();
  for (const char* ip : {"nco", "pll_loop", "agc_loop", "iq_mod", "compensation",
                         "biquad_bank", "chain_ctrl", "fir"})
    area.instantiate(ip);
  area.instantiate("iq_demod", 2);
  area.instantiate("cic_decim", 2);
  area.instantiate("jtag_tap");  // analog die TAP
  for (const char* ip : {"charge_amp", "pga", "sar_adc12"}) area.instantiate(ip, 2);
  area.instantiate("dac12", 4);  // paper: couples of DACs per loop
  for (const char* ip : {"vref", "osc", "temp_sensor", "pad_ring"}) area.instantiate(ip);
  if (cfg.with_safety) area.instantiate("safety_monitor");

  define_registers();

  if (cfg.with_safety) {
    safety::SupervisorConfig sup;
    sup.fs = cfg_.analog_fs / cfg_.adc_div;
    sup.null_v = cfg_.sense.output_offset;
    sup.adc_vref = cfg_.adc.vref;
    sup.agc_gain_max = cfg_.drive.agc.gain_max;
    sup.ctrl_limit_v = cfg_.sense.ctrl_limit;
    sup.drive_amplitude_target = cfg_.drive.agc.target;
    supervisor_ = std::make_unique<safety::SafetySupervisor>(sup);
    supervisor_->attach(&platform_.regs(), reg::kDiag);
    if (auto* spi = platform_.spi())
      supervisor_->set_calibration_audit([spi] { return safety::audit_calibration(*spi); });
  }
  platform_.set_reset_hook([this] { recover_from_watchdog(); });

  build(cfg.seed);
}

void GyroSystem::define_registers() {
  using platform::RegKind;
  auto& rf = platform_.regs();
  rf.define("lock", reg::kLock, RegKind::Status);
  rf.declare_fields(reg::kLock, {{"pll_locked", 0, 1, /*writable=*/false, false},
                                 {"agc_settled", 1, 1, /*writable=*/false, false}});
  rf.define("freq", reg::kFreq, RegKind::Status);
  rf.define("agc_gain", reg::kAgcGain, RegKind::Status);
  rf.define("rate_out", reg::kRateOut, RegKind::Status);
  rf.define("quad", reg::kQuad, RegKind::Status);
  rf.define("temp", reg::kTemp, RegKind::Status);
  rf.define("mode", reg::kMode, RegKind::Config,
            cfg_.sense.mode == SenseMode::ClosedLoop ? 1 : 0, [this](std::uint16_t v) {
              cfg_.sense.mode = v ? SenseMode::ClosedLoop : SenseMode::OpenLoop;
            });
  rf.declare_fields(reg::kMode, {{"closed_loop", 0, 1, /*writable=*/true, false}});
  rf.define("sense_gain", reg::kSenseGain, RegKind::Config,
            static_cast<std::uint16_t>(cfg_.sense_pga_gain * 16.0), [this](std::uint16_t v) {
              cfg_.sense_pga_gain = static_cast<double>(v) / 16.0;
            });
  rf.declare_fields(reg::kSenseGain, {{"gain_x16", 0, 8, /*writable=*/true, false}});

  // Analog-die registers behind the second TAP (Fig. 2: JTAG on both dies).
  afe_regs_.define("pga_primary", reg::kAfePgaPrimary, RegKind::Config,
                   static_cast<std::uint16_t>(cfg_.primary_pga_gain * 16.0),
                   [this](std::uint16_t v) { cfg_.primary_pga_gain = v / 16.0; });
  afe_regs_.define("pga_sense", reg::kAfePgaSense, RegKind::Config,
                   static_cast<std::uint16_t>(cfg_.sense_pga_gain * 16.0),
                   [this](std::uint16_t v) { cfg_.sense_pga_gain = v / 16.0; });
  afe_regs_.define("adc_bits", reg::kAfeAdcBits, RegKind::Config,
                   static_cast<std::uint16_t>(cfg_.adc.bits),
                   [this](std::uint16_t v) { cfg_.adc.bits = static_cast<int>(v); });
  afe_regs_.declare_fields(reg::kAfePgaPrimary, {{"gain_x16", 0, 8, /*writable=*/true, false}});
  afe_regs_.declare_fields(reg::kAfePgaSense, {{"gain_x16", 0, 8, /*writable=*/true, false}});
  afe_regs_.declare_fields(reg::kAfeAdcBits, {{"bits", 0, 5, /*writable=*/true, false}});
  platform_.jtag_chain().add(&afe_tap_);
}

void GyroSystem::build(std::uint64_t seed) {
  Rng rng(seed);

  sensor::GyroMemsConfig mems_cfg = cfg_.mems;
  mems_cfg.sim_fs = cfg_.analog_fs;
  mems_ = std::make_unique<sensor::GyroMems>(mems_cfg, rng.fork(1));

  afe::ChargeAmpConfig champ = cfg_.charge_amp;
  champ.fs = cfg_.analog_fs;
  champ_primary_ = std::make_unique<afe::ChargeAmp>(champ, rng.fork(2));
  champ_sense_ = std::make_unique<afe::ChargeAmp>(champ, rng.fork(3));

  afe::FrontendConfig fe;
  fe.analog_fs = cfg_.analog_fs;
  fe.decimation = cfg_.adc_div;
  fe.adc = cfg_.adc;
  fe.amp.vsat = cfg_.adc.vref;
  fe.amp.gain = cfg_.primary_pga_gain;
  acq_primary_ = std::make_unique<afe::AcquisitionChannel>(fe, rng.fork(4));
  fe.amp.gain = cfg_.sense_pga_gain;
  acq_sense_ = std::make_unique<afe::AcquisitionChannel>(fe, rng.fork(5));

  dac_drive_ = std::make_unique<afe::Dac>(cfg_.dac, rng.fork(6));
  dac_ctrl_ = std::make_unique<afe::Dac>(cfg_.dac, rng.fork(7));
  temp_sensor_ = std::make_unique<afe::TempSensor>(0.3, 0.5, rng.fork(8));

  drive_ = std::make_unique<DriveLoop>(cfg_.drive);
  SenseChainConfig sense_cfg = cfg_.sense;
  sense_ = std::make_unique<SenseChain>(sense_cfg);
  sense_->set_compensation(cfg_.comp);

  // Ideal transduction gains mirror the Full chain's nominal gains so both
  // fidelities share servo tunings and calibration scale.
  const double champ_gain = champ.v_bias / champ.c_feedback_farads;  // V/F
  ideal_gain_primary_ = champ_gain * cfg_.primary_pga_gain;
  ideal_gain_sense_ = champ_gain * cfg_.sense_pga_gain;

  drive_v_ = ctrl_v_ = 0.0;
  last_output_ = cfg_.sense.output_offset;
  base_ticks_ = 0;
  dsp_samples_ = 0;
  obs_pll_prev_ = obs_agc_prev_ = obs_pll_ever_ = false;
  if (supervisor_) supervisor_->reset();
}

void GyroSystem::power_on(std::uint64_t seed) {
  cfg_.seed = seed;
  build(seed);
}

void GyroSystem::factory_calibrate() {
  set_compensation(run_calibration(*this));
  // Persist the trim in the boot EEPROM so the recovery path can replay it.
  if (auto* spi = platform_.spi()) safety::store_calibration(*spi, cfg_.comp);
  // The flow leaves the device soaked at the last calibration temperature;
  // re-arm it cold so characterization starts from a clean power-on.
  build(cfg_.seed);
}

void GyroSystem::set_observability(const obs::ObsSink& sink) {
  obs_ = sink;
  if (obs_.events) {
    obs_.events->declare_emitter(obs::EventCategory::Pll, "GyroSystem");
    obs_.events->declare_emitter(obs::EventCategory::Agc, "GyroSystem");
    obs_.events->declare_emitter(obs::EventCategory::Mcu, "GyroSystem");
    // The Probe category is claimed by whoever attaches a probe; when one is
    // already attached the declaration lands here too.
    if (probe_) obs_.events->declare_emitter(obs::EventCategory::Probe, "GyroSystem");
    if (obs_.spans) obs_.events->declare_emitter(obs::EventCategory::Trace, "GyroSystem");
  }
  // The profiler's tasks are the static schedule's, in its order. Each timed
  // task is recorded once, as a Scheduler-category span parented to the
  // enclosing gyro.run span.
  if (obs_.tasks) {
    const std::vector<TaskInfo> tasks = schedule_tasks();
    obs_t_analog_ = obs_.tasks->register_task(tasks[0].name, tasks[0].divider, tasks[0].phase);
    obs_t_frame_ = obs_.tasks->register_task(tasks[1].name, tasks[1].divider, tasks[1].phase);
    obs_.tasks->set_base_rate(cfg_.analog_fs);
    obs_.tasks->set_span_log(obs_.spans);
  }
  if (obs_.metrics) {
    obs_m_outputs_ = obs_.metrics->counter("gyro.output_samples");
    obs_m_dsp_ = obs_.metrics->counter("gyro.dsp_samples");
    obs_m_runs_ = obs_.metrics->counter("gyro.runs");
    obs_m_nonfinite_ = obs_.metrics->counter("afe.nonfinite_inputs");
    obs_h_output_v_ = obs_.metrics->histogram("gyro.output_v");
  }
  if (supervisor_) supervisor_->set_obs(obs_);
  if (campaign_) campaign_->set_obs(obs_, cfg_.analog_fs / cfg_.adc_div);
  platform_.cpu().set_profiler(obs_.mcu);
}

void GyroSystem::recover_from_watchdog() {
  if (obs_.events)
    obs_.events->emit(static_cast<double>(dsp_samples_) / (cfg_.analog_fs / cfg_.adc_div),
                      obs::EventSeverity::Warn, obs::EventCategory::Mcu, "mcu_recovery",
                      "watchdog reset: self-test + cal replay + reacquire");
  if (supervisor_) supervisor_->notify_watchdog_bite();

  // Boot-flow replay, the §4.2 reboot-from-EEPROM story: self-test first,
  // then calibration coefficients, then drive-loop re-acquisition.
  const auto st = platform::run_self_test(platform_);
  if (supervisor_) supervisor_->notify_selftest(st.all_passed());

  if (auto* spi = platform_.spi()) {
    const auto cal = safety::load_calibration(*spi);
    if (cal.status == safety::CalRecord::Status::Ok) {
      set_compensation(cal.coeffs);
      if (supervisor_) supervisor_->notify_cal_replay(true);
    } else if (cal.status == safety::CalRecord::Status::Corrupt) {
      // Corrupt trim image: condition with unity/zero safe defaults rather
      // than whatever stale coefficients the chain was running with — a
      // known-pessimistic output beats a plausible-but-wrong one.
      set_compensation(dsp::CompensationCoeffs{});
      if (supervisor_) supervisor_->notify_cal_replay(false);
    }
  }

  // The analog die was never reset; only the loops restart and re-acquire.
  drive_->reset();
  sense_->reset();

  // Re-arm the watchdog the way restarted boot firmware would: a PERIOD
  // rewrite clears the sticky bite flag, then CTRL re-enables.
  if (auto* wd = platform_.watchdog()) {
    wd->write_reg(1, wd->read_reg(1));
    wd->write_reg(2, 1);
  }
}

double GyroSystem::output_rate_hz() const {
  return cfg_.analog_fs / cfg_.adc_div / cfg_.sense.cic_ratio;
}

void GyroSystem::set_compensation(const dsp::CompensationCoeffs& c) {
  cfg_.comp = c;
  sense_->set_compensation(c);
}

void GyroSystem::set_trace(TraceRecorder* trace, std::size_t decimate) {
  trace_ = trace;
  trace_decimate_ = decimate;
  if (!trace_) return;
  const double fs_dsp = cfg_.analog_fs / cfg_.adc_div;
  for (const char* name : {"amplitude_control", "phase_error", "amplitude_error", "vco_control",
                           "pickoff"})
    trace_->open(name, 1.0 / fs_dsp, decimate);
  trace_->open("rate_out", 1.0 / output_rate_hz());
}

void GyroSystem::set_probe(sensor::Probe* probe) {
  probe_ = probe;
  if (probe_ && obs_.events) {
    obs_.events->declare_emitter(obs::EventCategory::Probe, "GyroSystem");
    obs_.events->emit(static_cast<double>(dsp_samples_) / (cfg_.analog_fs / cfg_.adc_div),
                      obs::EventSeverity::Debug, obs::EventCategory::Probe, "probe_attach");
  }
}

void GyroSystem::post_status(double measured_temp) {
  auto& rf = platform_.regs();
  rf.post_status(reg::kLock, static_cast<std::uint16_t>((drive_->pll_locked() ? 1 : 0) |
                                                        (drive_->locked() ? 2 : 0)));
  rf.post_status(reg::kFreq, static_cast<std::uint16_t>(drive_->frequency() / 4.0));
  rf.post_status(reg::kAgcGain, static_cast<std::uint16_t>(drive_->amplitude_control() * 1000.0));
  rf.post_status(reg::kRateOut, static_cast<std::uint16_t>(last_output_ * 1000.0));
  rf.post_status(reg::kQuad,
                 static_cast<std::uint16_t>(static_cast<std::int16_t>(sense_->raw_quad() * 1000.0)));
  rf.post_status(reg::kTemp,
                 static_cast<std::uint16_t>(static_cast<std::int16_t>(measured_temp * 8.0)));
}

GyroSystem::Group::Group(std::span<GroupMember> members) {
  for (GroupMember& m : members) {
    m.error = nullptr;
    Lane& lane = lanes[size];
    lane.member = &m;
    lane.index = size;
    rings[size] = m.sys->mems_.get();
    m.sys->begin_lane(lane);
    tick_taps |= lane.w_stim || lane.w_mems || lane.w_afe;
    profiled |= m.sys->obs_.tasks != nullptr;
    ++size;
  }
}

template <typename Fn>
void GyroSystem::Group::each(Fn&& fn) {
  // A lone member's exception unwinds the tick, as a solo run's always has;
  // run_group catches it.
  if (size == 1) return fn(*lanes[0].member->sys, std::size_t{0});
  bool dropped = false;
  for (std::size_t k = 0; k < size; ++k) {
    try {
      fn(*lanes[k].member->sys, k);
    } catch (...) {
      lanes[k].member->error = std::current_exception();
      dropped = true;
    }
  }
  if (dropped) drop_failed();
}

[[gnu::noinline]] void GyroSystem::Group::drop_failed() {
  // Keep the survivors in member order, their ring and tick data with them.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < size; ++k) {
    if (lanes[k].member->error) {
      lanes[k].member->sys->count_tasks(lanes[k], in_frame);
      if (crew) crew->leave(lanes[k].index);
      continue;
    }
    lanes[kept] = lanes[k];
    rings[kept] = rings[k];
    in[kept] = in[k];
    pick[kept] = pick[k];
    ++kept;
  }
  size = kept;
}

[[gnu::noinline]] void GyroSystem::Group::next_block() {
  if (crew->next_block()) ahead_left = NoiseCrew::kBlock - 1;
  else crew = nullptr;  // handed back: the rest of the run draws inline
}

void GyroSystem::begin_lane(Lane& m) {
  m.tick0 = base_ticks_;
  m.dt = 1.0 / cfg_.analog_fs;
  m.cpu_cycles_per_slow = cfg_.with_mcu ? platform_.cycles_per_sample(output_rate_hz()) : 0;
  // Probe taps are resolved once per run, so a detached probe (or one that
  // wants no tap this fidelity produces) costs nothing per tick.
  if (!probe_) return;
  m.w_stim = probe_->wants(sensor::ProbePoint::Stimulus);
  m.w_mems = probe_->wants(sensor::ProbePoint::PostMems);
  m.w_afe = cfg_.fidelity == Fidelity::Full && probe_->wants(sensor::ProbePoint::PostAfe);
  m.w_adc = probe_->wants(sensor::ProbePoint::PostAdc);
  m.w_out = probe_->wants(sensor::ProbePoint::DecimatedOutput);
}

NoiseMember GyroSystem::noise_member() {
  NoiseMember m;
  m.mems = mems_.get();
  if (cfg_.fidelity == Fidelity::Full) {
    m.charge_amp = {&champ_primary_->noise(), &champ_sense_->noise()};
    m.pga = {&acq_primary_->amplifier().noise(), &acq_sense_->amplifier().noise()};
  }
  return m;
}

void GyroSystem::analog_inputs(Group& g, std::size_t k) {
  Lane& m = g.lanes[k];
  sensor::GyroInputs& in = g.in[k];
  // base_ticks_ increments at the end of the analog tick (analog_afe), so
  // here it equals the global index of the current tick — the axis every
  // source samples on (SyntheticSource applies its own origin for
  // local-time runs, reproducing the historical tick·dt arithmetic).
  m.tick = base_ticks_;
  const sensor::StimulusSample smp = m.member->src->sample(base_ticks_);
  // The two stimulus fields are stored on either side of the branch: stored
  // together, they are packed into one vector through the stack, and that
  // reload stalls on store forwarding every tick.
  in.temp_c = smp.temp_c;
  if (cfg_.fidelity == Fidelity::Full) {
    in.v_drive = dac_drive_->output(m.dt, in.temp_c);
    in.v_control = dac_ctrl_->output(m.dt, in.temp_c);
  } else {
    in.v_drive = drive_v_;
    in.v_control = ctrl_v_;
  }
  in.rate_dps = smp.rate_dps;
}

void GyroSystem::analog_afe(Group& g, std::size_t k) {
  if (cfg_.fidelity == Fidelity::Full) {
    // The SAR converters decimate internally: an ADC code pops out of the
    // acquisition channel every adc_div analog steps.
    Lane& m = g.lanes[k];
    const double temp_c = g.in[k].temp_c;
    m.vp = champ_primary_->step(g.pick[k].dc_primary, temp_c);
    m.vs = champ_sense_->step(g.pick[k].dc_sense, temp_c);
    m.sp = acq_primary_->step(m.vp, temp_c);
    m.ss = acq_sense_->step(m.vs, temp_c);
  }
  ++base_ticks_;
}

void GyroSystem::dsp_frame(Group& g, std::size_t k) {
  Lane& m = g.lanes[k];
  const double temp_c = g.in[k].temp_c;
  const bool full = cfg_.fidelity == Fidelity::Full;
  // ---- sampling: the SAR pair, or the MATLAB level's ideal sampler
  double sp = 0.0, ss = 0.0;
  if (full) {
    if (!m.sp || !m.ss)
      throw std::logic_error("GyroSystem: DSP frame fired without a SAR conversion");
    sp = *m.sp;
    ss = *m.ss;
  } else {
    sp = ideal_gain_primary_ * g.pick[k].dc_primary;
    ss = ideal_gain_sense_ * g.pick[k].dc_sense;
  }
  if (m.w_adc) probe_->on_frame({sensor::ProbePoint::PostAdc, m.tick, sp, ss});

  // ---- fault campaign: the sample counter is the fault time base, so it
  // advances here even with no campaign attached
  ++dsp_samples_;
  if (campaign_) campaign_->step(dsp_samples_);

  // ---- drive servo + sense conditioning
  drive_v_ = drive_->step(sp);
  ctrl_v_ = sense_->step(ss, drive_->carrier_i(), drive_->carrier_q()).control_v;
  if (full) {
    dac_drive_->write_volts(drive_v_);
    dac_ctrl_->write_volts(ctrl_v_);
  }

  // ---- safety supervisor
  if (supervisor_) {
    safety::FastSample fsmp;
    fsmp.primary_adc_v = sp;
    fsmp.sense_adc_v = ss;
    fsmp.pll_locked = drive_->pll_locked();
    fsmp.loop_settled = drive_->locked();
    fsmp.agc_gain = drive_->amplitude_control();
    fsmp.amplitude = drive_->amplitude();
    fsmp.control_v = ctrl_v_;
    supervisor_->on_fast(fsmp);
  }

  // ---- observability edge detectors: read-only taps on the drive loop.
  // PLL lock / lock-loss / relock and AGC settle / unsettle become
  // structured events; a detached run never reads obs state.
  if (obs_.events) {
    const double t = static_cast<double>(dsp_samples_) / (cfg_.analog_fs / cfg_.adc_div);
    const bool pll = drive_->pll_locked();
    if (pll != obs_pll_prev_) {
      if (pll) {
        obs_.events->emit(t, obs::EventSeverity::Info, obs::EventCategory::Pll,
                          obs_pll_ever_ ? "pll_relock" : "pll_lock", {},
                          {{"freq_hz", drive_->frequency()}});
        obs_pll_ever_ = true;
      } else {
        obs_.events->emit(t, obs::EventSeverity::Warn, obs::EventCategory::Pll,
                          "pll_lock_loss");
      }
      obs_pll_prev_ = pll;
    }
    const bool settled = drive_->locked();
    if (settled != obs_agc_prev_) {
      obs_.events->emit(t, obs::EventSeverity::Info, obs::EventCategory::Agc,
                        settled ? "agc_settled" : "agc_unsettled", {},
                        {{"gain", drive_->amplitude_control()},
                         {"amplitude", drive_->amplitude()}});
      obs_agc_prev_ = settled;
    }
  }

  // ---- trace tap
  if (trace_) {
    trace_->push("amplitude_control", drive_->amplitude_control());
    trace_->push("phase_error", drive_->phase_error());
    trace_->push("amplitude_error", drive_->amplitude_error());
    trace_->push("vco_control", drive_->vco_control());
    trace_->push("pickoff", sp);
  }

  // ---- decimated output rate (1.875 kHz) + MCU monitor slice. The
  // temperature sensor is read every DSP sample (its noise stream is part of
  // the sample clock domain); the CIC decides when a slow sample completes.
  const double measured_temp = temp_sensor_ ? temp_sensor_->read(temp_c) : temp_c;
  const double comp_temp = supervisor_ ? supervisor_->comp_temp(measured_temp) : measured_temp;
  const auto slow = sense_->slow_output(comp_temp);
  if (!slow) return;
  double out_v = slow->rate;
  if (supervisor_) {
    const auto decision = supervisor_->on_slow({slow->rate, slow->quad, measured_temp});
    out_v = decision.output_v;
  }
  last_output_ = out_v;
  if (m.member->out) m.member->out->push_back(out_v);
  if (m.w_out)
    probe_->on_frame({sensor::ProbePoint::DecimatedOutput, m.tick, out_v, measured_temp});
  if (obs_.metrics) {
    obs_.metrics->add(obs_m_outputs_);
    obs_.metrics->observe(obs_h_output_v_, out_v);
  }
  if (trace_) trace_->push("rate_out", out_v);
  post_status(measured_temp);
  if (cfg_.with_mcu && m.cpu_cycles_per_slow > 0) platform_.run_cpu(m.cpu_cycles_per_slow);
  if (auto* sram = platform_.sram_trace()) {
    // Selectable chain nodes (paper §4.2: "digital data coming from any node
    // of the DSP chain"), Q3.12 signed format.
    const auto q312 = [](double v) {
      return static_cast<std::uint16_t>(static_cast<std::int32_t>(v * 8192.0) & 0xFFFF);
    };
    sram->push(0, q312(sense_->raw_rate()));
    sram->push(1, q312(sense_->raw_quad()));
    sram->push(2, q312(drive_->amplitude()));
    sram->push(3, q312(drive_->amplitude_control()));
    sram->push(4, q312(drive_->vco_control() / 16.0));
  }
}

void GyroSystem::run_analog(Group& g, long n) {
  // ---- analog tick (1.92 MHz): environment, DACs, MEMS, charge amps, AFE.
  // Every member's inputs are staged, then one lane call steps all rings; a
  // lone ring takes step(), the one-lane instance, without the dispatch.
  // The per-tick probe taps follow, read-only, when a member's probe wants
  // one (the post-ADC and output taps ride in the DSP frame).
  for (long i = 0; i < n; ++i) {
    if (g.crew && g.ahead_left-- == 0) g.next_block();
    g.each([&g](GyroSystem& s, std::size_t k) { s.analog_inputs(g, k); });
    if (g.size == 1)
      g.pick[0] = g.rings[0]->step(g.in[0]);
    else if (g.size > 1)
      sensor::GyroMems::step_lanes({g.rings.data(), g.size}, {g.in.data(), g.size},
                                   {g.pick.data(), g.size});
    g.each([&g](GyroSystem& s, std::size_t k) { s.analog_afe(g, k); });
    if (g.tick_taps) tap_tick(g);
  }
}

void GyroSystem::run_dsp(Group& g) {
  // ---- DSP frame (240 kHz): every DSP-rate stage, once per conversion ----
  g.in_frame = true;
  g.each([&g](GyroSystem& s, std::size_t k) { s.dsp_frame(g, k); });
  g.in_frame = false;
}

[[gnu::noinline]] void GyroSystem::run_timed(Group& g, long n, bool dsp) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  run_analog(g, n);
  const auto t1 = clock::now();
  if (dsp) run_dsp(g);
  const auto t2 = dsp ? clock::now() : t1;
  if (g.size == 0) return;
  // Each running member is booked an equal share of the frame.
  const double share = 1.0 / static_cast<double>(g.size);
  const double analog = std::chrono::duration<double>(t1 - t0).count() * share;
  const double frame = std::chrono::duration<double>(t2 - t1).count() * share;
  for (std::size_t k = 0; k < g.size; ++k) {
    const Lane& m = g.lanes[k];
    obs::TaskProfiler* tasks = m.member->sys->obs_.tasks;
    if (!tasks) continue;
    tasks->record(m.member->sys->obs_t_analog_, m.tick + 1 - n, n, analog);
    if (dsp) tasks->record(m.member->sys->obs_t_frame_, m.tick, 1, frame);
  }
}

void GyroSystem::count_tasks(const Lane& m, bool in_frame) {
  if (!obs_.tasks) return;
  const bool threw = m.member->error != nullptr;
  const long end = threw ? m.tick : base_ticks_;
  // The conversions among ticks [tick0, end): ticks ≡ adc_div − 1.
  const long div = cfg_.adc_div;
  obs_.tasks->count(obs_t_analog_, static_cast<std::uint64_t>(end - m.tick0 + (threw && in_frame)));
  obs_.tasks->count(obs_t_frame_, static_cast<std::uint64_t>(end / div - m.tick0 / div));
}

[[gnu::noinline]] void GyroSystem::tap_tick(Group& g) {
  g.each([&g](GyroSystem& s, std::size_t k) {
    using sensor::ProbePoint;
    const Lane& m = g.lanes[k];
    const sensor::GyroInputs& in = g.in[k];
    if (m.w_stim) s.probe_->on_frame({ProbePoint::Stimulus, m.tick, in.rate_dps, in.temp_c});
    if (m.w_mems)
      s.probe_->on_frame({ProbePoint::PostMems, m.tick, g.pick[k].dc_primary, g.pick[k].dc_sense});
    if (m.w_afe) s.probe_->on_frame({ProbePoint::PostAfe, m.tick, m.vp, m.vs});
  });
}

std::optional<GyroSystem::LaneKey> GyroSystem::lane_key() const {
  if (cfg_.fidelity == Fidelity::Full) return std::nullopt;
  return LaneKey{cfg_.analog_fs, cfg_.adc_div, base_ticks_ % cfg_.adc_div};
}

void GyroSystem::serialize_state(StateArchive& ar) {
  ar.begin_section("GSYS");
  // Runtime-mutable config knobs. Register hooks mutate cfg_ when firmware
  // or JTAG writes config registers mid-run; the raw register restore below
  // deliberately does not re-fire hooks, so the knobs travel explicitly.
  std::int32_t mode = static_cast<std::int32_t>(cfg_.sense.mode);
  ar.value(mode);
  if (!ar.saving()) cfg_.sense.mode = static_cast<SenseMode>(mode);
  ar.value(cfg_.primary_pga_gain);
  ar.value(cfg_.sense_pga_gain);
  std::int32_t adc_bits = cfg_.adc.bits;
  ar.value(adc_bits);
  if (!ar.saving()) cfg_.adc.bits = adc_bits;
  for (auto& o : cfg_.comp.offset) ar.value(o);
  ar.value(cfg_.comp.s0);
  ar.value(cfg_.comp.s1);
  ar.value(cfg_.comp.s2);
  if (!ar.saving()) sense_->set_compensation(cfg_.comp);

  // Components, in pipeline order. All exist at every fidelity (build()
  // constructs them unconditionally).
  mems_->serialize_state(ar);
  champ_primary_->serialize_state(ar);
  champ_sense_->serialize_state(ar);
  acq_primary_->serialize_state(ar);
  acq_sense_->serialize_state(ar);
  dac_drive_->serialize_state(ar);
  dac_ctrl_->serialize_state(ar);
  temp_sensor_->serialize_state(ar);
  drive_->serialize_state(ar);
  sense_->serialize_state(ar);

  ar.value(drive_v_);
  ar.value(ctrl_v_);
  ar.value(last_output_);
  std::int64_t base = base_ticks_, dsp = dsp_samples_;
  ar.value(base);
  ar.value(dsp);
  if (!ar.saving()) {
    base_ticks_ = static_cast<long>(base);
    dsp_samples_ = static_cast<long>(dsp);
    // The DSP frame fires on base_ticks_'s conversion cadence and takes the
    // SAR pair the converters' own phase counters produce on that tick.
    // Ideal fidelity never steps the converters.
    const long phase = base_ticks_ % cfg_.adc_div;
    if (cfg_.fidelity == Fidelity::Full &&
        (acq_primary_->phase() != phase || acq_sense_->phase() != phase))
      throw StateError("checkpoint SAR phase disagrees with the tick counter");
  }
  ar.value(obs_pll_prev_);
  ar.value(obs_agc_prev_);
  ar.value(obs_pll_ever_);

  bool has_sup = supervisor_ != nullptr;
  ar.value(has_sup);
  if (has_sup != (supervisor_ != nullptr))
    throw StateError("checkpoint safety-supervisor presence mismatch");
  if (supervisor_) supervisor_->serialize_state(ar);

  platform_.serialize_state(ar);
  afe_regs_.serialize_values(ar);
  ar.end_section();
}

std::vector<TaskInfo> GyroSystem::schedule_tasks() const {
  const long div = cfg_.adc_div;
  return {{"analog", 1, 0}, {"dsp_frame", div, div - 1}};
}

void GyroSystem::run(const sensor::Profile& rate, const sensor::Profile& temp, double seconds,
                     std::vector<double>* out) {
  // Profiles are evaluated from t = 0 at the start of this call (the
  // RateSensor contract) unless the owner pinned the stimulus to the global
  // tick axis; either way the arithmetic inside SyntheticSource is exactly
  // the historical tick·dt evaluation, so this wrapper is bit-identical to
  // the pre-seam hard-wired path.
  sensor::SyntheticSource src(rate, temp, cfg_.analog_fs,
                              cfg_.stimulus_global_time ? 0 : base_ticks_);
  run(src, seconds, out);
}

void GyroSystem::run(sensor::StimulusSource& src, double seconds, std::vector<double>* out) {
  GroupMember self{this, &src, out, {}};
  run_group({&self, 1}, seconds);
  if (self.error) std::rethrow_exception(self.error);
}

void GyroSystem::run_group(std::span<GroupMember> members, double seconds) {
  if (members.empty() || members.size() > Group::kMax)
    throw std::invalid_argument("GyroSystem::run_group: 1 to GyroMems::kLanes members");
  GyroSystem& lead = *members[0].sys;
  if (members.size() > 1) {
    const std::optional<LaneKey> key = lead.lane_key();
    for (std::size_t k = 0; k < members.size(); ++k) {
      GyroSystem* sys = members[k].sys;
      if (!key || sys->lane_key() != key)
        throw std::invalid_argument("GyroSystem::run_group: members need one lane key");
      for (std::size_t j = 0; j < k; ++j)
        if (members[j].sys == sys)
          throw std::invalid_argument("GyroSystem::run_group: a system listed twice");
    }
  }

  Group g(members);
  // Every member keeps a solo run's bookkeeping in its own obs bundle.
  std::array<RunBooks, Group::kMax> books;
  for (std::size_t k = 0; k < members.size(); ++k) members[k].sys->begin_run(books[k]);
  const auto wall0 = std::chrono::steady_clock::now();
  const long ticks = static_cast<long>(seconds * lead.cfg_.analog_fs + 0.5);
  // The noise is drawn ahead on this thread's crew where the run allows.
  if (NoiseCrew* crew = ticks >= NoiseCrew::kBlock ? NoiseCrew::here() : nullptr) {
    std::array<NoiseMember, Group::kMax> noise;
    for (std::size_t k = 0; k < g.size; ++k) noise[k] = members[k].sys->noise_member();
    if (crew->begin({noise.data(), g.size}, ticks)) {
      g.crew = crew;
      g.ahead_left = NoiseCrew::kBlock;
    }
  }
  try {
    // One frame per pass: the analog ticks up to and including the next
    // conversion's last clock (a SAR finishing its cycle on the adc_div-th
    // clock, global tick ≡ adc_div − 1), then the DSP frame. A run may begin
    // or end mid-frame; every member shares the lead's phase (lane_key).
    // Frames run while any member runs: once the last one has thrown,
    // nothing is left to advance. Full fidelity's SAR converters count the
    // same cadence in their own phase counters, which restore checks
    // against base_ticks_.
    const long div = lead.cfg_.adc_div;
    long tick = lead.base_ticks_;
    for (long left = ticks; left > 0 && g.size > 0;) {
      const long to_dsp = div - tick % div;
      const long n = std::min(left, to_dsp);
      if (g.profiled && obs::TaskProfiler::timed_frame(tick / div)) {
        run_timed(g, n, n == to_dsp);
      } else {
        run_analog(g, n);
        if (n == to_dsp) run_dsp(g);
      }
      tick += n;
      left -= n;
    }
  } catch (...) {
    // Only a lone member's exception gets here (Group::each).
    g.lanes[0].member->error = std::current_exception();
    g.lanes[0].member->sys->count_tasks(g.lanes[0], g.in_frame);
    if (g.crew) g.crew->leave(g.lanes[0].index);
    g.size = 0;
  }
  if (g.crew) {
    if (g.size > 0) g.crew->end();
    else g.crew->abandon();
  }
  for (std::size_t k = 0; k < g.size; ++k) g.lanes[k].member->sys->count_tasks(g.lanes[k], false);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count() /
      static_cast<double>(members.size());
  for (std::size_t k = 0; k < members.size(); ++k)
    members[k].sys->end_run(books[k], seconds, wall, members[k].error != nullptr);
}

std::uint64_t GyroSystem::nonfinite_conversions() const {
  return acq_primary_->adc().nonfinite_inputs() + acq_sense_->adc().nonfinite_inputs();
}

void GyroSystem::begin_run(RunBooks& b) {
  b.dsp_samples = dsp_samples_;
  b.nonfinite = nonfinite_conversions();
  b.t_sim0 = static_cast<double>(base_ticks_) / cfg_.analog_fs;
  if (obs_.spans && obs_.events && !obs_trace_announced_) {
    obs_trace_announced_ = true;
    obs_.events->emit(b.t_sim0, obs::EventSeverity::Debug, obs::EventCategory::Trace,
                      "trace_begin", {},
                      {{"trace_id", static_cast<double>(obs_.spans->trace_id())}});
  }
  b.span.emplace(obs_.spans, "gyro.run", obs::SpanCategory::Scheduler, b.t_sim0);
}

void GyroSystem::end_run(RunBooks& b, double seconds, double wall, bool threw) {
  // One add per run, not one per DSP frame or conversion; a run that threw
  // counts the frames and NaN conversions it ran, so a crash image holds the
  // same counters.
  if (obs_.metrics && dsp_samples_ != b.dsp_samples)
    obs_.metrics->add(obs_m_dsp_, static_cast<double>(dsp_samples_ - b.dsp_samples));
  if (const std::uint64_t nan = nonfinite_conversions() - b.nonfinite; obs_.metrics && nan)
    obs_.metrics->add(obs_m_nonfinite_, static_cast<double>(nan));
  // A run that threw leaves its span to close as an unwound one.
  if (threw) return;
  b.span->close(b.t_sim0 + seconds, wall * 1e6);
  if (obs_.tasks) obs_.tasks->record_run(seconds, wall);
  if (obs_.metrics) obs_.metrics->add(obs_m_runs_);
}

}  // namespace ascp::core
