#include "safety/supervisor.hpp"

#include <algorithm>
#include <cmath>

namespace ascp::safety {

namespace {
int bit_index(std::uint16_t bit) {
  int i = 0;
  while (bit > 1) {
    bit = static_cast<std::uint16_t>(bit >> 1);
    ++i;
  }
  return i;
}
}  // namespace

void SafetySupervisor::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  if (obs_.events) {
    obs_.events->declare_emitter(obs::EventCategory::Supervisor, "SafetySupervisor");
    obs_.events->declare_emitter(obs::EventCategory::Dtc, "SafetySupervisor");
    obs_.events->declare_emitter(obs::EventCategory::Watchdog, "SafetySupervisor");
  }
}

void SafetySupervisor::set_state(SafetyState next) {
  if (next == state_) return;
  const SafetyState prev = state_;
  state_ = next;
  if (obs_.events) {
    // A step toward SAFE_STATE is bad news; a step back down is recovery.
    const bool worse = static_cast<int>(next) > static_cast<int>(prev);
    obs_.events->emit(sim_time(), worse ? obs::EventSeverity::Warn : obs::EventSeverity::Info,
                      obs::EventCategory::Supervisor, "state_transition",
                      std::string(state_name(prev)) + "->" + state_name(next),
                      {{"from", static_cast<double>(prev)}, {"to", static_cast<double>(next)}});
  }
  if (obs_.metrics)
    obs_.metrics->add(obs_.metrics->counter("supervisor.state_transitions"));
}

void SafetySupervisor::attach(platform::RegisterFile* regs, std::uint16_t base) {
  regs_ = regs;
  diag_base_ = base;
  if (!diag_defined_) {
    using platform::RegKind;
    regs_->define("diag_dtc", static_cast<std::uint16_t>(base + diag::kDtcReg),
                  RegKind::Status);
    regs_->define("diag_state", static_cast<std::uint16_t>(base + diag::kState),
                  RegKind::Status);
    regs_->define("diag_flags", static_cast<std::uint16_t>(base + diag::kFlags),
                  RegKind::Status);
    regs_->define("diag_events", static_cast<std::uint16_t>(base + diag::kEvents),
                  RegKind::Status);
    regs_->define("diag_clear", static_cast<std::uint16_t>(base + diag::kClear),
                  RegKind::Config, 0, [this](std::uint16_t v) {
                    if (v == diag::kClearMagic) clear_dtcs();
                  });
    // Field layouts for the static register-map checker.
    regs_->declare_fields(static_cast<std::uint16_t>(base + diag::kDtcReg),
                          {{"dtc_mask", 0, 16, /*writable=*/false, false}});
    regs_->declare_fields(static_cast<std::uint16_t>(base + diag::kState),
                          {{"state", 0, 2, /*writable=*/false, false}});
    regs_->declare_fields(static_cast<std::uint16_t>(base + diag::kFlags),
                          {{"output_nulled", 0, 1, /*writable=*/false, false}});
    regs_->declare_fields(static_cast<std::uint16_t>(base + diag::kClear),
                          {{"clear_magic", 0, 16, /*writable=*/true, false}});
    diag_defined_ = true;
  }
  post_diag();
}

void SafetySupervisor::on_fast(const FastSample& s) {
  ++fast_index_;

  settle_run_ = s.loop_settled ? settle_run_ + 1 : 0;

  if (!armed_) {
    // Monitors are blind until the drive loop has stayed settled for a
    // sustained spell: start-up transients (no lock, zero amplitude, railed
    // AGC, the settle flag blipping as the amplitude first sweeps through
    // its tolerance band) are all nominal.
    if (settle_run_ >= cfg_.arm_settle_samples) {
      capture_baselines(s);
      armed_ = true;
      last_primary_ = s.primary_adc_v;
      last_sense_ = s.sense_adc_v;
    }
    return;
  }

  // Re-baseline the loop gain whenever the loop re-settles for a sustained
  // spell (post-recovery the AGC may legitimately land on a slightly
  // different operating point). Fires exactly once per settle crossing.
  if (settle_run_ == cfg_.arm_settle_samples) agc_baseline_ = s.agc_gain;

  // Every monitor threshold (here, in on_slow and in comp_temp) reads "not
  // inside the healthy band", so a NaN observable trips its monitor instead
  // of slipping past every comparison.

  // PLL lock loss (long debounce: reacquisition blips must not latch).
  if (!s.pll_locked) {
    if (unlock_run_ < cfg_.unlock_trip_samples) ++unlock_run_;
    if (unlock_run_ >= cfg_.unlock_trip_samples) latch(kDtcPllUnlock);
  } else {
    unlock_run_ = 0;
  }

  // AGC actuator pinned at its upper rail.
  if (!(s.agc_gain < cfg_.agc_rail_frac * cfg_.agc_gain_max)) {
    if (agc_rail_run_ < cfg_.fast_trip_samples) ++agc_rail_run_;
    if (agc_rail_run_ >= cfg_.fast_trip_samples) latch(kDtcAgcRail);
  } else {
    agc_rail_run_ = 0;
  }

  // Force-feedback control pinned at its rail (critical: the rebalancing
  // loop has run out of authority, the output is no longer trustworthy).
  if (!(std::abs(s.control_v) < cfg_.ctrl_rail_frac * cfg_.ctrl_limit_v)) {
    if (ctrl_rail_run_ < cfg_.fast_trip_samples) ++ctrl_rail_run_;
    if (ctrl_rail_run_ >= cfg_.fast_trip_samples) latch(kDtcCtrlRail);
  } else {
    ctrl_rail_run_ = 0;
  }

  // Drive-pickoff amplitude collapse (critical: no carrier, no rate).
  if (!(s.amplitude >= cfg_.drive_collapse_frac * cfg_.drive_amplitude_target)) {
    if (collapse_run_ < cfg_.fast_trip_samples) ++collapse_run_;
    if (collapse_run_ >= cfg_.fast_trip_samples) latch(kDtcDriveCollapse);
  } else {
    collapse_run_ = 0;
  }

  // Loop-gain anomaly: the AGC quietly re-trims around reference drift and
  // PGA gain faults, so the *actuator position* is the observable.
  if (agc_baseline_ > 0.0 &&
      !(std::abs(s.agc_gain - agc_baseline_) <= cfg_.gain_anomaly_frac * agc_baseline_)) {
    if (gain_run_ < cfg_.fast_trip_samples) ++gain_run_;
    if (gain_run_ >= cfg_.fast_trip_samples) latch(kDtcGainAnomaly);
  } else {
    gain_run_ = 0;
  }

  // ADC stuck-code detectors. The primary (drive pickoff) channel carries a
  // live carrier, so *any* repeated code is implausible. The sense channel
  // is actively nulled around mid-scale; only a code pinned away from null
  // (at a rail) is distinguishable from healthy operation.
  if (s.primary_adc_v == last_primary_) {
    if (stuck_primary_ < cfg_.adc_stuck_samples) ++stuck_primary_;
    if (stuck_primary_ >= cfg_.adc_stuck_samples) latch(kDtcAdcStuck);
  } else {
    stuck_primary_ = 0;
  }
  last_primary_ = s.primary_adc_v;

  if (s.sense_adc_v == last_sense_ && std::abs(s.sense_adc_v) >= 0.5 * cfg_.adc_vref) {
    if (stuck_sense_ < cfg_.adc_stuck_samples) ++stuck_sense_;
    if (stuck_sense_ >= cfg_.adc_stuck_samples) latch(kDtcAdcStuck);
  } else {
    stuck_sense_ = 0;
  }
  last_sense_ = s.sense_adc_v;
}

SlowDecision SafetySupervisor::on_slow(const SlowSample& s) {
  ++slow_index_;

  if (armed_) {
    rate_active_ = !(std::abs(s.rate_v - cfg_.null_v) <= cfg_.rate_range_v);
    if (rate_active_) latch(kDtcRateRange);

    quad_active_ = !(std::abs(s.quad_v) <= cfg_.quad_range_v);
    if (quad_active_) latch(kDtcQuadRange);

    if (cfg_.scrub_interval_slow > 0 && slow_index_ % cfg_.scrub_interval_slow == 0)
      scrub_config();

    if (audit_ && cfg_.audit_interval_slow > 0 &&
        slow_index_ % cfg_.audit_interval_slow == 0) {
      if (!audit_()) latch(kDtcCalCrc);
    }
  }

  // Degradation state machine. Escalation needs a *critical* condition to
  // stay active; recovery needs every condition quiet. Both are counted in
  // output samples so the timing is rate-independent.
  const bool critical = rate_active_ ||
                        stuck_primary_ >= cfg_.adc_stuck_samples ||
                        stuck_sense_ >= cfg_.adc_stuck_samples ||
                        collapse_run_ >= cfg_.fast_trip_samples ||
                        ctrl_rail_run_ >= cfg_.fast_trip_samples;
  critical_slow_ = critical ? std::min(critical_slow_ + 1, cfg_.escalate_slow) : 0;
  quiet_slow_ = any_condition_active() ? 0 : std::min(quiet_slow_ + 1, cfg_.recover_slow);

  switch (state_) {
    case SafetyState::Nominal:
      // latch() moves Nominal → Degraded; nothing to do here.
      break;
    case SafetyState::Degraded:
      if (critical_slow_ >= cfg_.escalate_slow) {
        set_state(SafetyState::SafeState);
      } else if (quiet_slow_ >= cfg_.recover_slow) {
        set_state(SafetyState::Nominal);
        nominal_return_fast_ = fast_index_;
        quiet_slow_ = 0;
      }
      break;
    case SafetyState::SafeState:
      if (quiet_slow_ >= cfg_.recover_slow) {
        set_state(SafetyState::Degraded);
        quiet_slow_ = 0;
      }
      break;
  }

  SlowDecision d;
  d.state = state_;
  if (state_ == SafetyState::SafeState) {
    d.output_v = cfg_.null_v;
    d.output_forced = true;
  } else {
    d.output_v = s.rate_v;
    d.output_forced = false;
  }
  post_diag();
  return d;
}

double SafetySupervisor::comp_temp(double measured_c) {
  // A NaN reading is implausible too: it must not become the last good one.
  const bool implausible = !(measured_c >= cfg_.temp_min_c && measured_c <= cfg_.temp_max_c);
  if (implausible) {
    temp_active_ = true;
    latch(kDtcTempRange);
    temp_frozen_ = true;
    return last_good_temp_;
  }
  temp_active_ = false;

  // Reference drift / PGA gain faults skew the ADC transfer function; the
  // measured temperature rides the same references, so compensation must
  // not re-trim the output from it while GAIN_ANOMALY is active.
  if (gain_run_ >= cfg_.fast_trip_samples) {
    temp_frozen_ = true;
    return last_good_temp_;
  }

  temp_frozen_ = false;
  last_good_temp_ = measured_c;
  return measured_c;
}

void SafetySupervisor::notify_watchdog_bite() {
  if (obs_.events)
    obs_.events->emit(sim_time(), obs::EventSeverity::Error, obs::EventCategory::Watchdog,
                      "watchdog_bite");
  if (obs_.metrics) obs_.metrics->add(obs_.metrics->counter("supervisor.watchdog_bites"));
  latch(kDtcWatchdogBite);
}

void SafetySupervisor::notify_selftest(bool passed) {
  if (!passed) latch(kDtcSelfTest);
}

void SafetySupervisor::notify_cal_replay(bool ok) {
  if (!ok) {
    // A corrupt image on the recovery path gets its own code (CAL_REPLAY) on
    // top of the CRC one: the service tool must see that the chain is now
    // running on substituted safe-default coefficients, not merely that an
    // audit observed a bad CRC at some point.
    latch(kDtcCalCrc);
    latch(kDtcCalReplay);
  }
}

void SafetySupervisor::rescan_config_shadows() {
  shadows_.clear();
  if (!regs_) return;
  for (const auto& r : regs_->dump()) {
    if (r.kind != platform::RegKind::Config) continue;
    // The DIAG block's own clear register is service-tool writable; shadowing
    // it would turn every legitimate clear into a CFG_CORRUPT false positive.
    if (diag_defined_ && r.addr >= diag_base_ && r.addr < diag_base_ + 5) continue;
    shadows_.push_back({r.addr, r.value});
  }
}

long SafetySupervisor::first_latch_fast(std::uint16_t dtc_bit) const {
  return first_latch_[static_cast<std::size_t>(bit_index(dtc_bit))];
}

void SafetySupervisor::clear_dtcs() {
  if (obs_.events && dtcs_)
    obs_.events->emit(sim_time(), obs::EventSeverity::Info, obs::EventCategory::Dtc,
                      "dtc_clear", describe_dtcs(dtcs_));
  dtcs_ = 0;
  post_diag();
}

void SafetySupervisor::reset() {
  state_ = SafetyState::Nominal;
  dtcs_ = 0;
  events_ = 0;
  armed_ = false;
  settle_run_ = 0;
  fast_index_ = 0;
  slow_index_ = 0;
  first_latch_.fill(-1);
  nominal_return_fast_ = -1;
  agc_baseline_ = 0.0;
  last_primary_ = 0.0;
  last_sense_ = 0.0;
  stuck_primary_ = 0;
  stuck_sense_ = 0;
  unlock_run_ = 0;
  agc_rail_run_ = 0;
  ctrl_rail_run_ = 0;
  collapse_run_ = 0;
  gain_run_ = 0;
  rate_active_ = false;
  quad_active_ = false;
  temp_active_ = false;
  temp_frozen_ = false;
  last_good_temp_ = 25.0;
  critical_slow_ = 0;
  quiet_slow_ = 0;
  shadows_.clear();
  if (regs_) post_diag();
}

void SafetySupervisor::serialize_state(StateArchive& ar) {
  ar.enum_value(state_);
  ar.value(dtcs_);
  ar.value(events_);
  ar.value(armed_);
  std::int64_t sr = settle_run_, fi = fast_index_, si = slow_index_,
               nr = nominal_return_fast_;
  ar.value(sr);
  ar.value(fi);
  ar.value(si);
  ar.value(nr);
  settle_run_ = static_cast<long>(sr);
  fast_index_ = static_cast<long>(fi);
  slow_index_ = static_cast<long>(si);
  nominal_return_fast_ = static_cast<long>(nr);
  for (auto& f : first_latch_) {
    std::int64_t v = f;
    ar.value(v);
    f = static_cast<long>(v);
  }
  ar.value(agc_baseline_);
  ar.value(last_primary_);
  ar.value(last_sense_);
  auto int_field = [&ar](int& v) {
    std::int32_t x = v;
    ar.value(x);
    v = x;
  };
  int_field(stuck_primary_);
  int_field(stuck_sense_);
  int_field(unlock_run_);
  int_field(agc_rail_run_);
  int_field(ctrl_rail_run_);
  int_field(collapse_run_);
  int_field(gain_run_);
  ar.value(rate_active_);
  ar.value(quad_active_);
  ar.value(temp_active_);
  ar.value(temp_frozen_);
  ar.value(last_good_temp_);
  int_field(critical_slow_);
  int_field(quiet_slow_);
  std::uint32_t n_shadows = static_cast<std::uint32_t>(shadows_.size());
  ar.value(n_shadows);
  if (!ar.saving()) {
    if (n_shadows > ar.remaining() / (2 * sizeof(std::uint16_t)))
      throw StateError("checkpoint supervisor shadow count implausible");
    shadows_.resize(n_shadows);
  }
  for (auto& sh : shadows_) {
    ar.value(sh.addr);
    ar.value(sh.value);
  }
  // DIAG registers are restored raw by the register file, but re-posting
  // keeps them coherent even if that ordering ever changes.
  if (!ar.saving()) post_diag();
}

void SafetySupervisor::latch(std::uint16_t dtc_bit) {
  if (dtcs_ & dtc_bit) return;
  dtcs_ |= dtc_bit;
  ++events_;
  auto& first = first_latch_[static_cast<std::size_t>(bit_index(dtc_bit))];
  if (first < 0) first = fast_index_;
  if (obs_.events)
    obs_.events->emit(sim_time(), obs::EventSeverity::Error, obs::EventCategory::Dtc,
                      "dtc_latch", dtc_name(dtc_bit),
                      {{"mask", static_cast<double>(dtcs_)}});
  if (obs_.metrics) obs_.metrics->add(obs_.metrics->counter("supervisor.dtc_latches"));
  if (state_ == SafetyState::Nominal) set_state(SafetyState::Degraded);
  post_diag();
}

void SafetySupervisor::capture_baselines(const FastSample& s) {
  agc_baseline_ = s.agc_gain;
  rescan_config_shadows();
}

void SafetySupervisor::scrub_config() {
  if (!regs_) return;
  for (const auto& sh : shadows_) {
    const std::uint16_t cur = regs_->read(sh.addr);
    if (cur == sh.value) continue;
    latch(kDtcCfgCorrupt);
    // Repair through the normal write path so config hooks re-sync the
    // datapath with the restored value.
    regs_->write(sh.addr, sh.value);
  }
}

void SafetySupervisor::post_diag() {
  if (!regs_ || !diag_defined_) return;
  regs_->post_status(static_cast<std::uint16_t>(diag_base_ + diag::kDtcReg), dtcs_);
  regs_->post_status(static_cast<std::uint16_t>(diag_base_ + diag::kState),
                     static_cast<std::uint16_t>(state_));
  regs_->post_status(static_cast<std::uint16_t>(diag_base_ + diag::kFlags),
                     state_ == SafetyState::SafeState ? 1u : 0u);
  regs_->post_status(static_cast<std::uint16_t>(diag_base_ + diag::kEvents), events_);
}

bool SafetySupervisor::any_condition_active() const {
  return rate_active_ || quad_active_ || temp_active_ ||
         unlock_run_ >= cfg_.unlock_trip_samples ||
         agc_rail_run_ >= cfg_.fast_trip_samples ||
         ctrl_rail_run_ >= cfg_.fast_trip_samples ||
         collapse_run_ >= cfg_.fast_trip_samples ||
         gain_run_ >= cfg_.fast_trip_samples ||
         stuck_primary_ >= cfg_.adc_stuck_samples ||
         stuck_sense_ >= cfg_.adc_stuck_samples;
}

}  // namespace ascp::safety
