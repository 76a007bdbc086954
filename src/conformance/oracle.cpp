#include "conformance/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string_view>

#include "analysis/firmware_corpus.hpp"
#include "analysis/range_lint.hpp"
#include "core/gyro_system.hpp"
#include "mcu/monitor_rom.hpp"
#include "safety/cal_store.hpp"
#include "safety/standard_faults.hpp"
#include "sensor/stimulus_source.hpp"

namespace ascp::conformance {

namespace {

constexpr double kNullV = 2.5;

bool has_fault(const Scenario& s, FaultKind k) {
  for (const auto& f : s.faults)
    if (f.kind == k) return true;
  return false;
}

bool needs_mcu(const Scenario& s) {
  if (s.cls == ScenarioClass::Iss) return true;
  for (const auto& f : s.faults)
    if (fault_needs_mcu(f.kind)) return true;
  return false;
}

/// The GyroSystemConfig mutations the configure hook applies — also used
/// standalone by the envelope derivation (range bounds depend on the realized
/// sense-chain dimensioning, not on the constructed system).
void apply_scenario_config(const Scenario& s, core::GyroSystemConfig& cfg) {
  cfg.mems.quad_stiffness *= s.quad_scale;
  cfg.mems.f0_tempco *= s.drift_scale;
  cfg.mems.q_tempco *= s.drift_scale;
  cfg.mems.force_tempco *= s.drift_scale;
  cfg.mems.cap_tempco *= s.drift_scale;
  cfg.mems.quad_tempco *= s.drift_scale;
  cfg.sense.output_bw_hz = s.output_bw_hz;
  cfg.sense.datapath_bits = s.datapath_bits;
  if (needs_mcu(s)) cfg.with_mcu = true;
}

void add_fault(safety::FaultCampaign& c, core::GyroSystem& g, const FaultEvent& f) {
  namespace sf = safety::faults;
  const long at = f.inject_at;
  const bool p = f.param != 0.0;
  switch (f.kind) {
    case FaultKind::DriveElectrodeOpen: sf::add_drive_electrode_open(c, g, at); break;
    case FaultKind::DriveElectrodeStuck:
      sf::add_drive_electrode_stuck(c, g, at, p ? f.param : 1.2);
      break;
    case FaultKind::QuadratureStep: sf::add_quadrature_step(c, g, at, p ? f.param : 3.0e6); break;
    case FaultKind::PrimaryAdcStuck:
      sf::add_primary_adc_stuck(c, g, at, p ? static_cast<std::int32_t>(f.param) : 1234,
                                f.clear_after);
      break;
    case FaultKind::SenseAdcStuckNull: sf::add_sense_adc_stuck_null(c, g, at); break;
    case FaultKind::ReferenceDrift: sf::add_reference_drift(c, g, at, p ? f.param : -0.45); break;
    case FaultKind::PgaGainError: sf::add_pga_gain_error(c, g, at, p ? f.param : 2.0); break;
    case FaultKind::ChargeAmpOpen: sf::add_charge_amp_open(c, g, at); break;
    case FaultKind::NcoPhaseJump:
      sf::add_nco_phase_jump(c, g, at, p ? f.param : 1.5707963267948966);
      break;
    case FaultKind::RegisterBitFlip:
      sf::add_register_bit_flip(c, g, at, core::reg::kSenseGain,
                                p ? static_cast<std::uint16_t>(f.param) : 0x80);
      break;
    case FaultKind::FirmwareHang: sf::add_firmware_hang(c, g, at); break;
    case FaultKind::EepromCalCorruption: sf::add_eeprom_cal_corruption(c, g, at); break;
  }
}

engine::ChannelConfig make_config(const Scenario& s, bool full_fidelity, bool with_safety,
                                  bool with_obs) {
  engine::ChannelConfig cc;
  cc.kind = full_fidelity ? engine::ChannelKind::GyroFull : engine::ChannelKind::GyroIdeal;
  cc.seed = s.seed;
  cc.with_safety = with_safety;
  cc.with_obs = with_obs;
  cc.rate_profile = rate_profile(s);
  cc.temp_profile = temp_profile(s);
  cc.configure = [s](core::GyroSystemConfig& cfg) { apply_scenario_config(s, cfg); };
  cc.customize = [s](core::GyroSystem& g) {
    // Register configuration before power_on: the config hooks bake the new
    // values into the cold build, exactly like a host trimming over JTAG.
    for (const auto& r : s.regs) (r.afe ? g.afe_regs() : g.regs()).write(r.addr, r.value);
    if (s.open_loop) g.regs().write(core::reg::kMode, 0);
    if (s.cls == ScenarioClass::Iss)
      g.platform().load_firmware(mcu::MonitorRom::image());
    if (has_fault(s, FaultKind::FirmwareHang)) {
      // The hang is detected by the watchdog, so the firmware must actually
      // kick it: liveness kicker + armed watchdog (period ≈ 10 ms of CPU).
      g.platform().load_firmware(
          analysis::corpus::assemble_watchdog_kicker(g.platform().config().map).image);
      if (auto* wd = g.platform().watchdog()) {
        wd->write_reg(1, 16000);  // PERIOD [machine cycles]
        wd->write_reg(2, 1);      // CTRL: enable
      }
    }
    if (has_fault(s, FaultKind::EepromCalCorruption)) {
      // The CRC audit needs a valid record to corrupt.
      if (auto* spi = g.platform().spi()) safety::store_calibration(*spi, g.config().comp);
    }
  };
  if (!s.faults.empty()) {
    cc.campaign_factory = [s](core::GyroSystem& g) {
      auto campaign = std::make_unique<safety::FaultCampaign>();
      for (const auto& f : s.faults) add_fault(*campaign, g, f);
      return campaign;
    };
  }
  return cc;
}

void run_channel(engine::ConditioningChannel& ch, double seconds) {
  ch.advance(std::llround(seconds * ch.base_rate_hz()));
}

struct Checker {
  std::vector<Violation>* out;
  void fail(std::string check, std::string detail) {
    out->push_back({std::move(check), std::move(detail)});
  }
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

}  // namespace

std::string ScenarioReport::summary() const {
  std::string s;
  for (const auto& v : violations) {
    s += v.check;
    s += ": ";
    s += v.detail;
    s += '\n';
  }
  return s;
}

engine::ChannelConfig channel_config(const Scenario& s) {
  return make_config(s, s.full_fidelity, /*with_safety=*/true, /*with_obs=*/true);
}

double derive_output_envelope_v(const Scenario& s) {
  auto cfg = core::default_gyro_system(s.full_fidelity ? core::Fidelity::Full
                                                       : core::Fidelity::Ideal);
  apply_scenario_config(s, cfg);
  if (s.open_loop) cfg.sense.mode = core::SenseMode::OpenLoop;
  const auto ranges = analysis::sense_chain_ranges(cfg.sense, cfg.comp);
  for (const auto& r : ranges) {
    if (r.stage != "sense.output") continue;
    // The adversarial (L1) bound holds for any rail-bounded ADC stream, so it
    // covers transients the steady-state tone bound does not; the format
    // limit caps it where the datapath clamps anyway.
    const double fs_units = std::min(r.l1_bound > 0.0 ? r.l1_bound : r.bound, r.limit);
    return fs_units * 2.5;  // FS units are referred to vref = 2.5 V
  }
  return 5.0;  // Q1_22 format rail — unreachable fallback
}

ScenarioReport run_scenario(const Scenario& s, const OracleConfig& ocfg) {
  ScenarioReport rep;
  Checker chk{&rep.violations};

  engine::ConditioningChannel ch(channel_config(s));
  run_channel(ch, s.duration_s);
  rep.output_hash = ch.output_hash();
  rep.outputs = ch.outputs().size();

  auto* g = ch.gyro();
  auto* sup = g ? g->supervisor() : nullptr;
  if (!g || !sup) {
    chk.fail("setup", "scenario channel has no gyro/supervisor");
    return rep;
  }

  // ---- output stream: count, finiteness, envelope --------------------------
  const long base_ticks = ch.ticks_advanced();
  const auto& sys = g->config();
  const long expected = base_ticks / sys.adc_div / sys.sense.cic_ratio;
  const long n = static_cast<long>(rep.outputs);
  if (std::labs(n - expected) > 1)
    chk.fail("output_count",
             "got " + std::to_string(n) + " decimated samples, expected ~" +
                 std::to_string(expected) + " (CIC completion accounting)");

  const bool fault_free = s.faults.empty();
  rep.envelope_v = fault_free ? derive_output_envelope_v(s) + ocfg.envelope_margin_v : 0.0;
  for (std::size_t i = 0; i < ch.outputs().size(); ++i) {
    const double v = ch.outputs()[i];
    if (!std::isfinite(v)) {
      chk.fail("finite", "output[" + std::to_string(i) + "] is not finite");
      break;
    }
    // Faults may legitimately rail the chain; the range proof only covers the
    // healthy datapath, so the envelope applies to fault-free runs.
    if (fault_free && std::abs(v) > rep.envelope_v) {
      chk.fail("envelope", "output[" + std::to_string(i) + "] = " + fmt(v) +
                               " V exceeds range-analysis bound " + fmt(rep.envelope_v) + " V");
      break;
    }
  }

  // ---- supervisor + event-log invariants -----------------------------------
  const auto events = ch.observability()->events.events();

  // State machine legality: transitions recorded by the supervisor may only
  // move between adjacent degradation levels.
  for (const auto& e : events) {
    if (e.category != obs::EventCategory::Supervisor ||
        std::string_view(e.name) != "state_transition")
      continue;
    double from = 0, to = 0;
    for (const auto& kv : e.kv) {
      if (!kv.key) continue;
      if (std::string_view(kv.key) == "from") from = kv.value;
      if (std::string_view(kv.key) == "to") to = kv.value;
    }
    if (std::abs(to - from) != 1.0)
      chk.fail("state_machine", "non-adjacent transition " + e.detail + " at t=" + fmt(e.t_sim));
  }

  auto count_events = [&](obs::EventCategory cat, std::string_view name) {
    long c = 0;
    for (const auto& e : events)
      if (e.category == cat && std::string_view(e.name) == name) ++c;
    return c;
  };

  if (fault_free) {
    if (sup->dtcs() != 0)
      chk.fail("false_positive",
               "DTC mask " + std::to_string(sup->dtcs()) + " latched with no fault injected");
    if (sup->state() != safety::SafetyState::Nominal)
      chk.fail("false_positive", "supervisor left NOMINAL with no fault injected");
    // The lock detector can chatter while the drive loop is still acquiring
    // (~0.21 s from cold, longer at MEMS corners), which is legitimate. After
    // the acquisition window a fault-free loss is a real violation, and any
    // run long enough to have acquired must end locked.
    constexpr double kAcquireWindowS = 0.35;
    long late_losses = 0;
    for (const auto& e : events)
      if (e.category == obs::EventCategory::Pll && std::string_view(e.name) == "pll_lock_loss" &&
          e.t_sim > kAcquireWindowS)
        ++late_losses;
    if (late_losses > 0)
      chk.fail("pll", std::to_string(late_losses) +
                          " lock losses after acquisition with no fault injected");
    if (s.duration_s >= kAcquireWindowS + 0.1 && !g->locked())
      chk.fail("pll", "not locked at end of a fault-free run");
  } else {
    long min_inject = s.faults.front().inject_at;
    for (const auto& f : s.faults) min_inject = std::min(min_inject, f.inject_at);

    // Pre-injection latches are false positives regardless of what happens
    // later (first_latch_fast and inject_at share the DSP-sample time base).
    for (int bit = 0; bit < 13; ++bit) {
      const auto mask = static_cast<std::uint16_t>(1u << bit);
      const long fl = sup->first_latch_fast(mask);
      if (fl >= 0 && fl < min_inject)
        chk.fail("false_positive", "DTC bit " + std::to_string(bit) + " latched at fast sample " +
                                       std::to_string(fl) + ", before first injection at " +
                                       std::to_string(min_inject));
    }

    if (!sup->armed())
      chk.fail("setup", "supervisor never armed — fault injected into an unsettled chain "
                        "(generator must schedule injections after the warmup)");

    // Every injected fault must appear in the event log...
    const long inject_events = count_events(obs::EventCategory::Fault, "fault_inject");
    if (inject_events != static_cast<long>(s.faults.size()))
      chk.fail("fault_events", std::to_string(inject_events) + " fault_inject events for " +
                                   std::to_string(s.faults.size()) + " scheduled faults");

    // ...and every detectable one must latch its catalogue DTC after its
    // injection instant (collateral DTCs after injection are legitimate —
    // real faults cascade).
    bool any_detectable = false;
    for (const auto& f : s.faults) {
      const std::uint16_t dtc = fault_expected_dtc(f.kind);
      if (dtc == 0) continue;
      any_detectable = true;
      const long fl = sup->first_latch_fast(dtc);
      if (fl < f.inject_at)
        chk.fail("dtc_missing",
                 std::string(fault_kind_name(f.kind)) + " did not latch its DTC (first latch " +
                     std::to_string(fl) + ", injected at " + std::to_string(f.inject_at) + ")");
      if (count_events(obs::EventCategory::Dtc, "dtc_latch") == 0)
        chk.fail("dtc_events", "no dtc_latch event recorded for a detectable fault");
    }
    if (!any_detectable && s.faults.size() == 1 && sup->dtcs() != 0)
      chk.fail("undetectable",
               std::string(fault_kind_name(s.faults.front().kind)) +
                   " is documented undetectable but latched DTC mask " +
                   std::to_string(sup->dtcs()));

    // PLL relock after every injected lock-loss.
    bool want_relock = false;
    for (const auto& f : s.faults) want_relock |= fault_expects_relock(f.kind);
    if (want_relock) {
      const long losses = count_events(obs::EventCategory::Pll, "pll_lock_loss");
      const long relocks = count_events(obs::EventCategory::Pll, "pll_relock");
      if (losses > 0 && (relocks < losses || !g->locked()))
        chk.fail("pll_relock", std::to_string(losses) + " lock losses but " +
                                   std::to_string(relocks) +
                                   " relocks (locked at end: " + (g->locked() ? "yes" : "no") + ")");
    }
  }

  // ---- recorded-trace replay (stimulus-seam round-trip) --------------------
  // Scenarios carrying a Trace segment also prove the record → replay seam:
  // a probed re-run must be bit-identical (probes are read-only), and feeding
  // the captured stimulus back through a RecordedSource must reproduce the
  // synthetic run's output hash exactly (the trace is captured at the base
  // rate, so replay takes the integer-indexed bit-exact path).
  const bool has_trace =
      std::any_of(s.rate.begin(), s.rate.end(),
                  [](const Segment& g) { return g.kind == SegKind::Trace; }) ||
      std::any_of(s.temp.begin(), s.temp.end(),
                  [](const Segment& g) { return g.kind == SegKind::Trace; });
  if (has_trace) {
    auto rec_cfg = channel_config(s);
    sensor::StimulusRecorder recorder(ch.base_rate_hz());
    rec_cfg.probe = &recorder;
    engine::ConditioningChannel probed(rec_cfg);
    run_channel(probed, s.duration_s);
    if (probed.output_hash() != rep.output_hash)
      chk.fail("probe_neutrality", "attaching the stimulus recorder changed the output stream");

    auto trace = std::make_shared<sensor::StimulusTrace>(recorder.take());
    auto replay_cfg = channel_config(s);
    replay_cfg.stimulus_factory = [trace](double base_rate_hz) {
      return std::make_unique<sensor::RecordedSource>(trace, base_rate_hz);
    };
    engine::ConditioningChannel replay(replay_cfg);
    run_channel(replay, s.duration_s);
    if (replay.output_hash() != rep.output_hash)
      chk.fail("trace_replay",
               "replaying the captured stimulus diverges from the synthetic run (hash " +
                   std::to_string(replay.output_hash()) + " vs " +
                   std::to_string(rep.output_hash) + ")");
  }

  // ---- class-specific differential references ------------------------------
  switch (s.cls) {
    case ScenarioClass::Invariant: {
      if (s.open_loop && fault_free) {
        // Composite neutrality check: with no faults, supervisor
        // pass-through and observer read-onlyness must each be bit-exact, so
        // a run with neither supervisor nor observability must match too.
        engine::ConditioningChannel ref(
            make_config(s, s.full_fidelity, /*with_safety=*/false, /*with_obs=*/false));
        run_channel(ref, s.duration_s);
        if (ref.output_hash() != rep.output_hash)
          chk.fail("neutrality",
                   "bare run diverges from the supervised+observed run");
      }
      break;
    }
    case ScenarioClass::DiffIdeal: {
      engine::ConditioningChannel ref(
          make_config(s, /*full_fidelity=*/false, /*with_safety=*/true, /*with_obs=*/false));
      run_channel(ref, s.duration_s);
      const auto& fo = ch.outputs();
      const auto& io = ref.outputs();
      if (fo.size() != io.size()) {
        chk.fail("diff_ideal", "sample counts differ: full " + std::to_string(fo.size()) +
                                   " vs ideal " + std::to_string(io.size()));
        break;
      }
      const std::size_t start = static_cast<std::size_t>(ocfg.settle_frac * fo.size());
      for (std::size_t i = start; i < fo.size(); ++i) {
        const double tol = ocfg.diff_offset_v + ocfg.diff_scale_frac * std::abs(io[i] - kNullV);
        if (std::abs(fo[i] - io[i]) > tol) {
          chk.fail("diff_ideal", "sample " + std::to_string(i) + ": full " + fmt(fo[i]) +
                                     " vs ideal " + fmt(io[i]) + " exceeds tolerance " + fmt(tol));
          break;
        }
      }
      break;
    }
    case ScenarioClass::Iss: {
      // The monitor firmware only *reads*: running it must not perturb the
      // numeric chain by a single bit.
      Scenario bare = s;
      bare.cls = ScenarioClass::Invariant;  // drops with_mcu + firmware load
      engine::ConditioningChannel ref(
          make_config(bare, s.full_fidelity, /*with_safety=*/true, /*with_obs=*/false));
      run_channel(ref, s.duration_s);
      if (ref.output_hash() != rep.output_hash)
        chk.fail("iss_neutrality", "output stream differs with the 8051 monitor running");

      // Drive the resident monitor over the UART host link and cross-check
      // firmware-visible register state against the C++-visible fabric.
      auto& plat = g->platform();
      mcu::MonitorHost host(plat.cpu(), plat.host());
      if (!host.ping()) {
        chk.fail("iss_monitor", "monitor firmware did not answer ping");
        break;
      }
      const auto map = plat.config().map;
      auto check_reg = [&](std::uint16_t reg, const char* name) {
        const auto fw = host.read_word(static_cast<std::uint16_t>(map.regfile + 2 * reg));
        const std::uint16_t cpp = plat.regs().read(reg);
        if (!fw)
          chk.fail("iss_monitor", std::string("monitor read of ") + name + " timed out");
        else if (*fw != cpp)
          chk.fail("iss_monitor", std::string(name) + ": firmware read " + std::to_string(*fw) +
                                      " but fabric holds " + std::to_string(cpp));
      };
      check_reg(core::reg::kRateOut, "rate_out");
      check_reg(core::reg::kQuad, "quad");
      check_reg(static_cast<std::uint16_t>(core::reg::kDiag + safety::diag::kDtcReg), "diag_dtc");
      check_reg(static_cast<std::uint16_t>(core::reg::kDiag + safety::diag::kState), "diag_state");
      break;
    }
    case ScenarioClass::Fault:
      break;  // fault invariants already checked above
  }

  return rep;
}

}  // namespace ascp::conformance
