#include "conformance/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "conformance/legal_envelope.hpp"
#include "core/gyro_system.hpp"

namespace ascp::conformance {

namespace {

constexpr double kDspFs = 240e3;  ///< analog_fs / adc_div at the shipped operating point

Segment draw_rate_segment(Rng& r, double dur, double amp_cap) {
  Segment g;
  g.duration = dur;
  switch (r.next_u64() % 5) {
    case 0:
      g.kind = SegKind::Constant;
      g.a = r.uniform(-amp_cap, amp_cap);
      break;
    case 1:
      g.kind = SegKind::Sine;
      g.a = r.uniform(0.1 * amp_cap, 0.6 * amp_cap);
      g.b = r.uniform(-0.3 * amp_cap, 0.3 * amp_cap);
      g.f0 = r.uniform(0.5, 40.0);
      break;
    case 2:
      g.kind = SegKind::Ramp;
      g.a = r.uniform(-amp_cap, amp_cap);
      g.b = r.uniform(-amp_cap, amp_cap);
      break;
    case 3:
      g.kind = SegKind::Chirp;
      g.a = r.uniform(0.1 * amp_cap, 0.5 * amp_cap);
      g.b = r.uniform(-0.3 * amp_cap, 0.3 * amp_cap);
      g.f0 = r.uniform(1.0, 10.0);
      g.f1 = r.uniform(10.0, 30.0);
      break;
    default: {
      // Recorded-trace fixture: a bounded random walk "field capture" played
      // back at a modest sample rate (kept short so .scenario files stay
      // reviewable; RecordedSource replay covers the high-rate case).
      g.kind = SegKind::Trace;
      g.f0 = r.uniform(200.0, 2000.0);
      const std::size_t n = std::min<std::size_t>(
          256, std::max<std::size_t>(2, static_cast<std::size_t>(dur * g.f0)));
      double v = r.uniform(-0.5 * amp_cap, 0.5 * amp_cap);
      g.samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        g.samples.push_back(v);
        v = std::clamp(v + r.uniform(-0.05 * amp_cap, 0.05 * amp_cap), -amp_cap, amp_cap);
      }
      break;
    }
  }
  return g;
}

void draw_temperature(Rng& r, Scenario& s) {
  Segment g;
  g.duration = s.duration_s;
  if (r.uniform() < 0.8) {
    g.kind = SegKind::Constant;
    g.a = r.uniform(-30.0, 80.0);
  } else {
    g.kind = SegKind::Ramp;
    g.a = r.uniform(-30.0, 60.0);
    g.b = std::min(85.0, g.a + r.uniform(-25.0, 25.0));
  }
  s.temp.push_back(g);
}

void draw_registers(Rng& r, Scenario& s) {
  // Values stay inside the declared field widths (gain_x16 is an 8-bit
  // field; adc_bits a 5-bit field) *and* inside the range the analog model
  // behaves sensibly over — the legality cross-check test pins both.
  if (r.uniform() < 0.35) {
    // DSP sense-gain register: PGA gain 4..12 (×16 encoding 64..192).
    s.regs.push_back({false, core::reg::kSenseGain,
                      static_cast<std::uint16_t>(64 + r.next_u64() % 129)});
  }
  if (r.uniform() < 0.25) {
    // AFE primary PGA: gain 1.5..2.5 (×16 encoding 24..40).
    s.regs.push_back({true, core::reg::kAfePgaPrimary,
                      static_cast<std::uint16_t>(24 + r.next_u64() % 17)});
  }
  if (r.uniform() < 0.25 && s.full_fidelity) {
    // SAR resolution 12..16 bits.
    s.regs.push_back({true, core::reg::kAfeAdcBits,
                      static_cast<std::uint16_t>(12 + r.next_u64() % 5)});
  }
}

void draw_bursts(Rng& r, Scenario& s, const GeneratorConfig& cfg) {
  const int n = static_cast<int>(r.next_u64() % 3);  // 0..2
  for (int i = 0; i < n; ++i) {
    Burst b;
    b.duration = r.uniform(0.005, 0.03);
    b.t0 = r.uniform(0.0, std::max(0.0, s.duration_s - b.duration));
    b.amplitude = r.uniform(10.0, cfg.max_burst_dps);
    // 50/50 vibration tone (automotive band) vs half-sine shock.
    b.freq = r.uniform() < 0.5 ? r.uniform(50.0, 2000.0) : 0.0;
    s.bursts.push_back(b);
  }
}

FaultEvent draw_fault(Rng& r, const GeneratorConfig& cfg, double& duration_s) {
  static constexpr FaultKind kAll[] = {
      FaultKind::DriveElectrodeOpen, FaultKind::DriveElectrodeStuck, FaultKind::QuadratureStep,
      FaultKind::PrimaryAdcStuck,    FaultKind::SenseAdcStuckNull,   FaultKind::ReferenceDrift,
      FaultKind::PgaGainError,       FaultKind::ChargeAmpOpen,       FaultKind::NcoPhaseJump,
      FaultKind::RegisterBitFlip,    FaultKind::FirmwareHang,        FaultKind::EepromCalCorruption,
  };
  // Full-fidelity AFE faults cost ~4× the wall-clock of Ideal-layer ones:
  // keep them to a modest share of the fault band so the smoke stage fits
  // its time budget while still covering every catalogue row.
  FaultKind k;
  do {
    k = kAll[r.next_u64() % std::size(kAll)];
  } while (fault_requires_full(k) && r.uniform() < 0.75);

  FaultEvent f;
  f.kind = k;
  const double inject_s = cfg.min_inject_s + r.uniform(0.0, 0.1);
  f.inject_at = static_cast<long>(std::lround(inject_s * kDspFs));
  duration_s = inject_s + cfg.post_inject_s;
  // A hang rides through watchdog bite + MCU recovery + PLL reacquisition
  // (~0.21 s cold): give the relock oracle room to see the recovered state.
  if (k == FaultKind::FirmwareHang) duration_s = inject_s + std::max(cfg.post_inject_s, 0.55);
  switch (k) {
    case FaultKind::DriveElectrodeStuck: f.param = r.uniform(0.8, 1.6); break;
    // Below ~3e6 N/m the quad servo absorbs the step without tripping the
    // range comparator — stay at catalogue magnitude and above.
    case FaultKind::QuadratureStep: f.param = r.uniform(3.0e6, 4.5e6); break;
    case FaultKind::PrimaryAdcStuck:
      f.param = std::floor(r.uniform(500.0, 3000.0));
      if (r.uniform() < 0.4)
        f.clear_after = static_cast<long>(std::lround(r.uniform(2000.0, 20000.0)));
      break;
    case FaultKind::ReferenceDrift: f.param = r.uniform(-0.55, -0.40); break;
    case FaultKind::PgaGainError: f.param = r.uniform(1.8, 2.5); break;
    case FaultKind::NcoPhaseJump: f.param = r.uniform(0.8, 2.4); break;
    case FaultKind::RegisterBitFlip:
      f.param = static_cast<double>(std::uint16_t{1} << (4 + r.next_u64() % 4));  // bits 4..7
      break;
    default: break;  // catalogue default magnitudes
  }
  return f;
}

}  // namespace

Scenario generate_scenario(std::uint64_t seed, const GeneratorConfig& cfg) {
  // Fork per concern so adding a draw to one section never shifts another's
  // stream (scenario shape stays stable under generator evolution).
  Rng root(seed ^ 0xC0FFEE5EEDull);
  Rng rcls = root.fork(1), rdur = root.fork(2), rstim = root.fork(3), rreg = root.fork(4),
      rflt = root.fork(5), rmisc = root.fork(6);

  Scenario s;
  s.seed = seed;

  const double wsum = cfg.w_invariant + cfg.w_diff + cfg.w_fault + cfg.w_iss;
  const double u = rcls.uniform() * (wsum > 0.0 ? wsum : 1.0);
  if (u < cfg.w_invariant)
    s.cls = ScenarioClass::Invariant;
  else if (u < cfg.w_invariant + cfg.w_diff)
    s.cls = ScenarioClass::DiffIdeal;
  else if (u < cfg.w_invariant + cfg.w_diff + cfg.w_fault)
    s.cls = ScenarioClass::Fault;
  else
    s.cls = ScenarioClass::Iss;

  // MEMS corner draw — tolerance-band quadrature and drift.
  static_assert(kQuadScale.contains(0.5) && kQuadScale.contains(1.5) &&
                kDriftScale.contains(0.5) && kDriftScale.contains(1.5));
  s.quad_scale = rmisc.uniform(0.5, 1.5);
  s.drift_scale = rmisc.uniform(0.5, 1.5);
  // Programmable output bandwidth (Table 1: 25..75 Hz).
  s.output_bw_hz =
      rmisc.uniform() < 0.4 ? rmisc.uniform(kOutputBwHz.lo, kOutputBwHz.hi) : kOutputBwHz.hi;

  switch (s.cls) {
    case ScenarioClass::Invariant:
      s.full_fidelity = rdur.uniform() < 0.6;
      s.duration_s = rdur.uniform(0.05, 0.18);
      s.open_loop = rdur.uniform() < 0.3;
      // Wordlength-ablation corner: a finite RTL datapath now and then.
      static_assert(kDatapathBits.contains(16) && kDatapathBits.contains(24));
      if (rmisc.uniform() < 0.1) s.datapath_bits = 16 + static_cast<int>(rmisc.next_u64() % 9);
      break;
    case ScenarioClass::DiffIdeal:
      s.full_fidelity = true;  // the differential is full-vs-ideal by definition
      s.duration_s = rdur.uniform(0.08, 0.13);
      s.open_loop = rdur.uniform() < 0.25;
      break;
    case ScenarioClass::Fault: {
      double dur = 0.0;
      FaultEvent f = draw_fault(rflt, cfg, dur);
      s.full_fidelity = fault_requires_full(f.kind) || rflt.uniform() < 0.1;
      s.duration_s = dur;
      s.faults.push_back(f);
      break;
    }
    case ScenarioClass::Iss:
      s.full_fidelity = rdur.uniform() < 0.3;
      s.duration_s = rdur.uniform(0.10, 0.18);
      break;
  }

  // Stimulus. Fault scenarios keep a benign constant-rate base so the only
  // disturbances during the supervisor's arming warmup are the ones the
  // catalogue injects.
  if (s.cls == ScenarioClass::Fault) {
    Segment g;
    g.kind = SegKind::Constant;
    g.duration = s.duration_s;
    g.a = rstim.uniform(-60.0, 60.0);
    s.rate.push_back(g);
    Segment t;
    t.kind = SegKind::Constant;
    t.duration = s.duration_s;
    t.a = rstim.uniform(0.0, 50.0);
    s.temp.push_back(t);
  } else {
    const int nseg = 1 + static_cast<int>(rstim.next_u64() % 3);  // 1..3
    for (int i = 0; i < nseg; ++i)
      s.rate.push_back(draw_rate_segment(rstim, s.duration_s / nseg, cfg.max_base_dps));
    draw_temperature(rstim, s);
    draw_bursts(rstim, s, cfg);
  }

  // Register configuration draws (legal field ranges only). Skipped for
  // fault runs: the campaign's detection thresholds are characterized at the
  // shipped gain settings.
  if (s.cls != ScenarioClass::Fault) draw_registers(rreg, s);

  return s;
}

}  // namespace ascp::conformance
