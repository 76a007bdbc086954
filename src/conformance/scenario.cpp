#include "conformance/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "conformance/legal_envelope.hpp"
#include "safety/dtc.hpp"

namespace ascp::conformance {

namespace {

double eval_segments(const std::vector<Segment>& segs, double fallback, double t) {
  if (segs.empty()) return fallback;
  double start = 0.0;
  double last = 0.0;
  for (const auto& seg : segs) {
    const double end = start + seg.duration;
    const bool inside = t < end || &seg == &segs.back();
    const double tl = inside ? (t - start) : seg.duration;
    switch (seg.kind) {
      case SegKind::Constant:
        last = seg.a;
        break;
      case SegKind::Sine:
        last = seg.b + seg.a * std::sin(2.0 * std::numbers::pi * seg.f0 * tl);
        break;
      case SegKind::Ramp: {
        const double u = seg.duration > 0.0 ? std::clamp(tl / seg.duration, 0.0, 1.0) : 1.0;
        last = seg.a + (seg.b - seg.a) * u;
        break;
      }
      case SegKind::Chirp: {
        // Linear-frequency sweep: phase(t) = 2π (f0 t + (f1−f0) t² / 2T).
        const double T = seg.duration > 0.0 ? seg.duration : 1.0;
        const double phase =
            2.0 * std::numbers::pi * (seg.f0 * tl + (seg.f1 - seg.f0) * tl * tl / (2.0 * T));
        last = seg.b + seg.a * std::sin(phase);
        break;
      }
      case SegKind::Trace: {
        // Zero-order hold over the recorded samples (RecordedSource's Hold
        // interpolation); the final sample holds past the recording's end.
        if (seg.samples.empty()) {
          last = 0.0;
          break;
        }
        const double pos = seg.f0 > 0.0 ? tl * seg.f0 : 0.0;
        const double n = static_cast<double>(seg.samples.size());
        last = seg.samples[pos >= n ? seg.samples.size() - 1
                                    : static_cast<std::size_t>(pos < 0.0 ? 0.0 : pos)];
        break;
      }
    }
    if (t < end) return last;
    start = end;
  }
  // Past the last segment: hold its final value.
  return last;
}

double eval_bursts(const std::vector<Burst>& bursts, double t) {
  double v = 0.0;
  for (const auto& b : bursts) {
    if (t < b.t0 || t >= b.t0 + b.duration || b.duration <= 0.0) continue;
    const double tl = t - b.t0;
    if (b.freq > 0.0)
      v += b.amplitude * std::sin(2.0 * std::numbers::pi * b.freq * tl);
    else
      v += b.amplitude * std::sin(std::numbers::pi * tl / b.duration);  // half-sine shock
  }
  return v;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw std::runtime_error("scenario parse error at line " + std::to_string(line) + ": " + what);
}

void check_range(int line, const FieldRange& r, double v) {
  if (!r.contains(v))
    parse_fail(line, std::string(r.field) + " " + fmt_double(v) + " outside the legal range [" +
                         fmt_double(r.lo) + ", " + fmt_double(r.hi) + "]");
}

}  // namespace

sensor::Profile rate_profile(const Scenario& s) {
  auto segs = s.rate;
  auto bursts = s.bursts;
  return sensor::Profile([segs = std::move(segs), bursts = std::move(bursts)](double t) {
    return eval_segments(segs, 0.0, t) + eval_bursts(bursts, t);
  });
}

sensor::Profile temp_profile(const Scenario& s) {
  auto segs = s.temp;
  return sensor::Profile([segs = std::move(segs)](double t) {
    return eval_segments(segs, 25.0, t);
  });
}

bool fault_requires_full(FaultKind k) {
  switch (k) {
    case FaultKind::PrimaryAdcStuck:
    case FaultKind::SenseAdcStuckNull:
    case FaultKind::ReferenceDrift:
    case FaultKind::PgaGainError:
    case FaultKind::ChargeAmpOpen:
      return true;
    default:
      return false;
  }
}

bool fault_needs_mcu(FaultKind k) { return k == FaultKind::FirmwareHang; }

std::uint16_t fault_expected_dtc(FaultKind k) {
  // Mirrors the expected_dtc of each safety::faults:: builder.
  switch (k) {
    case FaultKind::DriveElectrodeOpen: return safety::kDtcDriveCollapse;
    case FaultKind::DriveElectrodeStuck: return safety::kDtcDriveCollapse;
    case FaultKind::QuadratureStep: return safety::kDtcQuadRange;
    case FaultKind::PrimaryAdcStuck: return safety::kDtcAdcStuck;
    case FaultKind::SenseAdcStuckNull: return 0;  // undetectable by design
    case FaultKind::ReferenceDrift: return safety::kDtcGainAnomaly;
    case FaultKind::PgaGainError: return safety::kDtcGainAnomaly;
    case FaultKind::ChargeAmpOpen: return safety::kDtcDriveCollapse;
    case FaultKind::NcoPhaseJump: return safety::kDtcPllUnlock;
    case FaultKind::RegisterBitFlip: return safety::kDtcCfgCorrupt;
    case FaultKind::FirmwareHang: return safety::kDtcWatchdogBite;
    case FaultKind::EepromCalCorruption: return safety::kDtcCalCrc;
  }
  return 0;
}

bool fault_expects_relock(FaultKind k) {
  // The two catalogue faults that disturb the drive loop and then leave the
  // hardware healthy: the phase jump itself, and the watchdog recovery path
  // (which resets and re-acquires the loops).
  return k == FaultKind::NcoPhaseJump || k == FaultKind::FirmwareHang;
}

const char* class_name(ScenarioClass c) {
  switch (c) {
    case ScenarioClass::Invariant: return "invariant";
    case ScenarioClass::DiffIdeal: return "diff_ideal";
    case ScenarioClass::Fault: return "fault";
    case ScenarioClass::Iss: return "iss";
  }
  return "?";
}

const char* seg_kind_name(SegKind k) {
  switch (k) {
    case SegKind::Constant: return "const";
    case SegKind::Sine: return "sine";
    case SegKind::Ramp: return "ramp";
    case SegKind::Chirp: return "chirp";
    case SegKind::Trace: return "trace";
  }
  return "?";
}

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::DriveElectrodeOpen: return "drive_electrode_open";
    case FaultKind::DriveElectrodeStuck: return "drive_electrode_stuck";
    case FaultKind::QuadratureStep: return "quadrature_step";
    case FaultKind::PrimaryAdcStuck: return "primary_adc_stuck";
    case FaultKind::SenseAdcStuckNull: return "sense_adc_stuck_null";
    case FaultKind::ReferenceDrift: return "reference_drift";
    case FaultKind::PgaGainError: return "pga_gain_error";
    case FaultKind::ChargeAmpOpen: return "charge_amp_open";
    case FaultKind::NcoPhaseJump: return "nco_phase_jump";
    case FaultKind::RegisterBitFlip: return "register_bit_flip";
    case FaultKind::FirmwareHang: return "firmware_hang";
    case FaultKind::EepromCalCorruption: return "eeprom_cal_corruption";
  }
  return "?";
}

bool parse_class(std::string_view text, ScenarioClass& out) {
  for (auto c : {ScenarioClass::Invariant, ScenarioClass::DiffIdeal, ScenarioClass::Fault,
                 ScenarioClass::Iss})
    if (text == class_name(c)) {
      out = c;
      return true;
    }
  return false;
}

bool parse_seg_kind(std::string_view text, SegKind& out) {
  for (auto k : {SegKind::Constant, SegKind::Sine, SegKind::Ramp, SegKind::Chirp, SegKind::Trace})
    if (text == seg_kind_name(k)) {
      out = k;
      return true;
    }
  return false;
}

bool parse_fault_kind(std::string_view text, FaultKind& out) {
  for (auto k :
       {FaultKind::DriveElectrodeOpen, FaultKind::DriveElectrodeStuck, FaultKind::QuadratureStep,
        FaultKind::PrimaryAdcStuck, FaultKind::SenseAdcStuckNull, FaultKind::ReferenceDrift,
        FaultKind::PgaGainError, FaultKind::ChargeAmpOpen, FaultKind::NcoPhaseJump,
        FaultKind::RegisterBitFlip, FaultKind::FirmwareHang, FaultKind::EepromCalCorruption})
    if (text == fault_kind_name(k)) {
      out = k;
      return true;
    }
  return false;
}

std::string to_text(const Scenario& s) {
  std::ostringstream os;
  os << "ascp-scenario v1\n";
  os << "seed " << s.seed << "\n";
  os << "class " << class_name(s.cls) << "\n";
  os << "fidelity " << (s.full_fidelity ? "full" : "ideal") << "\n";
  os << "duration " << fmt_double(s.duration_s) << "\n";
  os << "quad_scale " << fmt_double(s.quad_scale) << "\n";
  os << "drift_scale " << fmt_double(s.drift_scale) << "\n";
  os << "output_bw " << fmt_double(s.output_bw_hz) << "\n";
  os << "datapath_bits " << s.datapath_bits << "\n";
  os << "open_loop " << (s.open_loop ? 1 : 0) << "\n";
  auto dump_segs = [&](const char* tag, const std::vector<Segment>& segs) {
    for (const auto& g : segs) {
      os << tag << ' ' << seg_kind_name(g.kind) << ' ' << fmt_double(g.duration) << ' '
         << fmt_double(g.a) << ' ' << fmt_double(g.b) << ' ' << fmt_double(g.f0) << ' '
         << fmt_double(g.f1);
      // Trace segments append their sample count and literal values.
      if (g.kind == SegKind::Trace) {
        os << ' ' << g.samples.size();
        for (double v : g.samples) os << ' ' << fmt_double(v);
      }
      os << "\n";
    }
  };
  dump_segs("rate", s.rate);
  dump_segs("temp", s.temp);
  for (const auto& b : s.bursts)
    os << "burst " << fmt_double(b.t0) << ' ' << fmt_double(b.duration) << ' '
       << fmt_double(b.amplitude) << ' ' << fmt_double(b.freq) << "\n";
  for (const auto& r : s.regs)
    os << "reg " << (r.afe ? "afe" : "dsp") << ' ' << r.addr << ' ' << r.value << "\n";
  for (const auto& f : s.faults)
    os << "fault " << fault_kind_name(f.kind) << ' ' << f.inject_at << ' ' << f.clear_after << ' '
       << fmt_double(f.param) << "\n";
  os << "end\n";
  return os.str();
}

Scenario from_text(std::string_view text) {
  Scenario s;
  s.rate.clear();
  s.temp.clear();
  std::istringstream is{std::string(text)};
  std::string line;
  int lineno = 0;
  bool saw_header = false, saw_end = false;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and blank lines.
    if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (!saw_header) {
      std::string ver;
      if (key != "ascp-scenario" || !(ls >> ver) || ver != "v1")
        parse_fail(lineno, "expected 'ascp-scenario v1' header");
      saw_header = true;
      continue;
    }
    auto need = [&](auto&... vals) {
      if (!((ls >> vals) && ...)) parse_fail(lineno, "malformed '" + key + "' record");
    };
    if (key == "seed") {
      need(s.seed);
    } else if (key == "class") {
      std::string v;
      need(v);
      if (!parse_class(v, s.cls)) parse_fail(lineno, "unknown class '" + v + "'");
    } else if (key == "fidelity") {
      std::string v;
      need(v);
      if (v != "full" && v != "ideal") parse_fail(lineno, "unknown fidelity '" + v + "'");
      s.full_fidelity = v == "full";
    } else if (key == "duration") {
      need(s.duration_s);
      check_range(lineno, kDurationS, s.duration_s);
    } else if (key == "quad_scale") {
      need(s.quad_scale);
    } else if (key == "drift_scale") {
      need(s.drift_scale);
    } else if (key == "output_bw") {
      need(s.output_bw_hz);
      check_range(lineno, kOutputBwHz, s.output_bw_hz);
    } else if (key == "datapath_bits") {
      need(s.datapath_bits);
      if (s.datapath_bits != 0) check_range(lineno, kDatapathBits, s.datapath_bits);
    } else if (key == "open_loop") {
      int v = 0;
      need(v);
      s.open_loop = v != 0;
    } else if (key == "rate" || key == "temp") {
      Segment g;
      std::string kind;
      need(kind);
      if (!parse_seg_kind(kind, g.kind)) parse_fail(lineno, "unknown segment kind '" + kind + "'");
      need(g.duration, g.a, g.b, g.f0, g.f1);
      if (g.kind == SegKind::Trace) {
        std::size_t count = 0;
        need(count);
        if (count > (1u << 24)) parse_fail(lineno, "trace sample count implausible");
        // Each sample needs a separator and a digit: a count the rest of the
        // line cannot hold fails before it sizes the sample vector.
        const std::streamoff pos = ls.tellg();
        const std::size_t left = pos < 0 ? 0 : line.size() - static_cast<std::size_t>(pos);
        if (count > left / 2)
          parse_fail(lineno, "trace sample count " + std::to_string(count) + " exceeds the " +
                                 std::to_string(left) + " characters left on the line");
        g.samples.resize(count);
        for (auto& v : g.samples) need(v);
      }
      (key == "rate" ? s.rate : s.temp).push_back(g);
    } else if (key == "burst") {
      Burst b;
      need(b.t0, b.duration, b.amplitude, b.freq);
      s.bursts.push_back(b);
    } else if (key == "reg") {
      RegWrite r;
      std::string file;
      need(file);
      if (file != "dsp" && file != "afe") parse_fail(lineno, "unknown register file '" + file + "'");
      r.afe = file == "afe";
      need(r.addr, r.value);
      s.regs.push_back(r);
    } else if (key == "fault") {
      FaultEvent f;
      std::string kind;
      need(kind);
      if (!parse_fault_kind(kind, f.kind)) parse_fail(lineno, "unknown fault kind '" + kind + "'");
      need(f.inject_at, f.clear_after, f.param);
      s.faults.push_back(f);
    } else if (key == "end") {
      saw_end = true;
      break;
    } else {
      parse_fail(lineno, "unknown record '" + key + "'");
    }
  }
  if (!saw_header) parse_fail(lineno, "missing 'ascp-scenario v1' header");
  if (!saw_end) parse_fail(lineno, "missing 'end' record");
  return s;
}

bool save_scenario(const std::string& path, const Scenario& s) {
  std::ofstream f(path);
  if (!f) return false;
  f << to_text(s);
  return static_cast<bool>(f);
}

Scenario load_scenario(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_text(buf.str());
}

}  // namespace ascp::conformance
