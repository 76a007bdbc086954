// scenario.hpp — the conformance fuzzer's unit of work.
//
// A Scenario is a complete, self-contained description of one randomized
// platform run: stimulus profiles (rate/temperature segments plus
// vibration/shock bursts), MEMS quadrature/drift scaling, register
// configuration writes drawn from the legal RegisterFile field ranges, and a
// fault-campaign schedule from the PR-1 standard catalogue. Scenarios are
// pure data — deterministically replayable from their text form — so a
// failing case can be auto-shrunk, written to a `.scenario` file, checked
// into the corpus, and re-run bit-identically by `scenario_fuzz --replay`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sensor/environment.hpp"

namespace ascp::conformance {

/// Which oracle tier the scenario exercises (generation-time decision; the
/// oracle derives its check set from this plus the fault list).
enum class ScenarioClass {
  Invariant,  ///< fixed-point pipeline alone: envelopes + supervisor legality
  DiffIdeal,  ///< fixed-point vs ideal (MATLAB-level) differential
  Fault,      ///< fault campaign: detection events, DTCs, relock, recovery
  Iss,        ///< firmware-driven: MCU monitor vs chain, bit-identity with MCU
};

/// Piecewise stimulus segment, evaluated in segment-local time. Trace plays
/// back literal samples (recorded data embedded in the scenario): f0 is the
/// sample rate, samples are held zero-order in segment-local time and the
/// last one holds past the end — exactly RecordedSource's Hold semantics, so
/// a `.strace` capture drops into a scenario loss-free.
enum class SegKind { Constant, Sine, Ramp, Chirp, Trace };

struct Segment {
  SegKind kind = SegKind::Constant;
  double duration = 0.1;  ///< seconds
  double a = 0.0;         ///< Constant: value; Sine/Chirp: amplitude; Ramp: start value
  double b = 0.0;         ///< Ramp: end value; Sine/Chirp: baseline offset
  double f0 = 0.0;        ///< Sine: frequency; Chirp: start frequency; Trace: sample rate [Hz]
  double f1 = 0.0;        ///< Chirp: end frequency [Hz]
  std::vector<double> samples;  ///< Trace: recorded values (empty for other kinds)
};

/// Additive rate disturbance: freq > 0 is a vibration burst
/// amplitude·sin(2π·freq·(t−t0)); freq == 0 is a half-sine shock pulse.
struct Burst {
  double t0 = 0.0;
  double duration = 0.01;
  double amplitude = 0.0;  ///< °/s
  double freq = 0.0;       ///< Hz
};

/// The PR-1 standard fault catalogue, by stable serialization name.
enum class FaultKind {
  DriveElectrodeOpen,
  DriveElectrodeStuck,
  QuadratureStep,
  PrimaryAdcStuck,
  SenseAdcStuckNull,
  ReferenceDrift,
  PgaGainError,
  ChargeAmpOpen,
  NcoPhaseJump,
  RegisterBitFlip,
  FirmwareHang,
  EepromCalCorruption,
};

struct FaultEvent {
  FaultKind kind = FaultKind::NcoPhaseJump;
  long inject_at = 0;      ///< DSP-sample index
  long clear_after = -1;   ///< samples until auto-clear (−1 = permanent)
  double param = 0.0;      ///< kind-specific magnitude (0 = catalogue default)
};

/// One configuration write into the platform's register fabric, applied
/// before power-on (`afe` selects the analog-die file behind the second TAP).
struct RegWrite {
  bool afe = false;
  std::uint16_t addr = 0;
  std::uint16_t value = 0;
};

struct Scenario {
  std::uint64_t seed = 1;
  ScenarioClass cls = ScenarioClass::Invariant;
  bool full_fidelity = true;  ///< pipeline under test: Full (AFE + quantization) vs Ideal
  double duration_s = 0.2;
  double quad_scale = 1.0;    ///< MEMS quadrature-stiffness multiplier
  double drift_scale = 1.0;   ///< MEMS temperature-coefficient multiplier
  double output_bw_hz = 75.0; ///< Table 1 programmable output bandwidth
  int datapath_bits = 0;      ///< 0 = float datapath; else RTL wordlength
  bool open_loop = false;     ///< sense mode (realized through the mode register)
  std::vector<Segment> rate;
  std::vector<Segment> temp;
  std::vector<Burst> bursts;
  std::vector<RegWrite> regs;
  std::vector<FaultEvent> faults;
};

// ---- realization -----------------------------------------------------------

/// Rate stimulus: concatenated segments (last value held past the end) plus
/// every active burst.
sensor::Profile rate_profile(const Scenario& s);
/// Temperature stimulus: concatenated segments, 25 °C when empty.
sensor::Profile temp_profile(const Scenario& s);

// ---- fault metadata --------------------------------------------------------

/// AFE-layer faults reach into charge amps / PGAs / ADCs, which only exist at
/// Full fidelity.
bool fault_requires_full(FaultKind k);
/// Faults that only make sense with the 8051 subsystem running.
bool fault_needs_mcu(FaultKind k);
/// The catalogue DTC the supervisor must latch (0 = documented undetectable).
std::uint16_t fault_expected_dtc(FaultKind k);
/// Faults whose injected disturbance the platform must fully recover the
/// drive loop from (the "PLL relock after every injected lock-loss" check).
bool fault_expects_relock(FaultKind k);

// ---- names -----------------------------------------------------------------

const char* class_name(ScenarioClass c);
const char* seg_kind_name(SegKind k);
const char* fault_kind_name(FaultKind k);
bool parse_class(std::string_view text, ScenarioClass& out);
bool parse_seg_kind(std::string_view text, SegKind& out);
bool parse_fault_kind(std::string_view text, FaultKind& out);

// ---- serialization ---------------------------------------------------------

/// Text form of the `.scenario` format (round-trip stable: parse(to_text(s))
/// reproduces s exactly, including float bit patterns).
std::string to_text(const Scenario& s);
/// Parse a `.scenario` text. Throws std::runtime_error with a line-numbered
/// message on malformed input, and on a header value outside its legal
/// range (legal_envelope.hpp).
Scenario from_text(std::string_view text);

/// File helpers; save returns false on I/O failure, load throws on parse or
/// I/O failure.
bool save_scenario(const std::string& path, const Scenario& s);
Scenario load_scenario(const std::string& path);

}  // namespace ascp::conformance
