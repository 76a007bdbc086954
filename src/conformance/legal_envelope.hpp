// legal_envelope.hpp — the legal range of the numeric `.scenario` header fields.
//
// One table serves both ends of the format. The generator draws each field
// inside its range, and from_text refuses a value outside it with
// "<field> <value> outside the legal range [lo, hi]", so what the fuzzer
// produces and what a hand-written or mutated file may ask for cannot drift
// apart. Each bound is what the platform accepts.
#pragma once

namespace ascp::conformance {

struct FieldRange {
  const char* field;  ///< the `.scenario` record key
  double lo;          ///< inclusive
  double hi;          ///< inclusive
  constexpr bool contains(double v) const { return v >= lo && v <= hi; }
};

/// Simulated seconds. At least one decimated output period (128 DSP samples
/// at 240 kHz): a shorter run produces no output sample, so every check
/// would pass on nothing. At most 10 s: a trace scenario's replay check
/// records its stimulus at the 1.92 MHz base rate, 16 B a tick, so 10 s
/// holds about 300 MB (the generator's longest scenario is 1.3 s).
inline constexpr FieldRange kDurationS{"duration", 128.0 / 240e3, 10.0};

/// Output −3 dB bandwidth in Hz: the sense chain's programmable range
/// (paper Table 1, 25..75 Hz).
inline constexpr FieldRange kOutputBwHz{"output_bw", 25.0, 75.0};

/// RTL wordlength of the sense datapath registers; 0, outside the range,
/// selects the float datapath. A `Quantizer` holds 2..63 bits and the servo
/// integrators are 4 bits wider than the datapath, so 59 is the widest
/// datapath whose integrators are not clamped.
inline constexpr FieldRange kDatapathBits{"datapath_bits", 2.0, 59.0};

}  // namespace ascp::conformance
