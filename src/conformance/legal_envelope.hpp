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

/// Multiplier of the MEMS quadrature stiffness (nominal 6e4 1/s², about
/// 50 °/s equivalent); 0 is a die without quadrature. With both MEMS scales
/// at either end of their ranges, 40 generated scenarios (seed 2026) pass
/// the oracle. From about 3 the full chain's output at large rates leaves
/// the ideal model's tolerance, and 1e300 drives the MEMS state to NaN.
inline constexpr FieldRange kQuadScale{"quad_scale", 0.0, 2.0};

/// Multiplier of the MEMS temperature coefficients (f0, Q, drive force,
/// pickoff and quadrature); 0 is a die that does not drift, and a negative
/// value reverses the physics. At 2 the supervisor no longer latches a
/// quadrature step at 85 °C (at 1.75 it still does), so 1.5 keeps the
/// fault checks valid over the whole temperature range.
inline constexpr FieldRange kDriftScale{"drift_scale", 0.0, 1.5};

/// Output −3 dB bandwidth in Hz: the sense chain's programmable range
/// (paper Table 1, 25..75 Hz).
inline constexpr FieldRange kOutputBwHz{"output_bw", 25.0, 75.0};

/// RTL wordlength of the sense datapath registers; 0, outside the range,
/// selects the float datapath. A `Quantizer` holds 2..63 bits and the servo
/// integrators are 4 bits wider than the datapath, so 59 is the widest
/// datapath whose integrators are not clamped.
inline constexpr FieldRange kDatapathBits{"datapath_bits", 2.0, 59.0};

}  // namespace ascp::conformance
