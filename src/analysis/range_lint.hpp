// range_lint.hpp — static fixed-point range analyzer for the DSP chain.
//
// The paper's flow dimensions every datapath register during the MATLAB
// exploration. The DSP blocks compute in double, and `Quantizer`
// (SenseChainConfig::datapath_bits) is their one run-time register model;
// this analyzer checks each node against the Q format declared for it
// (Q1_14 ADC samples and carriers, Q1_22 filter and loop outputs, Q4_18
// products, states and integrators, plus the CIC's input register and int64
// integrators). It closes the loop statically: it propagates worst-case
// amplitude bounds through the *actual* shipped chain — the same
// coefficient generators (design_lowpass, design_butterworth_lowpass, RBJ
// biquads) and the same clamps the runtime uses — and proves each node stays
// inside its declared format, or pinpoints the stage and coefficient that
// can saturate. No samples are simulated.
//
// Two bounds are computed per LTI stage:
//   * tone bound — peak gain max_f |H(f)|: the steady-state bound for the
//     sinusoidal/step rate profiles the datasheet characterizes with. This
//     is the bound the saturation-free verdict uses.
//   * L1 bound — sum |h[n]|: the adversarial bound over all bounded inputs,
//     reported as headroom information (an input crafted to match the
//     impulse-response signs could reach it).
//
// Nonlinear/clamped nodes (servo integrators, AGC, PLL tuning) use their
// explicit clamp rails — the clamps make the proof compositional.
#pragma once

#include <string>
#include <vector>

#include "analysis/findings.hpp"
#include "core/drive_loop.hpp"
#include "core/sense_chain.hpp"
#include "dsp/compensation.hpp"

namespace ascp::analysis {

/// Operating conditions the bounds are proven over (datasheet limits).
struct RangeInputSpec {
  double adc_rail_v = 2.5;     ///< sense/primary ADC clamp (= reference) [V]
  double vref_v = 2.5;         ///< full-scale voltage one FS unit maps to
  double temp_lo_c = -40.0;    ///< compensation proven over this temperature…
  double temp_hi_c = 85.0;     ///< …range (paper Table 1 operating range)
  double carrier_min_hz = 13e3;///< lowest drive frequency (PLL rail) — sets
                               ///< the worst-case 2f mixer-leakage frequency
};

/// Worst-case bound at one chain node, against its declared format.
struct StageRange {
  std::string stage;     ///< e.g. "sense.fir"
  std::string format;    ///< declared register format, e.g. "Q1_22"
  double bound = 0.0;    ///< proven worst-case |value| [FS units of vref]
  double limit = 0.0;    ///< format positive full scale [FS units]
  double l1_bound = 0.0; ///< adversarial (L1) bound, 0 when not applicable
  std::string note;      ///< what the bound rests on (clamp, norm, …)

  bool saturates() const { return bound >= limit; }
  double headroom_db() const;
};

/// Bound every node of the sense chain for the given configuration.
std::vector<StageRange> sense_chain_ranges(const core::SenseChainConfig& cfg,
                                           const dsp::CompensationCoeffs& comp,
                                           const RangeInputSpec& in = {});

/// Bound every node of the drive loop (PLL + AGC + NCO + drive DAC).
std::vector<StageRange> drive_loop_ranges(const core::DriveLoopConfig& cfg,
                                          const RangeInputSpec& in = {});

/// Run both and convert to findings: Error for any node whose tone bound
/// reaches its format limit (message names the stage and the dominant
/// coefficient), Info otherwise (bound + headroom).
Report check_ranges(const core::SenseChainConfig& sense,
                    const core::DriveLoopConfig& drive,
                    const dsp::CompensationCoeffs& comp,
                    const RangeInputSpec& in = {});

}  // namespace ascp::analysis
