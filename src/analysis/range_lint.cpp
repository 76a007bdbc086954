#include "analysis/range_lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "dsp/biquad.hpp"
#include "dsp/cic.hpp"
#include "dsp/fir.hpp"

namespace ascp::analysis {
namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// L1 norm of a biquad's impulse response — the adversarial gain bound.
/// Stable sections decay geometrically, so the truncated sum converges; the
/// iteration cap guards against (mis)designed marginally-stable sections.
double biquad_l1(const dsp::BiquadCoeffs& c) {
  dsp::Biquad bq(c);
  double sum = 0.0;
  double x = 1.0;
  for (int n = 0; n < 200000; ++n) {
    const double h = bq.process(x);
    x = 0.0;
    sum += std::abs(h);
    if (n > 64 && std::abs(h) < 1e-14 * std::max(sum, 1.0)) break;
  }
  return sum;
}

/// Peak magnitude response max_f |H(f)| on a dense grid over [0, fs/2].
double biquad_peak(const dsp::BiquadCoeffs& c, double fs) {
  double peak = 0.0;
  for (int k = 0; k <= 4096; ++k)
    peak = std::max(peak, dsp::biquad_magnitude(c, fs / 2.0 * k / 4096.0, fs));
  return peak;
}

/// Peak of the composed response max_f |H1(f)·H2(f)| — NOT the product of
/// the per-section peaks: cascaded sections peak at different frequencies
/// (a 4th-order Butterworth is flat even though its Q=1.3 section peaks at
/// √2 alone).
double biquad_cascade_peak(const dsp::BiquadCoeffs& c1, const dsp::BiquadCoeffs& c2,
                           double fs) {
  double peak = 0.0;
  for (int k = 0; k <= 4096; ++k) {
    const double f = fs / 2.0 * k / 4096.0;
    peak = std::max(peak,
                    dsp::biquad_magnitude(c1, f, fs) * dsp::biquad_magnitude(c2, f, fs));
  }
  return peak;
}

double fir_l1(std::span<const double> taps) {
  double sum = 0.0;
  for (const double t : taps) sum += std::abs(t);
  return sum;
}

double fir_peak(std::span<const double> taps, double fs) {
  double peak = 0.0;
  for (int k = 0; k <= 4096; ++k)
    peak = std::max(peak, dsp::fir_magnitude(taps, fs / 2.0 * k / 4096.0, fs));
  return peak;
}

/// A declared register format Qi_f: one sign bit, i integer and f fraction
/// bits, as the report names it, with its largest value (2^(i+f) − 1) / 2^f.
struct QFormat {
  const char* name;
  double max;
};

constexpr QFormat q_format(const char* name, int i, int f) {
  return {name, static_cast<double>((std::int64_t{1} << (i + f)) - 1) /
                    static_cast<double>(std::int64_t{1} << f)};
}

constexpr QFormat kQ1_14 = q_format("Q1_14", 1, 14);  ///< ±2: ADC samples, unit carriers
constexpr QFormat kQ1_22 = q_format("Q1_22", 1, 22);  ///< ±2: filter and loop outputs
constexpr QFormat kQ4_18 = q_format("Q4_18", 4, 18);  ///< ±16: products, states, integrators

struct StageList {
  std::vector<StageRange> stages;

  void add(std::string stage, std::string format, double bound, double limit,
           double l1, std::string note) {
    stages.push_back(StageRange{std::move(stage), std::move(format), bound, limit, l1,
                                std::move(note)});
  }
  /// A node held in a declared Q format: its limit is the format's largest value.
  void add(std::string stage, const QFormat& q, double bound, double l1, std::string note) {
    add(std::move(stage), q.name, bound, q.max, l1, std::move(note));
  }
};

}  // namespace

double StageRange::headroom_db() const {
  if (bound <= 0.0) return 99.0;
  return 20.0 * std::log10(limit / bound);
}

std::vector<StageRange> sense_chain_ranges(const core::SenseChainConfig& cfg,
                                           const dsp::CompensationCoeffs& comp,
                                           const RangeInputSpec& in) {
  StageList out;
  const double vref = in.vref_v;
  const double a_fs = in.adc_rail_v / vref;  // pickoff bound [FS]

  out.add("sense.adc", kQ1_14, a_fs, a_fs,
          "SAR ADC clamps at the ±" + fmt(in.adc_rail_v) + " V reference rail");

  // ---- demodulator ---------------------------------------------------------
  // Mixer: 2·x·carrier — instantaneous peak 2A with unit carriers.
  out.add("sense.demod.mixer", kQ4_18, 2.0 * a_fs, 2.0 * a_fs,
          "×2 mixer product of a rail-bounded pickoff and a unit carrier");

  // Post-mixer low-pass: carrier-structured input is DC (≤A) plus a 2f tone
  // (≤A); the steady-state bound sums |H| at those frequencies.
  const auto lpf = dsp::design_biquad_lowpass(cfg.demod_bw, 0.707, cfg.fs);
  const double h0 = dsp::biquad_magnitude(lpf, 0.0, cfg.fs);
  const double h2f = dsp::biquad_magnitude(lpf, 2.0 * in.carrier_min_hz, cfg.fs);
  const double bb = a_fs * (h0 + h2f);
  out.add("sense.demod.lpf", kQ1_22, bb, 2.0 * a_fs * biquad_l1(lpf),
          "|H(0)|=" + fmt(h0) + " on the DC product + |H(2f)|=" + fmt(h2f) +
              " leakage at 2×" + fmt(in.carrier_min_hz) + " Hz");

  // Direct-form-II-transposed state registers of the demod low-pass.
  {
    const double x_peak = 2.0 * a_fs;
    const double y_peak = 2.0 * a_fs * biquad_l1(lpf);
    const double s2 = std::abs(lpf.b2) * x_peak + std::abs(lpf.a2) * y_peak;
    const double s1 = std::abs(lpf.b1) * x_peak + std::abs(lpf.a1) * y_peak + s2;
    out.add("sense.demod.lpf.state", kQ4_18, std::max(s1, s2), std::max(s1, s2),
            "DF2T states: |b1|x+|a1|y+s2 with b1=" + fmt(lpf.b1) + ", a1=" + fmt(lpf.a1));
  }

  const bool closed = cfg.mode == core::SenseMode::ClosedLoop;
  const double ctrl = cfg.ctrl_limit / vref;
  if (closed) {
    out.add("sense.servo.integrator", kQ4_18, ctrl, ctrl,
            "explicitly clamped to ±ctrl_limit = ±" + fmt(cfg.ctrl_limit) + " V");
    out.add("sense.servo.output", kQ1_22, ctrl, ctrl,
            "integrator + kp·error, clamped to ±ctrl_limit");
    const double mod = std::sqrt(2.0) * ctrl;
    out.add("sense.modulator", kQ1_14, mod, 2.0 * ctrl,
            "√(u_rate²+u_quad²)·1 = √2·ctrl_limit with unit carriers (control-DAC "
            "word)");
  }

  // ---- decimation ----------------------------------------------------------
  // The CIC input register is itself a saturating rail, so the propagated
  // bound clips there; in closed loop the servo clamp keeps it well inside.
  const double cic_in_raw = closed ? ctrl : bb;
  const double cic_in = std::min(cic_in_raw, 1.0);
  out.add("sense.cic.input", "Q(16)@vref", cic_in, 1.0, cic_in,
          closed ? "servo clamp ±" + fmt(cfg.ctrl_limit) + " V inside the ±vref register"
                 : "input register rail-clamps at ±vref");

  // Hogenauer bit growth: the int64 integrators rely on modular wrap, which
  // is exact iff the register is at least B_in + N·ceil(log2 R) bits wide.
  const int growth =
      16 + cfg.cic_stages * static_cast<int>(std::ceil(std::log2(cfg.cic_ratio)));
  out.add("sense.cic.accumulator", "int64", static_cast<double>(growth), 64.0,
          static_cast<double>(growth),
          "required width B_in + N·log2(R) = 16 + " + std::to_string(cfg.cic_stages) +
              "·log2(" + std::to_string(cfg.cic_ratio) + ") bits (modular-wrap "
              "correctness condition)");
  out.add("sense.cic.output", kQ1_22, cic_in, cic_in,
          "R^N gain normalized out; DC gain exactly 1");

  // ---- clean-up FIR --------------------------------------------------------
  const double fout = cfg.fs / cfg.cic_ratio;
  const auto taps = dsp::design_lowpass(cfg.fir_taps, cfg.fir_corner, fout);
  const double fpk = fir_peak(taps, fout);
  std::size_t dom = 0;
  for (std::size_t i = 1; i < taps.size(); ++i)
    if (std::abs(taps[i]) > std::abs(taps[dom])) dom = i;
  const double fir_out = cic_in * fpk;
  out.add("sense.fir", kQ1_22, fir_out, cic_in * fir_l1(taps),
          "peak |H|=" + fmt(fpk) + " over [0, f_out/2]; dominant tap h[" +
              std::to_string(dom) + "]=" + fmt(taps[dom]));

  // ---- output Butterworth cascade -----------------------------------------
  // Same section design design_butterworth_lowpass() uses internally. The
  // node between the sections sees H1 alone; the cascade output is bounded
  // by the composed peak max_f |H1·H2| (flat for Butterworth), because the
  // Q=1.3 section's lone √2 resonance is cancelled by the Q=0.54 section's
  // droop at that frequency.
  const double fir_l1_out = cic_in * fir_l1(taps);
  const double qs[2] = {0.5412, 1.3066};  // 4th-order Butterworth pole-pair Qs
  const auto c0 = dsp::design_biquad_lowpass(cfg.output_bw_hz, qs[0], fout);
  const auto c1 = dsp::design_biquad_lowpass(cfg.output_bw_hz, qs[1], fout);
  const double pk0 = biquad_peak(c0, fout), l1_0 = biquad_l1(c0);
  const double pk01 = biquad_cascade_peak(c0, c1, fout), l1_1 = biquad_l1(c1);
  const double mid = fir_out * pk0;
  const double mid_l1 = fir_l1_out * l1_0;
  out.add("sense.output_lpf[0]", kQ1_22, mid, mid_l1,
          "Butterworth section Q=" + fmt(qs[0]) + ": peak |H|=" + fmt(pk0) +
              ", L1=" + fmt(l1_0));
  double y = fir_out * pk01;
  double y_l1 = fir_l1_out * l1_0 * l1_1;
  out.add("sense.output_lpf[1]", kQ1_22, y, y_l1,
          "Butterworth section Q=" + fmt(qs[1]) + ": cascade peak |H1·H2|=" +
              fmt(pk01) + " (composed, not per-section product)");
  const auto state_node = [&](int s, const dsp::BiquadCoeffs& c, double xb, double yb,
                              double xl, double yl) {
    const double s2 = std::abs(c.b2) * xb + std::abs(c.a2) * yb;
    const double s1 = std::abs(c.b1) * xb + std::abs(c.a1) * yb + s2;
    const double s2l = std::abs(c.b2) * xl + std::abs(c.a2) * yl;
    const double s1l = std::abs(c.b1) * xl + std::abs(c.a1) * yl + s2l;
    out.add("sense.output_lpf[" + std::to_string(s) + "].state", kQ4_18, std::max(s1, s2),
            std::max(s1l, s2l),
            "DF2T states with a1=" + fmt(c.a1) + ", a2=" + fmt(c.a2));
  };
  state_node(0, c0, fir_out, mid, fir_l1_out, mid_l1);
  state_node(1, c1, mid, y, mid_l1, y_l1);

  // ---- compensation + null offset -----------------------------------------
  const double dt_max =
      std::max(std::abs(in.temp_lo_c - 25.0), std::abs(in.temp_hi_c - 25.0));
  const double off_max = std::abs(comp.offset[0]) + std::abs(comp.offset[1]) * dt_max +
                         std::abs(comp.offset[2]) * dt_max * dt_max;
  const double scale_max = std::abs(comp.s0) *
                           (1.0 + std::abs(comp.s1) * dt_max +
                            std::abs(comp.s2) * dt_max * dt_max);
  const double comp_out = (y + off_max / vref) * scale_max;
  out.add("sense.compensation", kQ1_22, comp_out, (y_l1 + off_max / vref) * scale_max,
          "(x + |offset(T)|)·|scale(T)| over T ∈ [" + fmt(in.temp_lo_c) + ", " +
              fmt(in.temp_hi_c) + "] °C: |offset|≤" + fmt(off_max) + " V, |scale|≤" +
              fmt(scale_max));
  const double final_out = comp_out + cfg.output_offset / vref;
  out.add("sense.output", kQ1_22, final_out,
          (y_l1 + off_max / vref) * scale_max + cfg.output_offset / vref,
          "compensated rate + " + fmt(cfg.output_offset) + " V null offset");

  return std::move(out.stages);
}

std::vector<StageRange> drive_loop_ranges(const core::DriveLoopConfig& cfg,
                                          const RangeInputSpec& in) {
  StageList out;
  const double vref = in.vref_v;
  const double a_fs = in.adc_rail_v / vref;

  out.add("drive.adc", kQ1_14, a_fs, a_fs,
          "primary-pickoff ADC clamps at the reference rail");
  out.add("drive.nco.carrier", kQ1_14, 1.0, 1.0, "unit-amplitude sine/cosine lookup");

  // PD correlators: pickoff × unit carrier, then the 400 Hz low-pass.
  const auto lpf = dsp::design_biquad_lowpass(cfg.pll.pd_lpf_hz, 0.707, cfg.pll.fs);
  const double h0 = dsp::biquad_magnitude(lpf, 0.0, cfg.pll.fs);
  const double h2f = dsp::biquad_magnitude(lpf, 2.0 * cfg.pll.f_min, cfg.pll.fs);
  const double corr = a_fs / 2.0 * (h0 + h2f);
  out.add("drive.pll.correlator", kQ1_22, corr, a_fs * biquad_l1(lpf),
          "A/2·(|H(0)|+|H(2f_min)|) with |H(2f)|=" + fmt(h2f));
  out.add("drive.pll.pd", kQ1_22, 1.0, 1.0,
          "amplitude-normalized phase detector: |i_f| / hypot(i_f, q_f) ≤ 1");
  out.add("drive.pll.amplitude", kQ1_22, 2.0 * corr, 2.0 * corr, "2·hypot of the two correlators");

  // Loop integrator and tuning word live in cycles-per-sample units (f/fs).
  const double tune_max =
      std::max(std::abs(cfg.pll.f_min - cfg.pll.f_center),
               std::abs(cfg.pll.f_max - cfg.pll.f_center)) /
      cfg.pll.fs;
  out.add("drive.pll.integrator", kQ1_22, tune_max, tune_max,
          "clamped to [f_min−f_center, f_max−f_center] = ±" +
              fmt(std::abs(cfg.pll.f_max - cfg.pll.f_center)) + " Hz");
  out.add("drive.pll.tuning_word", kQ1_22, cfg.pll.f_max / cfg.pll.fs, cfg.pll.f_max / cfg.pll.fs,
          "NCO increment clamped to f_max/fs = " + fmt(cfg.pll.f_max / cfg.pll.fs));

  const double err_max = std::max(std::abs(cfg.agc.target - in.adc_rail_v * (1.0 + h2f)),
                                  std::abs(cfg.agc.target)) /
                         vref;
  out.add("drive.agc.error", kQ1_22, err_max, err_max,
          "target − detected amplitude, amplitude ≤ rail");
  out.add("drive.agc.integrator", kQ1_22, cfg.agc.gain_max / vref, cfg.agc.gain_max / vref,
          "anti-windup clamp to [gain_min, gain_max] = [" + fmt(cfg.agc.gain_min) +
              ", " + fmt(cfg.agc.gain_max) + "]");
  out.add("drive.agc.gain", kQ1_22, cfg.agc.gain_max / vref,
          cfg.agc.gain_max / vref, "actuator clamp at the drive-DAC rail");
  out.add("drive.output", kQ1_14, cfg.agc.gain_max / vref, cfg.agc.gain_max / vref,
          "gain_max × unit carrier = " + fmt(cfg.agc.gain_max) + " V ≤ " +
              fmt(in.adc_rail_v) + " V DAC reference");

  return std::move(out.stages);
}

Report check_ranges(const core::SenseChainConfig& sense,
                    const core::DriveLoopConfig& drive,
                    const dsp::CompensationCoeffs& comp, const RangeInputSpec& in) {
  Report rep;
  auto emit = [&rep](const std::vector<StageRange>& stages) {
    for (const StageRange& s : stages) {
      if (s.saturates()) {
        rep.add(Severity::Error, "range", s.stage,
                "worst-case bound " + fmt(s.bound) + " reaches " + s.format +
                    " full scale " + fmt(s.limit) + " — " + s.note);
      } else {
        char head[32];
        std::snprintf(head, sizeof(head), "%.1f dB", s.headroom_db());
        rep.add(Severity::Info, "range", s.stage,
                "bound " + fmt(s.bound) + " of " + s.format + " ±" + fmt(s.limit) +
                    " (" + head + " headroom; adversarial L1 bound " + fmt(s.l1_bound) +
                    ") — " + s.note);
      }
    }
  };
  emit(sense_chain_ranges(sense, comp, in));
  emit(drive_loop_ranges(drive, in));
  rep.add(Severity::Info, "range", "drive.nco.phase",
          "phase accumulator wraps modulo 2π by design (not an overflow)");
  return rep;
}

}  // namespace ascp::analysis
