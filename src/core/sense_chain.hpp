// sense_chain.hpp — secondary (rate) channel conditioning.
//
// Paper §4.1: "a chain including demodulators, filters, temperature/offset
// compensation and modulators for secondary drive and rate sensing", with
// open-loop and closed-loop (force-feedback) configurations. The structure:
//
//  sense ADC ──► I/Q demod ──► [closed loop: PI servos ──► I/Q modulator ──► control DAC]
//                  │
//                  └─► rate & quadrature baseband ──► CIC ÷128 ──► FIR ──► compensation ──► output
//
// With the drive convention carrier_i = sin (drive phase), the Coriolis
// response lands in the cosine demodulator output and the mechanical
// quadrature error in the sine output.
#pragma once

#include <optional>
#include <span>

#include "common/quantizer.hpp"
#include "dsp/cic.hpp"
#include "dsp/compensation.hpp"
#include "dsp/fir.hpp"
#include "dsp/modem.hpp"

namespace ascp::core {

enum class SenseMode { OpenLoop, ClosedLoop };

struct SenseChainConfig {
  double fs = 240e3;           ///< DSP sample rate
  double demod_bw = 400.0;     ///< demodulator low-pass corner [Hz]
  int cic_ratio = 128;         ///< decimation to the output rate
  int cic_stages = 3;
  std::size_t fir_taps = 33;   ///< decimation clean-up FIR length
  double fir_corner = 200.0;   ///< clean-up FIR corner (CIC droop region)
  /// Output −3 dB bandwidth [Hz] (paper Table 1: 25..75 Hz, programmable).
  /// Realized by a 4th-order Butterworth biquad pair at the output rate —
  /// the hardware-cheap way to get sharp low corners at 1.875 kHz.
  double output_bw_hz = 75.0;
  SenseMode mode = SenseMode::ClosedLoop;
  // Force-feedback servo gains (closed loop).
  double rate_ki = 800.0;      ///< integral gain [ctrl-V per demod-V-second]
  double rate_kp = 0.3;
  double quad_ki = 800.0;
  double quad_kp = 0.3;
  double ctrl_limit = 2.4;     ///< control-DAC rail
  double output_offset = 2.5;  ///< null voltage added after compensation (Table 1)
  /// Carrier phase trim [rad] applied to the demodulator reference — the
  /// register-programmable knob that aligns detection with the actual
  /// AFE path delay (charge amp + AA filter + DAC). Calibrated per design.
  double demod_phase_trim = 0.0;
  /// Phase trim for the feedback modulator carriers (control-path delay).
  double fb_phase_trim = 0.0;
  /// Hardwired-datapath word length (the "RTL dimensioning" of paper §2).
  /// 0 = ideal float (the MATLAB level); otherwise every baseband node
  /// (demod outputs, servo integrators, control word) is held in a
  /// `datapath_bits`-wide register. The wordlength ablation sweeps this.
  int datapath_bits = 0;
};

/// Per-sample result of the fast section.
struct SenseFastOut {
  double control_v = 0.0;  ///< control-DAC voltage (0 in open loop)
};

/// Produced every cic_ratio samples.
struct SenseSlowOut {
  double rate = 0.0;   ///< compensated rate output [V] (includes null offset)
  double quad = 0.0;   ///< quadrature monitor (raw, decimated)
};

class SenseChain {
 public:
  explicit SenseChain(const SenseChainConfig& cfg);

  /// Fast path, once per DSP sample. `pickoff` is the sense-ADC sample,
  /// carriers come from the drive loop.
  SenseFastOut step(double pickoff, double carrier_i, double carrier_q);

  /// step() over a block of samples, discarding the control outputs. A
  /// caller that needs every slow sample sizes blocks with
  /// samples_until_slow(), so each CIC completion lands on a block end, and
  /// polls slow_output() there.
  void step_block(std::span<const double> pickoff, std::span<const double> carrier_i,
                  std::span<const double> carrier_q);

  /// DSP samples left until the rate CIC completes its next decimation
  /// cycle.
  long samples_until_slow() const { return cic_rate_.ticks_until_output(); }

  /// Slow output, valid when the CIC completes a decimation cycle; the
  /// compensation uses the measured die temperature.
  std::optional<SenseSlowOut> slow_output(double measured_temp_c);

  /// Raw (pre-compensation) rate signal at the decimated rate — the
  /// calibration observable.
  double raw_rate() const { return raw_rate_; }
  double raw_quad() const { return raw_quad_; }

  /// Demodulator baseband (monitor registers).
  dsp::Iq baseband() const { return bb_; }

  void set_compensation(const dsp::CompensationCoeffs& c) { comp_.set_coeffs(c); }
  const dsp::Compensation& compensation() const { return comp_; }
  const SenseChainConfig& config() const { return cfg_; }
  double output_rate_hz() const { return cfg_.fs / cfg_.cic_ratio; }

  void reset();

  void serialize_state(StateArchive& ar) {
    demod_.serialize_state(ar);
    cic_rate_.serialize_state(ar);
    cic_quad_.serialize_state(ar);
    fir_.serialize_state(ar);
    out_lpf_.serialize_state(ar);
    // Compensation coefficients are runtime-written (cal replay, trim), so
    // they travel with the state.
    dsp::CompensationCoeffs c = comp_.coeffs();
    for (auto& o : c.offset) ar.value(o);
    ar.value(c.s0);
    ar.value(c.s1);
    ar.value(c.s2);
    if (!ar.saving()) comp_.set_coeffs(c);
    ar.value(bb_.i);
    ar.value(bb_.q);
    ar.value(rate_integ_);
    ar.value(quad_integ_);
    ar.value(raw_rate_);
    ar.value(raw_quad_);
    ar.value(pending_rate_);
    ar.value(pending_quad_);
  }

 private:
  SenseChainConfig cfg_;
  dsp::IqDemodulator demod_;
  dsp::IqModulator mod_;
  dsp::CicDecimator cic_rate_;
  dsp::CicDecimator cic_quad_;
  dsp::FirFilter fir_;
  dsp::BiquadCascade out_lpf_;
  dsp::Compensation comp_;
  dsp::Iq bb_;
  std::optional<Quantizer> dp_q_;  ///< datapath register model (RTL level)
  double cos_d_ = 1.0, sin_d_ = 0.0;
  double cos_f_ = 1.0, sin_f_ = 0.0;
  double rate_integ_ = 0.0;
  double quad_integ_ = 0.0;
  double raw_rate_ = 0.0;
  double raw_quad_ = 0.0;
  std::optional<double> pending_rate_;
  std::optional<double> pending_quad_;
};

}  // namespace ascp::core
