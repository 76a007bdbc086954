// baselines.hpp — behavioral models of the paper's commercial comparators.
//
// Tables 2 and 3 compare the platform against the Analog Devices ADXRS300
// and Murata's Gyrostar (ENV-05 class). Both are *analog-conditioned* gyros:
// the rate signal is demodulated, filtered and scaled in the continuous
// domain, with laser/factory trim at room temperature only — no digital
// temperature compensation, no resonance-tracked demodulation phase, no
// configurable bandwidth. AnalogGyroBaseline models that architecture on
// top of the same MEMS substrate:
//
//   MEMS ─► pickoff ─► analog AGC/PLL drive ─► analog demod (fixed phase
//   error, drifts with temp) ─► RC low-pass ─► gain+offset trim ─► output
//
// The structural consequences reproduce the table shapes: low-Q elements
// ring up fast (35 ms turn-on vs our 500 ms), but initial tolerances are
// wide (trim-limited), nulls drift with temperature (no compensation), and
// the bandwidth is whatever the RC made it.
#pragma once

#include <array>
#include <memory>

#include "common/state_archive.hpp"
#include "core/drive_loop.hpp"
#include "core/rate_sensor.hpp"
#include "dsp/modem.hpp"
#include "obs/observability.hpp"
#include "sensor/gyro_mems.hpp"

namespace ascp::core {

struct BaselineConfig {
  sensor::GyroMemsConfig mems{};
  DriveLoopConfig drive = default_drive_loop();
  double analog_fs = 1.92e6;
  int loop_div = 8;  ///< conditioning evaluated at analog_fs / loop_div

  double sense_gain_v_per_m = 4e6;   ///< pickoff + front-end gain
  double demod_bw_hz = 400.0;

  double nominal_sensitivity = 5e-3; ///< V per °/s after trim
  double trim_sigma = 0.05;          ///< 1σ relative trim error (laser trim)
  double sens_tempco = -4e-4;        ///< relative sensitivity drift per °C
  double null_v = 2.5;
  double null_sigma_v = 0.15;        ///< 1σ initial null error
  double null_tempco_v = 1.5e-3;     ///< null drift [V/°C]
  double demod_phase_err_sigma = 0.03;  ///< [rad] fixed analog phase error
  double demod_phase_tempco = 5e-4;     ///< [rad/°C]

  double output_lpf_hz = 40.0;       ///< analog RC bandwidth
  int output_lpf_poles = 2;
  double noise_dps_rt_hz = 0.1;      ///< electronics-limited noise floor

  double full_scale_dps = 300.0;
  double output_rate_hz = 1875.0;    ///< DAQ sampling of the analog output
  /// Evaluate profiles on the device's global tick axis instead of
  /// restarting t at 0 each run() (see GyroSystemConfig::stimulus_global_time).
  bool stimulus_global_time = false;
};

/// ADXRS300-class configuration (Table 2).
BaselineConfig adxrs300_like();
/// Gyrostar-class configuration (Table 3).
BaselineConfig gyrostar_like();

class AnalogGyroBaseline : public RateSensor {
 public:
  explicit AnalogGyroBaseline(const BaselineConfig& cfg);

  void power_on(std::uint64_t seed) override;
  double output_rate_hz() const override { return cfg_.output_rate_hz; }
  void run(const sensor::Profile& rate, const sensor::Profile& temp, double seconds,
           std::vector<double>* out) override;
  void run(sensor::StimulusSource& src, double seconds, std::vector<double>* out) override;
  double nominal_sensitivity() const override { return cfg_.nominal_sensitivity; }
  double nominal_null() const override { return cfg_.null_v; }
  double full_scale_dps() const override { return cfg_.full_scale_dps; }

  bool locked() const { return drive_->locked(); }

  /// Attach a read-only chain probe (stimulus, post-MEMS, decimated output —
  /// an analog baseline has no AFE or ADC taps). Same discipline as the
  /// platform's: bit-identical attached or detached. Survives power_on.
  void set_probe(sensor::Probe* probe);

  /// Attach an observability sink (profiler and spans only: an analog
  /// baseline has no PLL registers or DTCs to report, but its frame loop
  /// profiles the same way the platform's does). Survives power_on.
  void set_observability(const obs::ObsSink& sink);

  /// Checkpoint path: dynamic state only — trim/phase draws reproduce from
  /// the power-on seed, and the tick counter travels so decimation phase
  /// resumes exactly.
  void serialize_state(StateArchive& ar);

 private:
  void build(std::uint64_t seed);
  /// The three tasks of the frame loop: analog() runs tick ticks_ and
  /// advances the counter; the other two run on the tick it just ended.
  void analog();
  void conditioning();
  void daq_output();
  /// `n` analog ticks; then, when the last was a loop_div cycle's last
  /// (`ends`), the conditioning and, on an output period's last, the DAQ.
  void run_frame(long n, bool ends);
  /// run_frame, reading the clock at each task boundary and recording each
  /// task that fired in the profiler.
  void run_timed(long n, bool ends);
  /// Books the firings completed since tick `tick0` into the profiler.
  void count_tasks(long tick0);

  obs::ObsSink obs_{};

  BaselineConfig cfg_;
  std::unique_ptr<sensor::GyroMems> mems_;
  std::unique_ptr<DriveLoop> drive_;
  std::unique_ptr<dsp::IqDemodulator> demod_;

  // Frame loop: the analog tick, the conditioning rate (analog_fs /
  // loop_div, phase-aligned with the conditioning electronics settling on
  // the last analog step of each cycle) and the DAQ output decimation (one
  // sample per out_period_ ticks, on the last conditioning sample). Each
  // fires on the global tick, which persists across run() calls, so
  // decimation phase carries over exactly as the analog hardware's would.
  long ticks_ = 0;       ///< global index of the next analog tick
  long out_period_ = 1;  ///< analog ticks per DAQ output sample
  sensor::StimulusSource* run_src_ = nullptr;
  std::vector<double>* run_out_ = nullptr;
  std::array<int, 3> obs_tasks_{};  ///< analog, conditioning, daq_output ids in obs_.tasks

  // Probe taps are inline guards.
  sensor::Probe* probe_ = nullptr;
  bool probe_stim_ = false, probe_mems_ = false, probe_out_ = false;

  // Per-tick state flowing between the tasks.
  double tick_temp_ = 25.0;
  sensor::GyroOutputs pick_{};

  // Device draws.
  double trim_gain_ = 1.0;
  double null_draw_ = 0.0;
  double phase_err_ = 0.0;
  double demod_angle_ = 0.0;  ///< φH: where the Coriolis response lands
  Rng noise_rng_{1};
  double noise_sigma_ = 0.0;

  // Output RC filter state (up to 2 poles).
  double lpf_state_[2] = {0.0, 0.0};
  double lpf_alpha_ = 0.0;
  double scale_v_per_demod_ = 1.0;  ///< analog gain: demod volts → output volts
  double v_per_m_ = 0.0;            ///< pickoff transduction gain [V per farad]
  double drive_v_ = 0.0;
};

}  // namespace ascp::core
