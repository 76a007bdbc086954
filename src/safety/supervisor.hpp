// supervisor.hpp — runtime safety supervisor: plausibility monitors, DTC
// latching and the NOMINAL → DEGRADED → SAFE_STATE degradation machine.
//
// The paper's firmware "constantly checks the system status by accessing the
// several readable registers spread along the processing chain (for example
// makes sure that the PLL is locked)" (§4.2). The supervisor is the
// hardwired half of that story: cheap per-sample plausibility monitors that
// run beside the conditioning chain, latch diagnostic trouble codes into a
// bridge-mapped DIAG register block (readable by the 8051 and over JTAG),
// and drive the degradation state machine that decides what the output pin
// is allowed to show.
//
// Monitors (all O(1) per sample):
//   * PLL lock loss after first lock          → PLL_UNLOCK
//   * AGC actuator pinned at its upper rail   → AGC_RAIL
//   * ADC code stuck / stuck at rail          → ADC_STUCK      (critical)
//   * rate output outside the plausible span  → RATE_RANGE     (critical)
//   * drive-pickoff amplitude collapse        → DRIVE_COLLAPSE (critical)
//   * control (force-feedback) rail pinning   → CTRL_RAIL      (critical)
//   * loop gain far from the locked baseline  → GAIN_ANOMALY (ref drift/PGA)
//   * measured temperature implausible        → TEMP_RANGE
//   * quadrature monitor out of range         → QUAD_RANGE
//   * config-register scrub vs. shadows       → CFG_CORRUPT (SEU, repaired)
//   * periodic EEPROM calibration-CRC audit   → CAL_CRC
// plus event inputs from the platform: watchdog bite, self-test verdict,
// calibration-replay verdict. A NaN observable counts as out of band and
// trips its monitor.
//
// Degradation policy: any latch ⇒ at least DEGRADED. A *critical* condition
// that stays active for `escalate_slow` output samples ⇒ SAFE_STATE, where
// the output is forced to the null voltage with the fault flag raised. When
// every condition has been quiet for `recover_slow` output samples the state
// steps back down one level; DTCs stay latched until the service-tool clear.
// On GAIN_ANOMALY or TEMP_RANGE the temperature feeding the compensation
// polynomials is frozen at the last plausible value (drifting references
// must not be allowed to re-trim the output through the compensation path).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/observability.hpp"
#include "platform/registers.hpp"
#include "safety/dtc.hpp"

namespace ascp::safety {

/// DIAG register offsets from the block base address.
namespace diag {
constexpr std::uint16_t kDtcReg = 0;    ///< status: latched DTC bitmask
constexpr std::uint16_t kState = 1;     ///< status: SafetyState (0/1/2)
constexpr std::uint16_t kFlags = 2;     ///< status: bit0 output forced to null
constexpr std::uint16_t kEvents = 3;    ///< status: DTC latch event count
constexpr std::uint16_t kClear = 4;     ///< config: write kClearMagic to clear DTCs
constexpr std::uint16_t kClearMagic = 0xC1EA;
}  // namespace diag

struct SupervisorConfig {
  double fs = 240e3;            ///< fast (DSP) sample rate [Hz]
  double null_v = 2.5;          ///< output null voltage (forced in SAFE_STATE)
  double rate_range_v = 2.2;    ///< |rate − null| beyond this is implausible
  double quad_range_v = 0.5;    ///< |quad monitor| beyond this is implausible
  double temp_min_c = -55.0;    ///< plausible die-temperature window
  double temp_max_c = 130.0;
  double adc_vref = 2.5;        ///< ADC full scale (rail-stuck detection)
  double agc_gain_max = 2.4;    ///< AGC actuator rail
  double agc_rail_frac = 0.98;  ///< gain above frac·max counts as railed
  double ctrl_limit_v = 2.4;    ///< force-feedback control rail
  double ctrl_rail_frac = 0.98;
  double drive_amplitude_target = 1.0;  ///< AGC set point (collapse reference)
  double drive_collapse_frac = 0.25;    ///< amplitude below frac·target = collapse
  double gain_anomaly_frac = 0.35;      ///< |gain − baseline| beyond frac·baseline
  int adc_stuck_samples = 64;    ///< identical codes before ADC_STUCK
  int fast_trip_samples = 48;    ///< consecutive bad fast samples to latch rails
  /// Consecutive settled samples before the monitors arm (and before the
  /// gain baseline is re-captured after a settle loss). The raw settle flag
  /// blips while the amplitude first sweeps through its tolerance band with
  /// the AGC still railed — baselining there would poison the gain-anomaly
  /// monitor, so arming waits for a sustained settle (50 ms at 240 kHz).
  int arm_settle_samples = 12000;
  int unlock_trip_samples = 1200;  ///< sustained unlock before PLL_UNLOCK
  int escalate_slow = 8;         ///< critical-active slow samples → SAFE_STATE
  int recover_slow = 16;         ///< quiet slow samples → step back one level
  int scrub_interval_slow = 32;  ///< config-register scrub cadence
  int audit_interval_slow = 256; ///< calibration-CRC audit cadence (0 = off)
};

/// Per-DSP-sample observables (everything is already computed by the chain;
/// the supervisor only reads).
struct FastSample {
  double primary_adc_v = 0.0;  ///< primary (drive pickoff) ADC sample
  double sense_adc_v = 0.0;    ///< sense ADC sample
  bool pll_locked = false;
  bool loop_settled = false;   ///< PLL locked AND AGC settled
  double agc_gain = 0.0;
  double amplitude = 0.0;      ///< measured drive-pickoff carrier amplitude
  double control_v = 0.0;      ///< force-feedback control voltage
};

/// Per-output-sample observables.
struct SlowSample {
  double rate_v = 0.0;   ///< compensated rate output [V]
  double quad_v = 0.0;   ///< raw quadrature monitor [V]
  double temp_c = 25.0;  ///< measured (sensor) die temperature
};

/// What the chain must do with the current output sample.
struct SlowDecision {
  double output_v = 0.0;    ///< value to drive onto the output
  bool output_forced = false;  ///< true in SAFE_STATE (output_v == null)
  SafetyState state = SafetyState::Nominal;
};

class SafetySupervisor {
 public:
  explicit SafetySupervisor(const SupervisorConfig& cfg) : cfg_(cfg) { reset(); }

  /// Define the DIAG register block at `base` inside `regs` and keep the
  /// handle for status posting and config scrubbing.
  void attach(platform::RegisterFile* regs, std::uint16_t base);

  /// Optional calibration audit: called every audit_interval_slow output
  /// samples; returning false latches CAL_CRC.
  void set_calibration_audit(std::function<bool()> audit) { audit_ = std::move(audit); }

  /// Attach an observability sink (null members disable channels). The
  /// supervisor emits exactly one Supervisor event per state transition, one
  /// Dtc event per latch/clear, and one Watchdog event per bite.
  void set_obs(const obs::ObsSink& sink);

  // ---- chain hooks ---------------------------------------------------------
  void on_fast(const FastSample& s);
  SlowDecision on_slow(const SlowSample& s);

  /// Vet the temperature feeding the compensation block: returns the frozen
  /// last-plausible value while TEMP_RANGE or GAIN_ANOMALY is active.
  double comp_temp(double measured_c);

  // ---- platform event inputs ----------------------------------------------
  void notify_watchdog_bite();
  void notify_selftest(bool passed);
  void notify_cal_replay(bool ok);  ///< post-reset EEPROM replay verdict

  /// Re-capture the config-register shadows (call after intentional
  /// reconfiguration, otherwise the scrubber treats the change as an SEU).
  void rescan_config_shadows();

  // ---- observability -------------------------------------------------------
  SafetyState state() const { return state_; }
  std::uint16_t dtcs() const { return dtcs_; }
  bool armed() const { return armed_; }
  long fast_index() const { return fast_index_; }
  long slow_index() const { return slow_index_; }
  /// Fast-sample index at which `dtc_bit` first latched (−1 = never).
  long first_latch_fast(std::uint16_t dtc_bit) const;
  /// Fast-sample index of the most recent return to NOMINAL (−1 = never left
  /// or never returned).
  long nominal_return_fast() const { return nominal_return_fast_; }

  /// Service-tool clear: drops latched DTCs (state machine is governed by
  /// live conditions, not by this).
  void clear_dtcs();

  /// Full re-initialization (power-on): clears DTCs, disarms, forgets
  /// baselines and shadows.
  void reset();

  /// Checkpoint path: monitor state, latches and shadows. Attachments
  /// (registers, obs, audit callback) are wiring and stay as constructed.
  /// After a load the DIAG registers are re-posted from the restored state.
  void serialize_state(StateArchive& ar);

 private:
  void latch(std::uint16_t dtc_bit);
  void capture_baselines(const FastSample& s);
  void scrub_config();
  void post_diag();
  bool any_condition_active() const;
  /// Every state_ change goes through here — the single place that emits the
  /// Supervisor transition event (so there is exactly one event per change).
  void set_state(SafetyState next);
  double sim_time() const { return static_cast<double>(fast_index_) / cfg_.fs; }

  SupervisorConfig cfg_;
  obs::ObsSink obs_{};
  platform::RegisterFile* regs_ = nullptr;
  std::uint16_t diag_base_ = 0;
  bool diag_defined_ = false;
  std::function<bool()> audit_;

  SafetyState state_ = SafetyState::Nominal;
  std::uint16_t dtcs_ = 0;
  std::uint16_t events_ = 0;
  bool armed_ = false;
  long settle_run_ = 0;  ///< consecutive loop_settled fast samples

  long fast_index_ = 0;
  long slow_index_ = 0;
  std::array<long, 16> first_latch_{};
  long nominal_return_fast_ = -1;

  // Monitor state.
  double agc_baseline_ = 0.0;
  double last_primary_ = 0.0, last_sense_ = 0.0;
  int stuck_primary_ = 0, stuck_sense_ = 0;
  int unlock_run_ = 0, agc_rail_run_ = 0, ctrl_rail_run_ = 0;
  int collapse_run_ = 0, gain_run_ = 0;
  bool rate_active_ = false, quad_active_ = false, temp_active_ = false;
  bool temp_frozen_ = false;
  double last_good_temp_ = 25.0;
  int critical_slow_ = 0, quiet_slow_ = 0;

  struct Shadow {
    std::uint16_t addr;
    std::uint16_t value;
  };
  std::vector<Shadow> shadows_;
};

}  // namespace ascp::safety
