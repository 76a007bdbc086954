// gyro_system.hpp — the complete conditioned gyro (paper §4).
//
// Assembles the platform customization end to end:
//
//   GyroMems ──ΔC──► charge amps ──► PGA+AA+SAR ADC ──► DriveLoop / SenseChain
//      ▲                                                    │
//      └──────────── drive & control DACs ◄─────────────────┘
//
// Two fidelity levels reproduce the paper's two validation stages:
//   * Ideal — the MATLAB system model: float DSP, ideal transduction, no
//     electronics noise/quantization (Fig. 5).
//   * Full  — the emulation/measured configuration: charge amps, PGAs,
//     anti-aliasing, SAR ADCs, DACs with settling and glitch, reference and
//     temperature-sensor errors (Fig. 6, Table 1).
//
// The platform fabric is attached: status registers updated every decimated
// sample (readable over JTAG and by the 8051 through the bridge), and an
// optional MCU monitor slice runs the paper's control/monitoring firmware.
//
// The chain runs at fixed ratios, so a run is one static frame loop: adc_div
// analog ticks (1.92 MHz), then one DSP frame (240 kHz) on the SAR
// conversion's last clock, which carries the 1.875 kHz output and the 8051
// slice. Every firing decision reads the global tick, so a restored or split
// run keeps its cadence.
//
// Ideal-fidelity systems that share base rate, adc_div and tick phase can run
// as one lockstep group (run_group): one frame loop, one GyroMems::step_lanes
// call per tick for all their rings, and every member's output bit for bit
// what its own run() gives. run() is the group of one. Observed systems
// group too: each member keeps a solo run's bookkeeping in its own obs
// bundle (events, gyro.run span, counters, task profiler).
//
// A run draws its MEMS Brownian force and charge-amp noise ahead on the
// calling thread's NoiseCrew where it can (core/noise_crew.hpp), bit for bit
// what drawing inline gives; the PGA noise and the SAR and temperature-sensor
// draws (one per conversion) stay inline.
#pragma once

#include <array>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "afe/charge_amp.hpp"
#include "afe/dac.hpp"
#include "afe/frontend.hpp"
#include "afe/reference.hpp"
#include "common/state_archive.hpp"
#include "common/trace.hpp"
#include "core/drive_loop.hpp"
#include "obs/observability.hpp"
#include "core/rate_sensor.hpp"
#include "core/sense_chain.hpp"
#include "platform/platform.hpp"
#include "safety/fault_injection.hpp"
#include "safety/supervisor.hpp"
#include "sensor/gyro_mems.hpp"

namespace ascp::core {

class NoiseCrew;
struct NoiseMember;

enum class Fidelity { Ideal, Full };

/// Status-register addresses in the platform register file.
namespace reg {
constexpr std::uint16_t kLock = 0;      ///< bit0 PLL locked, bit1 AGC settled
// Analog-die register file (second TAP in the chain):
constexpr std::uint16_t kAfePgaPrimary = 0;  ///< config: primary PGA gain ×16
constexpr std::uint16_t kAfePgaSense = 1;    ///< config: sense PGA gain ×16
constexpr std::uint16_t kAfeAdcBits = 2;     ///< config: SAR resolution
constexpr std::uint16_t kFreq = 1;      ///< drive frequency [Hz/4]
constexpr std::uint16_t kAgcGain = 2;   ///< AGC gain [mV/V × 1000]
constexpr std::uint16_t kRateOut = 3;   ///< rate output [mV]
constexpr std::uint16_t kQuad = 4;      ///< quadrature monitor [mV, signed]
constexpr std::uint16_t kTemp = 5;      ///< measured temperature [°C × 8, signed]
constexpr std::uint16_t kMode = 16;     ///< config: 0 open loop, 1 closed loop
constexpr std::uint16_t kSenseGain = 17;///< config: sense PGA gain [×16]
constexpr std::uint16_t kDiag = 24;     ///< base of the safety DIAG block
}  // namespace reg

struct GyroSystemConfig {
  Fidelity fidelity = Fidelity::Full;
  sensor::GyroMemsConfig mems{};
  DriveLoopConfig drive = default_drive_loop();
  SenseChainConfig sense{};
  double analog_fs = 1.92e6;
  int adc_div = 8;  ///< ADC/DSP rate = analog_fs / adc_div (240 kHz)

  double primary_pga_gain = 2.0;
  double sense_pga_gain = 8.0;
  afe::ChargeAmpConfig charge_amp{};  ///< shared template for both channels
  afe::AdcConfig adc{};
  afe::DacConfig dac{};

  bool with_mcu = false;  ///< instantiate the 8051 monitor subsystem
  /// Evaluate the rate/temperature profiles on the channel's global tick
  /// axis instead of restarting t at 0 each run() call. Set by owners (the
  /// fleet engine) that advance one continuous timeline through many run()
  /// calls — required for checkpoint resume to be bit-exact, because a
  /// resumed run must see the stimulus continue, not restart.
  bool stimulus_global_time = false;
  /// Instantiate the safety supervisor + DIAG register block. The nominal
  /// numeric path is bit-identical with or without it (pass-through until a
  /// monitor trips).
  bool with_safety = false;
  dsp::CompensationCoeffs comp{};
  std::uint64_t seed = 1;
};

/// Factory defaults tuned to the paper's operating point (see DESIGN.md).
GyroSystemConfig default_gyro_system(Fidelity fidelity = Fidelity::Full);

/// One task of a pipeline's static schedule: it fires on the global ticks
/// where tick % divider == phase.
struct TaskInfo {
  std::string name;
  long divider = 1;
  long phase = 0;
};

class GyroSystem : public RateSensor {
 public:
  explicit GyroSystem(const GyroSystemConfig& cfg = default_gyro_system());

  // ---- RateSensor ---------------------------------------------------------
  void power_on(std::uint64_t seed) override;
  /// Runs the temperature-calibration flow and stores the coefficients.
  void factory_calibrate() override;
  double output_rate_hz() const override;
  void run(const sensor::Profile& rate, const sensor::Profile& temp, double seconds,
           std::vector<double>* out) override;
  void run(sensor::StimulusSource& src, double seconds, std::vector<double>* out) override;

  // ---- lockstep groups ------------------------------------------------------
  /// What the systems of one run_group must share: base rate, adc_div and
  /// the phase of the next tick within a conversion, so one dsp_frame task
  /// fires on every member's conversion ticks.
  struct LaneKey {
    double analog_fs;
    int adc_div;
    long phase;
    bool operator==(const LaneKey&) const = default;
  };
  /// This system's key, or none when it must run alone: at Full fidelity,
  /// whose charge amps, SAR converters and DSP outweigh the MEMS step, so a
  /// group measured no faster than its members run one by one.
  std::optional<LaneKey> lane_key() const;

  /// One system of a run_group: its stimulus and output sink, and the
  /// exception it threw, if it threw.
  struct GroupMember {
    GyroSystem* sys = nullptr;
    sensor::StimulusSource* src = nullptr;
    std::vector<double>* out = nullptr;
    std::exception_ptr error;
  };

  /// Run 1 to GyroMems::kLanes distinct systems for `seconds` in lockstep,
  /// in run()'s frame loop: each analog tick stages every member's inputs,
  /// makes one step_lanes call and ends with the members' per-tick probe
  /// taps; each DSP frame loops over the members. Each member ends bit for
  /// bit where its own run() would, with its own run bookkeeping: the
  /// trace_begin event, gyro.run span, gyro.runs, gyro.dsp_samples and
  /// afe.nonfinite_inputs counts, exact task counts, and an equal share of
  /// the group's timed frames and run wall. A member that throws keeps the
  /// exception in `error`, is left as a throwing run() leaves it (its DSP
  /// samples so far counted), and drops out while the others finish. The
  /// members of a group of more than one must have equal lane_key()s, none
  /// of them empty. Throws std::invalid_argument when these preconditions
  /// fail.
  static void run_group(std::span<GroupMember> members, double seconds);

  double nominal_sensitivity() const override { return 5e-3; }  // 5 mV/°/s, Table 1
  double nominal_null() const override { return cfg_.sense.output_offset; }
  double full_scale_dps() const override { return 300.0; }

  // ---- observability ------------------------------------------------------
  DriveLoop& drive() { return *drive_; }
  SenseChain& sense() { return *sense_; }
  sensor::GyroMems& mems() { return *mems_; }
  platform::RegisterFile& regs() { return platform_.regs(); }
  /// Analog-die configuration registers (paper Fig. 2 shows a TAP on each
  /// die): PGA gains and ADC resolution, applied at the next power_on.
  platform::RegisterFile& afe_regs() { return afe_regs_; }
  platform::McuSubsystem& platform() { return platform_; }
  bool locked() const { return drive_->locked(); }
  double last_output() const { return last_output_; }

  // ---- safety / fault injection -------------------------------------------
  /// Present only when cfg.with_safety (nullptr otherwise).
  safety::SafetySupervisor* supervisor() { return supervisor_.get(); }
  /// Campaign stepped once per DSP sample inside run() (nullptr = none).
  void set_fault_campaign(safety::FaultCampaign* campaign) {
    campaign_ = campaign;
    if (campaign_ && obs_.enabled())
      campaign_->set_obs(obs_, cfg_.analog_fs / cfg_.adc_div);
  }

  /// Attach an observability sink and propagate it to the supervisor, the
  /// fault campaign and the MCU core. Read-only observers: the numeric
  /// output is bit-identical with the sink attached or not.
  void set_observability(const obs::ObsSink& sink);
  const obs::ObsSink& observability() const { return obs_; }
  /// DSP samples elapsed since power-on — the fault-injection time base.
  long dsp_samples() const { return dsp_samples_; }
  afe::AcquisitionChannel* acq_primary() { return acq_primary_.get(); }
  afe::AcquisitionChannel* acq_sense() { return acq_sense_.get(); }
  afe::ChargeAmp* champ_primary() { return champ_primary_.get(); }
  afe::ChargeAmp* champ_sense() { return champ_sense_.get(); }

  /// Attach a read-only probe on the chain taps (stimulus, post-MEMS,
  /// post-AFE, post-ADC, decimated output — see sensor::ProbePoint). Probes
  /// follow the obs discipline: the numeric output is bit-identical with a
  /// probe attached or not, and when detached (or for rejected points) no
  /// tap code runs. nullptr detaches.
  void set_probe(sensor::Probe* probe);
  sensor::Probe* probe() const { return probe_; }

  /// Attach a trace recorder: Fig. 5/6 channels (amplitude_control,
  /// phase_error, amplitude_error, vco_control, pickoff) at fs/`decimate`
  /// plus rate_out at the decimated rate.
  void set_trace(TraceRecorder* trace, std::size_t decimate = 16);

  void set_compensation(const dsp::CompensationCoeffs& c);
  const GyroSystemConfig& config() const { return cfg_; }

  /// The static schedule run()'s frame loop fires: `analog` every tick and
  /// `dsp_frame` on each conversion's last clock — the input the static
  /// schedulability analysis (analysis/timing_lint) checks against the
  /// per-sample CPU budget, and the task list of the profiler.
  std::vector<TaskInfo> schedule_tasks() const;

  /// Checkpoint path: runtime-mutable config knobs, both register files and
  /// every stateful component. Wiring (obs sink, trace, campaign pointer,
  /// register hook closures) stays as constructed — restore into a system
  /// built from the same config. Call it between runs: inside a run's own
  /// callbacks the noise streams a crew draws ahead still hold the state
  /// the run began with.
  void serialize_state(StateArchive& ar);

 private:
  /// One member's state between the stages of a run besides its lane-call
  /// arrays: the current tick, what the Full AFE hands the DSP frame, and
  /// the member's task flags.
  struct Lane {
    GroupMember* member = nullptr;
    std::size_t index = 0; ///< position in the group's member list
    long tick0 = 0;        ///< global index of the run's first analog tick
    long tick = 0;         ///< global index of the current analog tick
    double dt = 0.0;       ///< analog tick period [s]
    double vp = 0.0, vs = 0.0;  ///< charge-amp outputs (Full fidelity)
    std::optional<double> sp, ss;  ///< this tick's SAR conversions (Full fidelity)
    long cpu_cycles_per_slow = 0;
    bool w_stim = false, w_mems = false, w_afe = false;  ///< per-tick probe taps
    bool w_adc = false, w_out = false;                   ///< DSP-frame probe taps
  };
  /// The members still running, in member order, with their rings and the
  /// arrays of the one step_lanes call per tick: every member's inputs (this
  /// tick's stimulus included) and the pickoffs its DSP frame samples.
  struct Group {
    static constexpr std::size_t kMax = sensor::GyroMems::kLanes;
    std::array<Lane, kMax> lanes;
    std::array<sensor::GyroMems*, kMax> rings{};
    std::array<sensor::GyroInputs, kMax> in;
    std::array<sensor::GyroOutputs, kMax> pick;
    std::size_t size = 0;
    bool tick_taps = false;  ///< a member's probe wants a per-tick tap
    bool profiled = false;   ///< a member has a task profiler
    bool in_frame = false;   ///< the DSP frame is running
    /// The crew drawing this run's noise ahead (null: drawn inline), and the
    /// ticks left in its attached block.
    NoiseCrew* crew = nullptr;
    long ahead_left = 0;

    /// Every member running, its error cleared and its lane set up for a
    /// run (begin_lane). At most kMax members.
    explicit Group(std::span<GroupMember> members);

    /// fn(system, k) for every running member k. A member whose fn throws
    /// keeps the exception and leaves the group once the loop is done; a
    /// lone member's exception propagates, for run_group to catch.
    template <typename Fn>
    void each(Fn&& fn);
    /// Books the task counts of the members that threw, rewinds their
    /// noise streams and removes them; out of line, so the stages that call
    /// each() stay small.
    void drop_failed();
    /// Moves the crew's cursors to its next block; out of line.
    void next_block();
  };
  /// One member's run bookkeeping between begin_run and end_run.
  struct RunBooks {
    double t_sim0 = 0.0;  ///< the run's first tick [s]
    long dsp_samples = 0;
    std::uint64_t nonfinite = 0;  ///< nonfinite_conversions() at the start
    std::optional<obs::SpanScope> span;
  };

  void build(std::uint64_t seed);
  void define_registers();
  void post_status(double measured_temp);
  /// `n` analog ticks of every member of `g`, each ending with the per-tick
  /// probe taps when a member's probe wants them.
  static void run_analog(Group& g, long n);
  /// One DSP frame of every member of `g`.
  static void run_dsp(Group& g);
  /// run_analog, then run_dsp when `dsp`, reading the clock at each task
  /// boundary and recording both tasks' shares in each member's profiler.
  static void run_timed(Group& g, long n, bool dsp);
  /// The Stimulus, PostMems and PostAfe probe frames of this tick for every
  /// member that wants them; out of line, so the analog stage stays small.
  static void tap_tick(Group& g);
  /// Books the task firings lane `m` completed this run into the profiler:
  /// the analog ticks since m.tick0 and the DSP frames among them. A member
  /// that threw stopped in tick m.tick, whose analog step completed only if
  /// the DSP frame threw (`in_frame`); that frame did not.
  void count_tasks(const Lane& m, bool in_frame);
  /// A run's obs bookkeeping before its first tick: the trace_begin event
  /// (once), the gyro.run span.
  void begin_run(RunBooks& b);
  /// ... and after its last: the DSP samples and NaN conversions it ran, and
  /// unless it threw, the span, run wall (`wall`, this system's share) and
  /// gyro.runs. The span is the run's one record: no event repeats it.
  void end_run(RunBooks& b, double seconds, double wall, bool threw);
  /// Conversions of NaN by the two SAR converters since power-on.
  std::uint64_t nonfinite_conversions() const;
  /// Sets up lane `m` for a run: flags and the MCU slice.
  void begin_lane(Lane& m);
  /// The noise streams a crew can draw ahead for this system's run.
  NoiseMember noise_member();
  // The member stages of this system, member k of `g`:
  /// the analog tick up to the MEMS: stimulus and electrode voltages;
  void analog_inputs(Group& g, std::size_t k);
  /// the analog tick after the MEMS: charge amps and SAR converters;
  void analog_afe(Group& g, std::size_t k);
  /// every DSP-rate stage in order, once per SAR conversion: sampling,
  /// fault campaign, DSP, supervisor, obs events, trace, decimated output +
  /// MCU slice.
  void dsp_frame(Group& g, std::size_t k);
  /// Watchdog-bite recovery: self-test, calibration replay from EEPROM,
  /// drive re-acquisition, watchdog re-arm. Chained off the platform reset
  /// hook — fires right after the watchdog has reset the CPU.
  void recover_from_watchdog();

  GyroSystemConfig cfg_;
  platform::McuSubsystem platform_;
  platform::RegisterFile afe_regs_;
  platform::JtagDevice afe_tap_{0x1A5CA002, &afe_regs_};  // analog die

  // Rebuilt on every power_on (a fresh die + cold electronics).
  std::unique_ptr<sensor::GyroMems> mems_;
  std::unique_ptr<afe::ChargeAmp> champ_primary_, champ_sense_;
  std::unique_ptr<afe::AcquisitionChannel> acq_primary_, acq_sense_;
  std::unique_ptr<afe::Dac> dac_drive_, dac_ctrl_;
  std::unique_ptr<afe::TempSensor> temp_sensor_;
  std::unique_ptr<DriveLoop> drive_;
  std::unique_ptr<SenseChain> sense_;

  double ideal_gain_primary_ = 0.0;  ///< V per farad, Ideal fidelity
  double ideal_gain_sense_ = 0.0;
  double drive_v_ = 0.0;  ///< latched DSP outputs (Ideal path / DAC targets)
  double ctrl_v_ = 0.0;
  double last_output_ = 2.5;
  long base_ticks_ = 0;
  long dsp_samples_ = 0;

  std::unique_ptr<safety::SafetySupervisor> supervisor_;
  safety::FaultCampaign* campaign_ = nullptr;

  obs::ObsSink obs_{};
  // Edge detectors for the PLL/AGC event emitters (per power-on).
  bool obs_pll_prev_ = false, obs_agc_prev_ = false, obs_pll_ever_ = false;
  // One-shot trace_begin announcement when spans are attached.
  bool obs_trace_announced_ = false;
  // Metric ids interned once at attach time (recording must not hit the
  // registry's name table).
  obs::MetricRegistry::Id obs_m_outputs_ = 0, obs_m_dsp_ = 0, obs_m_runs_ = 0;
  obs::MetricRegistry::Id obs_m_nonfinite_ = 0;
  obs::MetricRegistry::Id obs_h_output_v_ = 0;
  int obs_t_analog_ = 0, obs_t_frame_ = 0;  ///< task ids in obs_.tasks

  TraceRecorder* trace_ = nullptr;
  std::size_t trace_decimate_ = 16;
  sensor::Probe* probe_ = nullptr;
};

}  // namespace ascp::core
