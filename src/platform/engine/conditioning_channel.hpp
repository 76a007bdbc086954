// conditioning_channel.hpp — one sensor conditioning instance as a farmable
// unit of simulation.
//
// The paper validates the platform one device at a time; production use is
// the opposite — thousands of seed/stimulus/fault variations of the same
// conditioning pipeline (characterization sweeps, fault campaigns, Monte
// Carlo tolerance runs). ConditioningChannel packages everything one such
// variation owns — the sensor under test (platform GyroSystem at either
// fidelity, or an analog baseline from Tables 2/3), its seed, its stimulus
// profiles, an optional fault campaign and trace — behind a single
// advance(n_base_ticks) so a farm can drive heterogeneous channels through
// identical simulated time.
//
// Determinism contract: a channel's output stream is a pure function of its
// ChannelConfig. Nothing in here reads shared mutable state, so channels may
// advance on different threads with no synchronization, and the farm's
// results are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/frame.hpp"
#include "common/state_archive.hpp"
#include "common/trace.hpp"
#include "core/rate_sensor.hpp"
#include "obs/observability.hpp"
#include "safety/fault_injection.hpp"
#include "sensor/environment.hpp"

namespace ascp::core {
class GyroSystem;
struct GyroSystemConfig;
}

namespace ascp::engine {

class ChannelRecorderProbe;

/// Which conditioning architecture the channel instantiates.
enum class ChannelKind {
  GyroFull,   ///< platform customization, Full fidelity (AFE + quantization)
  GyroIdeal,  ///< platform customization, Ideal fidelity (MATLAB-level model)
  Adxrs300,   ///< analog baseline, Table 2 configuration
  Gyrostar,   ///< analog baseline, Table 3 configuration
};

/// The `.ckpt` container (common/frame.hpp): meta = channel kind (u32),
/// payload = the channel's StateArchive stream. Versions:
///   v1  original layout
///   v2  CHAN section gains the stimulus-source summary (kind u32 + cursor
///       i64 at payload offsets 20/24) and the embedded source state
///   v3  each 8051 memory saves a u64 saved length (one past its last
///       non-fill value) and only that many values, not its whole size
inline constexpr frame::Format kCheckpointFrame{"ASCPCKPT", 3, "checkpoint", 4, 1};

/// What advance() does with freshly produced output samples once the
/// channel's result queue holds `queue_capacity` entries the consumer has
/// not yet drained with take_outputs(). Only applies when queue_capacity > 0.
enum class QueuePolicy {
  DropOldest,  ///< evict the oldest queued samples to make room (ring-buffer)
  Shed,        ///< discard the newest samples beyond capacity (tail-drop)
  Block,       ///< never discard: queue_full() goes true and the fleet stops
               ///< advancing the channel until the consumer drains it
};

struct ChannelConfig {
  ChannelKind kind = ChannelKind::GyroFull;
  /// Per-channel master seed. When the channel is built by a ChannelFarm the
  /// farm overwrites this with a stream forked from its root seed.
  std::uint64_t seed = 1;
  double rate_dps = 30.0;  ///< constant angular-rate stimulus
  double temp_c = 25.0;    ///< constant ambient temperature
  bool with_safety = false;  ///< supervisor + DIAG block (GyroFull/GyroIdeal)
  bool with_faults = false;  ///< canonical fault campaign (implies with_safety)
  bool with_trace = false;   ///< attach a TraceRecorder (gyro kinds only)
  /// Own a per-channel Observability bundle (metrics + event log + task
  /// profiler + MCU profiler) and attach it to the sensor. Observers are
  /// read-only: the output stream is bit-identical with or without it.
  bool with_obs = false;
  /// Arm the channel's black-box flight recorder (implies with_obs): the
  /// event log tees into the recorder ring, probe taps on the stimulus and
  /// decimated-output points are sampled into it, and advance() records
  /// per-call metric deltas — the structured tail a `.blackbox` crash image
  /// retains. Same obs discipline: the output stream is bit-identical with
  /// the recorder armed or not.
  bool with_flight_recorder = false;

  // ---- result-queue bounds (graceful degradation) -------------------------
  /// Maximum outputs() entries held between take_outputs() drains; 0 keeps
  /// the historical unbounded queue. Every sample is hashed into
  /// output_hash() *before* the bound applies, so determinism fingerprints
  /// are unaffected by the overflow policy.
  std::size_t queue_capacity = 0;
  QueuePolicy queue_policy = QueuePolicy::DropOldest;

  // ---- scenario hooks (conformance fuzzing) -------------------------------
  // Every hook must be a pure/deterministic function of the channel's own
  // configuration — the determinism contract above extends to them. All are
  // gyro-kind only; baselines ignore them.
  /// Mutates the GyroSystemConfig before construction (MEMS quadrature/drift
  /// scaling, sense-chain dimensioning, with_mcu, supervisor overrides).
  std::function<void(core::GyroSystemConfig&)> configure;
  /// Runs on the constructed system before power_on — the place for register
  /// writes (DSP + AFE files) and firmware loading.
  std::function<void(core::GyroSystem&)> customize;
  /// Builds the channel's fault campaign (overrides the canned with_faults
  /// demo campaign). The channel owns the returned campaign.
  std::function<std::unique_ptr<safety::FaultCampaign>(core::GyroSystem&)> campaign_factory;
  /// Time-varying stimulus; when unset the constant rate_dps/temp_c apply.
  std::optional<sensor::Profile> rate_profile;
  std::optional<sensor::Profile> temp_profile;

  // ---- stimulus/probe seam ------------------------------------------------
  /// Builds the channel's stimulus source (overrides the profile fields
  /// above). Receives the channel's base (analog) tick rate. Must be a
  /// pure/deterministic function of the channel's own configuration, like
  /// every other hook; the channel owns the returned source and checkpoints
  /// its state. When unset, a SyntheticSource wraps the profiles —
  /// bit-identical to the pre-seam behavior.
  std::function<std::unique_ptr<sensor::StimulusSource>(double /*base_rate_hz*/)>
      stimulus_factory;
  /// Read-only probe attached to the sensor's chain taps (non-owning; must
  /// outlive the channel). Bit-identity contract: the output stream is the
  /// same with the probe attached or not.
  sensor::Probe* probe = nullptr;
};

class ConditioningChannel {
 public:
  explicit ConditioningChannel(const ChannelConfig& cfg);
  ~ConditioningChannel();

  ConditioningChannel(const ConditioningChannel&) = delete;
  ConditioningChannel& operator=(const ConditioningChannel&) = delete;

  /// Advance simulated time by `n_base_ticks` analog clock ticks, appending
  /// decimated rate samples to outputs(). Callable repeatedly; decimation
  /// phase carries across calls exactly as in a single longer run.
  void advance(long n_base_ticks);

  /// advance() for a lockstep group: 1 to GyroMems::kLanes distinct gyro
  /// channels whose systems have one GyroSystem::lane_key(), run as one
  /// GyroSystem::run_group. Each member keeps advance()'s bookkeeping. A
  /// member that throws gets its exception in errors[k] instead of a throw,
  /// is left as a throwing advance() leaves it, and its group-mates finish.
  /// advance() is the group of one, of any kind.
  /// Throws std::invalid_argument when the group breaks these rules.
  static void advance_group(std::span<ConditioningChannel* const> group, long n_base_ticks,
                            std::span<std::exception_ptr> errors);

  /// Base (analog) tick rate — the farm's common time base [Hz].
  double base_rate_hz() const { return base_rate_hz_; }
  long ticks_advanced() const { return ticks_; }

  const ChannelConfig& config() const { return cfg_; }
  const std::vector<double>& outputs() const { return out_; }
  /// The conditioned gyro under test (null for analog-baseline kinds) — the
  /// conformance oracle reads supervisor/register state through this.
  core::GyroSystem* gyro() { return gyro_; }
  const core::GyroSystem* gyro() const { return gyro_; }
  const TraceRecorder* trace() const { return trace_.get(); }
  /// The channel's stimulus source (never null). The QueueSource ingestion
  /// path pushes through this accessor between advance() calls.
  sensor::StimulusSource* stimulus() { return stimulus_.get(); }
  const sensor::StimulusSource* stimulus() const { return stimulus_.get(); }
  /// Per-channel telemetry (null unless cfg.with_obs).
  obs::Observability* observability() { return obs_.get(); }
  const obs::Observability* observability() const { return obs_.get(); }
  /// The armed flight-recorder ring (null unless cfg.with_flight_recorder).
  obs::FlightRecorder* flight_recorder() {
    return cfg_.with_flight_recorder && obs_ ? &obs_->recorder : nullptr;
  }

  /// FNV-1a over every output sample's bit pattern, folded as samples are
  /// produced — the byte-identity fingerprint the determinism tests, the
  /// farm bench and the checkpoint replay proofs compare. Streams, so it
  /// covers samples already drained or shed from the bounded queue.
  std::uint64_t output_hash() const { return hash_; }
  /// Lifetime output-sample count (unaffected by draining/shedding).
  std::uint64_t total_outputs() const { return total_outputs_; }
  /// Samples discarded by the DropOldest/Shed overflow policies.
  std::uint64_t dropped_outputs() const { return dropped_outputs_; }
  /// True when queue_policy is Block and the queue is at capacity — the
  /// owner must drain with take_outputs() before advancing further.
  bool queue_full() const {
    return cfg_.queue_capacity > 0 && cfg_.queue_policy == QueuePolicy::Block &&
           out_.size() >= cfg_.queue_capacity;
  }
  /// Drain the result queue (moves the pending samples out).
  std::vector<double> take_outputs() {
    std::vector<double> drained = std::move(out_);
    out_.clear();
    return drained;
  }

  // ---- checkpoint / restore ----------------------------------------------
  /// Serialize the full platform state (sense chain, fixed-point DSP, MCU,
  /// supervisor latches, campaign firing position, RNG streams, pending
  /// queue) into a versioned, CRC-framed checkpoint image. A channel freshly
  /// constructed from the *same* ChannelConfig and restore()d from the image
  /// continues bit-exactly: outputs and output_hash() match a channel that
  /// ran straight through. Closures (hooks, campaign actions) do not travel —
  /// they are re-established by constructing from the config.
  std::vector<std::uint8_t> snapshot();
  /// Load a snapshot() image. Throws StateError on truncation, CRC mismatch,
  /// version/kind/seed disagreement or any structural mismatch; the channel
  /// must then be considered unusable (rebuild from config).
  void restore(const std::vector<std::uint8_t>& image);

 private:
  /// advance()'s bookkeeping around one sensor run.
  struct Pending {
    std::size_t outputs_before = 0;
    std::uint64_t dropped_before = 0;
    std::optional<obs::SpanScope> span;
  };
  void begin_advance(Pending& p);
  void end_advance(Pending& p, long n_base_ticks);
  void serialize_state(StateArchive& ar);
  void apply_queue_bound();

  ChannelConfig cfg_;
  std::unique_ptr<core::RateSensor> sensor_;
  core::GyroSystem* gyro_ = nullptr;  ///< non-owning; set for gyro kinds
  std::unique_ptr<safety::FaultCampaign> campaign_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<ChannelRecorderProbe> recorder_probe_;  ///< probe tee, recorder armed
  std::unique_ptr<sensor::StimulusSource> stimulus_;
  std::uint64_t last_underruns_ = 0;  ///< edge detector for underrun events
  std::vector<double> out_;
  double base_rate_hz_ = 0.0;
  long ticks_ = 0;
  std::uint64_t hash_ = kFnv1aOutputBasis;
  std::uint64_t total_outputs_ = 0;
  std::uint64_t dropped_outputs_ = 0;
};

}  // namespace ascp::engine
