// fleet.hpp — crash-resilient supervised runtime over a channel fleet.
//
// ChannelFarm answers "how do N channels advance in parallel"; the
// FleetSupervisor answers "what happens when one of them goes wrong while
// the rest must keep streaming". It runs on a ChannelFarm (channels, seeds,
// pool, containment) and keeps only supervision state. It advances the
// fleet in fixed *fleet ticks* of simulated time and wraps every channel in
// the full resilience loop:
//
//   * checkpointing    — every `checkpoint_interval` ticks each channel's
//                        bit-exact state image (ConditioningChannel::
//                        snapshot) is retained as the last-good point;
//   * watchdog         — a scan thread reads the farm's per-channel busy
//                        stamps and flags any step that has exceeded the
//                        tick deadline (detection is asynchronous: the
//                        stalled advance itself cannot be interrupted);
//   * containment      — a channel that throws mid-step never unwinds a
//                        worker thread or touches its siblings; the wrecked
//                        instance is discarded;
//   * restart          — the channel is rebuilt from its config and restored
//                        from the last-good checkpoint, then deterministically
//                        catches up the missed simulated time. A corrupt or
//                        truncated image is detected by the CRC frame and
//                        falls back to a cold rebuild + full replay. Restarts
//                        back off exponentially (capped) and after
//                        `max_restarts` the channel is permanently
//                        quarantined with an ENGINE_FAULT trouble code;
//   * degradation      — when a tick's wall time exceeds the real-time
//                        budget, low-priority channels are shed (skipped)
//                        until the fleet is back under budget; shed channels
//                        catch up later, so no simulated time is ever lost.
//
// Live ticks and run_ticks()' final catch-up share one step, one watchdog
// and one failure path. A step runs the chaos hooks channel by channel, then
// advances every channel to its base-tick target through the farm's one
// grouping path (ChannelFarm::advance(which, ticks)): GyroIdeal channels with
// equal lane keys and equal tick counts advance in lockstep lane groups, so
// a restored channel catches up alone and then rejoins a group.
//
// Determinism: chaos (stalls, exceptions, checkpoint corruption) is injected
// from *outside* the channel's simulation state, and catch-up replays the
// exact missed ticks — so a recovered channel's output_hash() equals a
// clean twin that never crashed. The chaos bench proves this invariant.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/observability.hpp"
#include "platform/engine/channel_farm.hpp"

namespace ascp::engine {

/// Lifecycle of one supervised channel.
enum class ChannelHealth {
  Running,      ///< advancing (possibly catching up after a restart/shed)
  BackingOff,   ///< restarted, waiting out the backoff window
  Quarantined,  ///< permanently parked after max_restarts failures
};

const char* channel_kind_name(ChannelKind k);
const char* channel_health_name(ChannelHealth h);

struct FleetChannelSpec {
  ChannelConfig config;
  /// Shedding order under overload: lower priority is shed first.
  int priority = 0;
  /// Chaos/test hook invoked on a farm worker, under the channel's busy
  /// stamp, before the channel advances one *live* fleet tick (never during
  /// catch-up replay). Throwing simulates a channel crash (the channel then
  /// does not advance); sleeping simulates a stall. Must not touch the
  /// channel's simulation state.
  std::function<void(long fleet_tick)> before_advance;
};

struct FleetConfig {
  /// Root of the per-channel seed tree (FarmConfig::root_seed): a fleet
  /// channel reproduces the stream of a solo channel with the same derived
  /// seed.
  std::uint64_t root_seed = 1;
  /// Worker threads of the fleet's farm (1 = step on the calling thread, no
  /// pool; 0 = std::thread::hardware_concurrency()).
  unsigned threads = 1;
  /// Simulated seconds per fleet tick.
  double tick_seconds = 0.005;
  /// Wall-clock deadline for one channel step (a lane group's step gets it
  /// once per member); 0 disables the watchdog.
  double tick_deadline_ms = 0.0;
  /// Fleet ticks between checkpoints; 0 disables checkpointing (restarts
  /// then always cold-rebuild and replay from tick zero).
  long checkpoint_interval = 4;
  /// Failed restarts before permanent quarantine.
  int max_restarts = 3;
  /// Restart backoff: min(base << (restarts-1), cap) fleet ticks.
  long backoff_base_ticks = 1;
  long backoff_cap_ticks = 8;
  /// Per-tick wall budget driving priority shedding; 0 disables shedding.
  double realtime_budget_ms = 0.0;
  /// Optional telemetry (non-owning). Events are emitted from the
  /// supervising thread only (EventLog is single-writer).
  obs::MetricRegistry* metrics = nullptr;
  obs::EventLog* events = nullptr;
  /// Optional causal-span log (non-owning, supervising thread only): every
  /// fleet tick and every lifecycle edge of an incident — stall detect →
  /// exception → restart → restore/cold-rebuild → catch-up → quarantine —
  /// is recorded with ancestry, trace id = root_seed.
  obs::SpanLog* spans = nullptr;
  /// Arm every channel's flight recorder (forces with_flight_recorder on the
  /// per-channel configs before construction), so a crash dump always has a
  /// ring tail to retain.
  bool flight_recorders = false;
  /// Crash forensics: when a channel is restarted or quarantined the
  /// supervisor dumps a framed `.blackbox` image (blackbox.hpp) of the
  /// wrecked instance — ring tail, last-good checkpoint, metrics, spans —
  /// into this directory (created on demand; empty disables) …
  std::string blackbox_dir;
  /// … and/or hands the framed bytes to this callback (supervising thread).
  std::function<void(std::size_t channel, const std::vector<std::uint8_t>& image)>
      blackbox_sink;
};

/// Aggregate counters for the run so far (chaos-bench reporting).
struct FleetStats {
  long ticks = 0;
  long stalls_detected = 0;
  long exceptions = 0;
  long restarts = 0;
  long quarantined = 0;
  long corrupt_checkpoints = 0;  ///< restore attempts rejected by the CRC frame
  long checkpoints = 0;
  long shed_channel_ticks = 0;   ///< channel-ticks skipped by load shedding
  long delivered_samples = 0;    ///< outputs drained to the consumer
  long blackbox_dumps = 0;       ///< `.blackbox` crash images written
  /// Wall-clock detection latency of stall incidents [ms] (time from the
  /// step starting to the watchdog flagging it).
  std::vector<double> stall_detect_ms;
  /// Wall-clock mean time to repair [ms]: failure observed → channel caught
  /// back up with the fleet.
  std::vector<double> mttr_ms;
};

class FleetSupervisor {
 public:
  FleetSupervisor(std::vector<FleetChannelSpec> specs, const FleetConfig& cfg);
  ~FleetSupervisor();

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  /// Advance the whole fleet by `n` fleet ticks. Ends with a catch-up pass:
  /// on return every non-quarantined channel has simulated exactly
  /// `ticks_run() * tick_seconds` seconds.
  void run_ticks(long n);

  std::size_t size() const { return states_.size(); }
  long ticks_run() const { return fleet_tick_; }
  /// The live channel instance (rebuilt across restarts; never null).
  ConditioningChannel& channel(std::size_t i) { return farm_.channel(i); }
  const ConditioningChannel& channel(std::size_t i) const { return farm_.channel(i); }

  ChannelHealth health(std::size_t i) const { return states_[i].health; }
  /// Fleet-level trouble codes for channel i (safety::Dtc vocabulary —
  /// kDtcEngineFault after any crash/stall/restart/quarantine).
  std::uint16_t fleet_dtcs(std::size_t i) const { return states_[i].dtcs; }
  int restarts(std::size_t i) const { return states_[i].restarts; }
  long ticks_done(std::size_t i) const { return states_[i].ticks_done; }
  std::string last_error(std::size_t i) const { return states_[i].last_error; }

  const FleetStats& stats() const { return stats_; }

  /// Consumer for drained output samples (called on the supervising thread
  /// after each tick). Unset, drained samples are counted and discarded.
  void set_consumer(std::function<void(std::size_t, std::vector<double>&&)> fn) {
    consumer_ = std::move(fn);
  }

  // ---- chaos/test hooks ----------------------------------------------------
  /// Flip one bit inside the payload of channel i's last-good checkpoint
  /// (no-op without one). The next restore detects the CRC mismatch.
  void corrupt_last_checkpoint(std::size_t i);
  /// Truncate channel i's last-good checkpoint to `keep` bytes.
  void truncate_last_checkpoint(std::size_t i, std::size_t keep);
  bool has_checkpoint(std::size_t i) const { return !states_[i].last_good.empty(); }

 private:
  /// Supervision state of one channel (the channel lives in farm_). Only the
  /// supervising thread writes it; a worker only calls before_advance.
  struct ChannelState {
    int priority = 0;
    std::function<void(long)> before_advance;

    ChannelHealth health = ChannelHealth::Running;
    long ticks_done = 0;  ///< fleet ticks of simulated time completed
    std::vector<std::uint8_t> last_good;
    long last_good_tick = 0;
    int restarts = 0;
    long backoff_until = 0;  ///< skip while fleet_tick_ < backoff_until
    std::uint16_t dtcs = 0;
    std::string last_error;
    long shed_ticks = 0;

    // Open incident (failure observed, catch-up not yet complete).
    bool incident_open = false;
    std::chrono::steady_clock::time_point incident_start{};
    std::uint64_t incident_span = 0;  ///< open "incident" span id (0 = none)
  };

  void run_one_tick();
  /// One step over runnable_: the chaos hooks on live ticks only (one farm
  /// run), then one farm advance of every channel that did not throw and
  /// whose queue is not full to the base tick of fleet tick fleet_tick_,
  /// then stall reports and failure handling. Returns the step's wall
  /// time [ms].
  double step(bool live);
  void report_stalls();
  void handle_failures();
  void drain_outputs();
  void take_checkpoints();
  void restart_channel(std::size_t i);
  void close_incidents();
  void emit(obs::EventSeverity sev, const char* name, std::string detail,
            std::initializer_list<obs::Event::KV> kv = {});
  double now_sim() const;
  /// Dump the wrecked (still-intact) instance of channel i as a `.blackbox`
  /// image. No-op unless a sink or directory is configured.
  void dump_blackbox(std::size_t i);
  /// Completed Fleet-category lifecycle span tagged with the channel index.
  void span_edge(const char* name, std::size_t channel, std::uint64_t parent,
                 const char* k1 = nullptr, double v1 = 0.0);
  void open_incident(std::size_t i);

  FleetConfig cfg_;
  ChannelFarm farm_;
  std::vector<ChannelState> states_;
  FleetStats stats_;
  long fleet_tick_ = 0;
  std::function<void(std::size_t, std::vector<double>&&)> consumer_;

  obs::MetricRegistry::Id m_ticks_ = 0, m_stalls_ = 0, m_exceptions_ = 0, m_restarts_ = 0,
                          m_quarantines_ = 0, m_shed_ = 0, m_delivered_ = 0,
                          m_checkpoints_ = 0, m_blackbox_ = 0;

  // Step work list (indices of channels the next step runs).
  std::vector<std::size_t> runnable_;

  // Watchdog thread + its detection journal (consumed by the supervisor
  // thread after each farm run).
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  std::mutex stall_m_;
  struct StallRecord {
    long channel;
    double elapsed_ms;
  };
  std::vector<StallRecord> stall_log_;

  double last_tick_wall_ms_ = 0.0;
};

}  // namespace ascp::engine
