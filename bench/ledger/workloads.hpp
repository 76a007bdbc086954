// workloads.hpp — the four platform workloads perf_ledger measures.
//
// Every workload is a closed loop: one caller advances simulated time by a
// fixed step (a "frame"), waits for it, and checks what came out. Nothing is
// paced against wall time. Inputs are generated from the workload seed only;
// the program under test sees nothing but the generated ChannelConfigs and
// samples.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "host_speed.hpp"
#include "ledger.hpp"
#include "obs/span.hpp"
#include "platform/engine/conditioning_channel.hpp"

namespace ledger {

/// Operations attempted and failed, with the first few reasons.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void fail(long ops, const std::string& why) {
    failed += ops;
    if (problems.size() < 8) problems.push_back(why);
  }
};

/// Wall-clock spans around benchmark-side calls. Disabled (no log), a scope
/// costs one branch; enabled, each scope becomes an obs::SpanLog span whose
/// times are seconds since enable(), and its duration is summed per name so
/// per-layer figures survive the span ring wrapping. Spans keep raw wall
/// time; the per-name sums are host-speed rescaled frame by frame.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Stat {
    std::string name;
    double ns = 0.0;
    long calls = 0;
    double units = 0.0;  ///< caller-defined work count (base ticks, samples)
  };

  void enable(ascp::obs::SpanLog* log) {
    log_ = log;
    epoch_ = Clock::now();
  }

  Stat& stat(std::string_view name);
  const Stat* find(std::string_view name) const;
  /// Per-name totals now, and rescaling of whatever was added since then.
  std::vector<double> mark() const;
  void rescale_since(const std::vector<double>& mark, double scale);
  /// Mean ns per unit (or per call when no units were recorded); 0 when absent.
  double ns_per_unit(std::string_view name) const;
  double ns_per_call(std::string_view name) const;

  class Scope {
   public:
    Scope(Tracer& tr, const char* name, double units = 0.0) : tr_(tr.log_ ? &tr : nullptr) {
      if (!tr_) return;
      name_ = name;
      units_ = units;
      t0_ = Clock::now();
      id_ = tr_->log_->begin(name, ascp::obs::SpanCategory::Channel, tr_->seconds(t0_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (!tr_) return;
      const auto t1 = Clock::now();
      const double ns = std::chrono::duration<double, std::nano>(t1 - t0_).count();
      tr_->log_->end(id_, tr_->seconds(t1), ns * 1e-3);
      Stat& s = tr_->stat(name_);
      s.ns += ns;
      ++s.calls;
      s.units += units_;
    }

   private:
    Tracer* tr_;
    const char* name_ = nullptr;
    double units_ = 0.0;
    Clock::time_point t0_{};
    std::uint64_t id_ = 0;
  };

 private:
  double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  ascp::obs::SpanLog* log_ = nullptr;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Stat> stats_;
};

/// Figures only a traced run produces, filled by the workload's engine layer.
struct EngineFigures {
  double advance_ns_per_tick = 0.0;  ///< reference channel, per base tick
  /// engine.* / obs.* per-layer metrics. The checkpoint figures stay 0 on
  /// workloads that never checkpoint.
  std::vector<Metric> metrics = {{"engine.checkpoint_share", 0.0, "ratio"},
                                 {"engine.checkpoints", 0.0, "count"},
                                 {"engine.restarts", 0.0, "count"},
                                 {"obs.blackbox_bytes", 0.0, "B"}};
  std::vector<Metric> info;  ///< printed, not part of the result line

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics)
      if (m.name == name) {
        m.value = value;
        return;
      }
    metrics.push_back({name, value, unit});
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Simulated seconds one frame advances each channel. Set-up ends with
  /// kWarmupSeconds of frames (PLL lock, AGC settle).
  virtual double frame_seconds() const = 0;
  /// Untimed work before a frame (input generation).
  virtual void prepare() {}
  /// One caller step — the timed unit.
  virtual void frame(Tracer& tr) = 0;
  /// Untimed: count the frame's operations and any that failed.
  virtual void check_frame(Tally& t) = 0;
  /// Operations one frame attempts (frames, or channel-ticks for a fleet).
  virtual long ops_per_frame() const { return 1; }
  /// Simulated channel-seconds one frame advances.
  virtual double channel_seconds_per_frame() const = 0;
  /// True when the inputs cannot feed another frame.
  virtual bool exhausted() const { return false; }
  /// Stimulus underruns summed over the workload's channels.
  virtual std::uint64_t underruns() const = 0;

  /// Frames the pinned output hash covers, and the folded hash right now.
  virtual long hash_frames() const = 0;
  virtual std::uint64_t output_hash() const = 0;
  /// Untimed checks after the measured window.
  virtual void final_check(Tally& t) = 0;

  /// The gyro channel whose layers the traced run replays.
  virtual ascp::engine::ChannelConfig reference_config() const = 0;
  /// Traced run only, after the measured window: engine-level figures.
  /// Solo timings go through `host` so they are rescaled like the rest.
  virtual void engine_figures(Tracer& tr, HostSpeed& host, EngineFigures& out) = 0;
  /// Workload-specific figures for the printed report.
  virtual void info(std::vector<Metric>& out) const { (void)out; }
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);
/// The exponent by which a workload's frame times follow the host-speed
/// probe (host_speed.hpp).
double host_sensitivity(std::string_view name);

// ---- helpers shared with the layer replay ----------------------------------

constexpr double kWarmupSeconds = 0.25;

/// Worker threads for the farm and the fleet. On the shared 4-vCPU host the
/// baseline comes from, a 4-worker pool waits at every frame for whichever
/// vCPU a neighbour holds, and its times spread by 25–50 % between runs: the
/// probe on one vCPU cannot follow four. Every workload therefore runs on the
/// calling thread alone, where the probe sees what the frame saw.
constexpr unsigned kWorkerThreads = 1;

/// FNV-1a over the 8 bytes of `x`, continuing `h`.
std::uint64_t fold_hash(std::uint64_t h, std::uint64_t x);
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Rescaled ns per base tick of `ch` advanced alone: the median of `rounds`
/// advances of `ticks`.
double solo_ns_per_tick(ascp::engine::ConditioningChannel& ch, long ticks, int rounds,
                        HostSpeed& host);

}  // namespace ledger
