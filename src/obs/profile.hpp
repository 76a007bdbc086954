// profile.hpp — pipeline task profiler.
//
// Answers "where did the simulation time go": per-task invocation counts and
// wall time for a conditioning pipeline's static frame loop, and the
// run-level sim-time/wall-time ratio. Statistics accumulate across runs;
// tasks are registered once and deduplicated by (name, divider, phase).
//
// The pipelines time whole frames, one in each kTimedFrameStride by global
// frame index, reading the clock once at each task boundary of a timed frame.
// Each timed task's share of a frame is one record: a Scheduler span in the
// attached SpanLog (the Chrome-trace exporter draws task tracks there) and
// wall added to the task's timed total. A task's reported wall is the
// measured run wall times its share of the timed wall, so the task walls sum
// to the run wall by construction. Invocation counts are exact: the
// pipelines book them by arithmetic on the ticks they ran, when a run ends
// and when a lockstep-group member drops out.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ascp::obs {

class SpanLog;

class TaskProfiler {
 public:
  /// One frame in this many is timed, chosen by global frame index. It is
  /// prime, so co-prime with the 128-frame output cadence (the CIC ratio):
  /// over 128 windows the timed frames take each of its phases once.
  static constexpr long kTimedFrameStride = 127;

  /// Get-or-create the id for a task. Unnamed tasks profile under a
  /// synthesized "task@divider+phase" label.
  int register_task(std::string_view name, long divider, long phase);

  /// Base tick rate [Hz] of the pipeline feeding this profiler, used to
  /// convert ticks to sim seconds.
  void set_base_rate(double hz) { base_rate_hz_ = hz; }
  double base_rate() const { return base_rate_hz_; }

  /// Record every timed task as a completed Scheduler-category span named
  /// after it in `log` (parented to whatever span is open — gyro.run /
  /// channel.advance — so task work hangs off the advance that caused it).
  /// Null detaches.
  void set_span_log(SpanLog* log) { span_log_ = log; }

  /// Task `id`'s share of one timed frame: its work on the `ticks` ticks
  /// from global `tick`, costing `wall_seconds`.
  void record(int id, long tick, long ticks, double wall_seconds);

  /// `firings` completed invocations of task `id`.
  void count(int id, std::uint64_t firings) {
    tasks_[static_cast<std::size_t>(id)].invocations += firings;
  }

  /// One completed run of the owning system: `sim_seconds` of simulated time
  /// bought with `wall_seconds` of host time. Shares the accumulated run wall
  /// out to the tasks by their timed walls.
  void record_run(double sim_seconds, double wall_seconds);

  struct TaskStats {
    std::string name;
    long divider = 1;
    long phase = 0;
    std::uint64_t invocations = 0;
    double wall_seconds = 0.0;
  };
  const std::vector<TaskStats>& stats() const { return tasks_; }
  std::size_t task_count() const { return tasks_.size(); }
  const std::string& task_name(int id) const { return tasks_[static_cast<std::size_t>(id)].name; }

  double sim_seconds() const { return sim_seconds_; }
  double wall_seconds() const { return wall_seconds_; }
  /// Simulated seconds per host second across all recorded runs (0 when no
  /// wall time has been recorded).
  double sim_per_wall() const {
    return wall_seconds_ > 0.0 ? sim_seconds_ / wall_seconds_ : 0.0;
  }

  void reset();

 private:
  std::vector<TaskStats> tasks_;
  std::vector<double> timed_wall_;  ///< each task's wall over the timed frames
  SpanLog* span_log_ = nullptr;
  double base_rate_hz_ = 0.0;
  double sim_seconds_ = 0.0;
  double wall_seconds_ = 0.0;
};

}  // namespace ascp::obs
