// profile.hpp — scheduler task profiler.
//
// Answers "where did the simulation time go": per-task invocation counts and
// accumulated wall time inside platform::Scheduler, and the run-level
// sim-time/wall-time ratio. A timed firing's one record is a Scheduler span
// in the attached SpanLog; the Chrome-trace exporter draws task tracks there.
//
// The profiler outlives individual Scheduler instances on purpose:
// GyroSystem builds a fresh Scheduler per run() call, so tasks are
// re-registered each run and deduplicated here by (name, divider, phase) —
// statistics accumulate across runs. set_tick_origin() maps each run's
// local tick 0 onto the channel's global tick axis so span timestamps stay
// monotonic across runs.
//
// Invocation counts are exact but arrive in bulk: the scheduler counts its
// untimed firings itself and adds them here (count()) at the task's next
// timed firing and when a run returns, so an untimed firing costs no call.
// The systems of a GyroSystem lockstep group share one Scheduler and each
// keep their own profiler: each is counted every firing and booked an equal
// share of each timed firing's wall and of the run wall.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ascp::obs {

class SpanLog;

class TaskProfiler {
 public:
  /// Get-or-create the id for a task. Unnamed tasks profile under a
  /// synthesized "task@divider+phase" label.
  int register_task(std::string_view name, long divider, long phase);

  /// Base tick rate [Hz] of the scheduler feeding this profiler — set by
  /// Scheduler::set_profiler, used to convert ticks to sim seconds.
  void set_base_rate(double hz) { base_rate_hz_ = hz; }
  double base_rate() const { return base_rate_hz_; }

  /// Global tick corresponding to the *next* run's local tick 0.
  void set_tick_origin(long origin) { tick_origin_ = origin; }

  /// Clock-sampling stride. Timing every invocation costs two host clock
  /// reads per task per tick — at a 240 kHz base rate that is ~10x the work
  /// being measured. With stride N the scheduler wall-times one invocation
  /// in each window of N firings of a task, at a position that moves from
  /// window to window so it cannot alias with another task's period, and
  /// scales the sampled cost by N: accumulated wall estimates stay unbiased
  /// while invocation counts stay exact. 0 (the default) means auto: the
  /// scheduler derives a per-task stride from its firing rate targeting
  /// ~kAutoSampleHz samples per simulated second. 1 restores exact
  /// per-invocation timing.
  void set_sample_stride(long stride) { sample_stride_ = stride < 0 ? 0 : stride; }
  long sample_stride() const { return sample_stride_; }

  /// Target per-task clock-sample rate [Hz] for auto stride.
  static constexpr double kAutoSampleHz = 2000.0;

  /// Record every *timed* invocation as a completed Scheduler-category span
  /// named after its task in `log` (parented to whatever span is open —
  /// gyro.run / channel.advance — so task work hangs off the advance that
  /// caused it). Bounded by the same sampling stride that bounds clock
  /// reads. Null detaches.
  void set_span_log(SpanLog* log) { span_log_ = log; }

  /// One *timed* task invocation at scheduler-local `tick`, costing
  /// `wall_seconds`. `weight` is the sampling stride that selected it: the
  /// invocation stands in for `weight` firings in the wall accumulator.
  void record(int id, long tick, double wall_seconds, double weight = 1.0);

  /// `firings` untimed (skipped-by-sampling) invocations: counts, no wall
  /// cost. The scheduler books them in bulk, at its next timed firing of the
  /// task and when a run returns.
  void count(int id, std::uint64_t firings) {
    tasks_[static_cast<std::size_t>(id)].invocations += firings;
  }

  /// One completed run of the owning system: `sim_seconds` of simulated time
  /// bought with `wall_seconds` of host time.
  void record_run(double sim_seconds, double wall_seconds);

  struct TaskStats {
    std::string name;
    long divider = 1;
    long phase = 0;
    std::uint64_t invocations = 0;
    double wall_seconds = 0.0;
  };
  const std::vector<TaskStats>& stats() const { return tasks_; }
  std::uint64_t timed_invocations(int id) const {
    return timed_[static_cast<std::size_t>(id)];
  }
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
  std::vector<std::uint64_t> timed_;
  SpanLog* span_log_ = nullptr;
  long sample_stride_ = 0;
  double base_rate_hz_ = 0.0;
  long tick_origin_ = 0;
  double sim_seconds_ = 0.0;
  double wall_seconds_ = 0.0;
};

}  // namespace ascp::obs
