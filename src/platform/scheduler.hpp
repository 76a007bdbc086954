// scheduler.hpp — deterministic multi-rate simulation kernel.
//
// The platform is a multi-rate system: the MEMS/analog models integrate at
// ~1.92 MHz, the DSP chain runs at the 240 kHz ADC rate, decimated outputs
// at ~1.9 kHz, and the 8051 executes a slice of instructions per DSP sample
// (20 MHz clock, paper §4.3). The scheduler advances a base tick and fires
// registered tasks at integer divisions of it, in registration order within
// a tick — fully deterministic, so every experiment is reproducible. Each
// task keeps the tick it fires on next, so a tick compares instead of
// dividing.
//
// A tick is one loop whether or not task profilers are attached. Each task
// counts down the firings until its next timed one; only the timed firing
// leaves the loop, to read the clock and bring the profilers' invocation
// counts up to date. Untimed firings are booked in bulk at the next timed
// firing and when a run returns (run_ticks, or sync_profilers() for an
// owner that calls tick() itself).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace ascp::obs {
class TaskProfiler;
}

namespace ascp::platform {

class Scheduler {
 public:
  using Task = std::function<void()>;

  /// `base_rate_hz` is the fastest rate in the system (tick rate).
  explicit Scheduler(double base_rate_hz) : base_rate_(base_rate_hz) {}

  /// Run `task` every `divider` base ticks (divider >= 1), starting at the
  /// first tick. Tasks registered earlier run first within a tick.
  void every(long divider, Task task, std::string name = {});

  /// Run `task` every `divider` base ticks, offset by `phase` ticks
  /// (0 <= phase < divider): fires when ticks() % divider == phase. A
  /// divider-8 phase-7 task models hardware that emits on the 8th clock of
  /// each conversion cycle (e.g. a SAR ADC completing), which is how the
  /// conditioning pipelines keep their pre-refactor sample alignment.
  void every(long divider, long phase, Task task, std::string name = {});

  /// Advance one base tick. The attached profilers' invocation counts may
  /// lag until the next timed firing or sync_profilers().
  void tick();

  /// Advance `n` base ticks. On return, normal or by an exception, the
  /// attached profilers count every firing that completed.
  void run_ticks(long n);

  /// Advance by wall-clock simulation time: ticks_in(seconds) ticks.
  void run_seconds(double seconds);
  /// Base ticks in `seconds` of simulated time, rounded to the nearest.
  long ticks_in(double seconds) const { return static_cast<long>(seconds * base_rate_ + 0.5); }

  double base_rate() const { return base_rate_; }
  double dt() const { return 1.0 / base_rate_; }
  long ticks() const { return ticks_; }
  double now() const { return static_cast<double>(ticks_) / base_rate_; }

  /// Checkpoint restore: reposition the tick counter so task phases resume
  /// where the saved run left off. Only meaningful for persistent schedulers
  /// (the analog baselines); per-run schedulers are rebuilt instead.
  void set_ticks(long ticks);

  /// Attach one task profiler (null detaches): set_profilers of one.
  void set_profiler(obs::TaskProfiler* profiler);

  /// Attach the task profilers of the systems that share this scheduler's
  /// tasks, one entry each (an empty list detaches; a null entry is a system
  /// without one). Already-registered and future tasks are registered with
  /// every profiler, and each counts every firing that completes. The first
  /// non-null profiler's sample-stride policy picks the firings that are
  /// wall-timed (TaskProfiler::set_sample_stride), and each entry is booked
  /// an equal share of a timed firing's wall. The counts of the profilers
  /// attached before are brought up to date first, so a system may leave
  /// from inside a task. Profiling is observational only — it cannot change
  /// task order or firing pattern.
  void set_profilers(std::span<obs::TaskProfiler* const> profilers);

  /// Bring the attached profilers' invocation counts up to date with every
  /// firing that has completed.
  void sync_profilers();

  /// Static view of one registered task, for offline analysis (the timing
  /// analyzer turns these into TaskSpecs without running anything).
  struct TaskInfo {
    std::string name;
    long divider = 1;
    long phase = 0;
  };
  std::vector<TaskInfo> tasks() const;

 private:
  static constexpr long kNever = std::numeric_limits<long>::max();
  struct Entry {
    long divider;
    long phase;
    long next;  ///< the tick it fires on next: ≥ ticks_, ≡ phase (mod divider)
    Task task;
    std::string name;
    std::vector<int> profile_ids = {};  ///< the task's id in each profiler (-1: none)
    long sample_stride = 1;  ///< wall-time one firing in each window of this many
    /// Untimed firings before the next timed one; decremented as each
    /// completes, so `armed - until_timed` have not been counted yet.
    long until_timed = kNever;
    long armed = kNever;  ///< until_timed when the counts were last synced
  };

  /// First tick at or after `ticks` on which a (divider, phase) task fires.
  static long first_firing(long ticks, long divider, long phase);
  /// Registers `e` with the attached profilers and arms its next timed firing.
  void attach(Entry& e);
  long entry_stride(const Entry& e) const;
  long firings_until_timed(const Entry& e) const;
  /// Books the firings of `e` completed since its counts were last synced.
  void sync(Entry& e);
  /// Runs a firing of `e` that is wall-timed, books it and re-arms `e`.
  void fire_timed(Entry& e);

  double base_rate_;
  long ticks_ = 0;
  std::vector<Entry> entries_;
  std::vector<obs::TaskProfiler*> profilers_;  ///< empty: detached
  std::size_t lead_ = 0;  ///< index of the first non-null profiler
};

}  // namespace ascp::platform
