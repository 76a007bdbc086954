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
#pragma once

#include <cstdint>
#include <functional>
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

  /// Advance one base tick.
  void tick();

  /// Advance `n` base ticks.
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

  /// Attach a task profiler (null detaches). Already-registered and future
  /// tasks are registered with it; while attached, tick() counts every task
  /// invocation and wall-times a sampled subset (the profiler's
  /// sample-stride policy — see TaskProfiler::set_sample_stride). Profiling
  /// is observational only — it cannot change task order or firing pattern.
  void set_profiler(obs::TaskProfiler* profiler);
  obs::TaskProfiler* profiler() const { return profiler_; }

  /// Static view of one registered task, for offline analysis (the timing
  /// analyzer turns these into TaskSpecs without running anything).
  struct TaskInfo {
    std::string name;
    long divider = 1;
    long phase = 0;
  };
  std::vector<TaskInfo> tasks() const;

 private:
  struct Entry {
    long divider;
    long phase;
    long next;  ///< the tick it fires on next: ≥ ticks_, ≡ phase (mod divider)
    Task task;
    std::string name;
    int profile_id = -1;
    long sample_stride = 1;  ///< wall-time one firing in each window of this many
    long until_timed = 0;    ///< untimed firings before the next timed one
  };

  /// First tick at or after `ticks` on which a (divider, phase) task fires.
  static long first_firing(long ticks, long divider, long phase);
  long entry_stride(const Entry& e) const;
  long firings_until_timed(const Entry& e) const;

  double base_rate_;
  long ticks_ = 0;
  std::vector<Entry> entries_;
  obs::TaskProfiler* profiler_ = nullptr;
};

}  // namespace ascp::platform
