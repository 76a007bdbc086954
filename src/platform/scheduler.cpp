#include "platform/scheduler.hpp"

#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "obs/profile.hpp"

namespace ascp::platform {

void Scheduler::every(long divider, Task task, std::string name) {
  every(divider, 0, std::move(task), std::move(name));
}

void Scheduler::every(long divider, long phase, Task task, std::string name) {
  if (divider < 1) throw std::invalid_argument("scheduler divider must be >= 1");
  if (phase < 0 || phase >= divider)
    throw std::invalid_argument("scheduler phase must be in [0, divider)");
  Entry e{divider, phase, first_firing(ticks_, divider, phase), std::move(task), std::move(name)};
  if (profiler_) {
    e.profile_id = profiler_->register_task(e.name, divider, phase);
    e.sample_stride = entry_stride(e);
    e.until_timed = firings_until_timed(e);
  }
  entries_.push_back(std::move(e));
}

long Scheduler::first_firing(long ticks, long divider, long phase) {
  long wait = (phase - ticks % divider) % divider;
  if (wait < 0) wait += divider;
  return ticks + wait;
}

void Scheduler::set_ticks(long ticks) {
  ticks_ = ticks;
  for (Entry& e : entries_) e.next = first_firing(ticks_, e.divider, e.phase);
}

long Scheduler::entry_stride(const Entry& e) const {
  const long requested = profiler_ ? profiler_->sample_stride() : 1;
  if (requested > 0) return requested;
  // Auto: sample each task at ~kAutoSampleHz in simulated time, so the two
  // host clock reads per timed firing stay negligible even at MHz base rates.
  const double fire_hz = base_rate_ / static_cast<double>(e.divider);
  const long stride = static_cast<long>(fire_hz / obs::TaskProfiler::kAutoSampleHz);
  return stride < 1 ? 1 : stride;
}

long Scheduler::firings_until_timed(const Entry& e) const {
  // One firing in each window of `stride` is timed, at a position that moves
  // by a golden-ratio step made co-prime with the stride: over `stride`
  // windows it takes every position once and never locks onto another
  // task's period (the 1.92 MHz auto stride, 960, is a multiple of the ADC
  // divider). Windows count the task's firings since the profiler attached,
  // so the pattern continues across the fresh Scheduler GyroSystem builds
  // for every run. Evaluated once per window, never per untimed firing.
  const long stride = e.sample_stride;
  if (stride == 1) return 0;  // every firing is timed
  long step = static_cast<long>(static_cast<double>(stride) * 0.6180339887498949);
  while (std::gcd(step, stride) != 1) ++step;
  const auto s = static_cast<std::uint64_t>(stride);
  const auto offset_in = [&](std::uint64_t window) {
    return static_cast<long>(window % s * static_cast<std::uint64_t>(step) % s);
  };
  const std::uint64_t fired =
      profiler_->stats()[static_cast<std::size_t>(e.profile_id)].invocations;
  const auto pos = static_cast<long>(fired % s);
  const long offset = offset_in(fired / s);
  // Past this window's timed position: wait for the next window's.
  return pos <= offset ? offset - pos : stride - pos + offset_in(fired / s + 1);
}

void Scheduler::set_profiler(obs::TaskProfiler* profiler) {
  profiler_ = profiler;
  for (Entry& e : entries_) {
    e.profile_id = profiler_ ? profiler_->register_task(e.name, e.divider, e.phase) : -1;
    if (!profiler_) continue;
    e.sample_stride = entry_stride(e);
    e.until_timed = firings_until_timed(e);
  }
  if (profiler_) profiler_->set_base_rate(base_rate_);
}

std::vector<Scheduler::TaskInfo> Scheduler::tasks() const {
  std::vector<TaskInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back({e.name, e.divider, e.phase});
  return out;
}

void Scheduler::tick() {
  if (profiler_) {
    using clock = std::chrono::steady_clock;
    for (Entry& e : entries_) {
      if (ticks_ != e.next) continue;
      e.next += e.divider;
      if (e.until_timed > 0) {
        --e.until_timed;
        e.task();
        profiler_->count(e.profile_id);
        continue;
      }
      const auto t0 = clock::now();
      e.task();
      const double wall = std::chrono::duration<double>(clock::now() - t0).count();
      profiler_->record(e.profile_id, ticks_, wall, static_cast<double>(e.sample_stride));
      e.until_timed = firings_until_timed(e);
    }
  } else {
    for (Entry& e : entries_) {
      if (ticks_ != e.next) continue;
      e.next += e.divider;
      e.task();
    }
  }
  ++ticks_;
}

void Scheduler::run_ticks(long n) {
  for (long i = 0; i < n; ++i) tick();
}

void Scheduler::run_seconds(double seconds) {
  run_ticks(ticks_in(seconds));
}

}  // namespace ascp::platform
