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
  attach(e);
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

void Scheduler::attach(Entry& e) {
  e.profile_ids.clear();
  for (obs::TaskProfiler* p : profilers_)
    e.profile_ids.push_back(p ? p->register_task(e.name, e.divider, e.phase) : -1);
  e.sample_stride = entry_stride(e);
  e.until_timed = e.armed = profilers_.empty() ? kNever : firings_until_timed(e);
}

long Scheduler::entry_stride(const Entry& e) const {
  const long requested = profilers_.empty() ? 1 : profilers_[lead_]->sample_stride();
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
  // divider). Windows count the task's firings since the lead profiler
  // attached, so the pattern continues across the fresh Scheduler GyroSystem
  // builds for every run. Evaluated once per window, never per untimed
  // firing, with the lead's counts up to date.
  const long stride = e.sample_stride;
  if (stride == 1) return 0;  // every firing is timed
  long step = static_cast<long>(static_cast<double>(stride) * 0.6180339887498949);
  while (std::gcd(step, stride) != 1) ++step;
  const auto s = static_cast<std::uint64_t>(stride);
  const auto offset_in = [&](std::uint64_t window) {
    return static_cast<long>(window % s * static_cast<std::uint64_t>(step) % s);
  };
  const std::uint64_t fired =
      profilers_[lead_]->stats()[static_cast<std::size_t>(e.profile_ids[lead_])].invocations;
  const auto pos = static_cast<long>(fired % s);
  const long offset = offset_in(fired / s);
  // Past this window's timed position: wait for the next window's.
  return pos <= offset ? offset - pos : stride - pos + offset_in(fired / s + 1);
}

void Scheduler::set_profiler(obs::TaskProfiler* profiler) {
  set_profilers({&profiler, profiler ? 1u : 0u});
}

void Scheduler::set_profilers(std::span<obs::TaskProfiler* const> profilers) {
  sync_profilers();
  profilers_.assign(profilers.begin(), profilers.end());
  lead_ = 0;
  while (lead_ < profilers_.size() && !profilers_[lead_]) ++lead_;
  if (lead_ == profilers_.size()) profilers_.clear();
  for (obs::TaskProfiler* p : profilers_)
    if (p) p->set_base_rate(base_rate_);
  for (Entry& e : entries_) attach(e);
}

std::vector<Scheduler::TaskInfo> Scheduler::tasks() const {
  std::vector<TaskInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back({e.name, e.divider, e.phase});
  return out;
}

void Scheduler::sync(Entry& e) {
  const long n = e.armed - e.until_timed;
  e.armed = e.until_timed;
  if (n == 0) return;
  for (std::size_t k = 0; k < profilers_.size(); ++k)
    if (profilers_[k]) profilers_[k]->count(e.profile_ids[k], static_cast<std::uint64_t>(n));
}

void Scheduler::sync_profilers() {
  for (Entry& e : entries_) sync(e);
}

void Scheduler::fire_timed(Entry& e) {
  using clock = std::chrono::steady_clock;
  sync(e);
  const auto t0 = clock::now();
  e.task();
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();
  // The task may have changed the profilers (a group member leaving); the
  // firing is booked to those attached now, each its share of the wall.
  for (std::size_t k = 0; k < profilers_.size(); ++k)
    if (profilers_[k])
      profilers_[k]->record(e.profile_ids[k], ticks_,
                            wall / static_cast<double>(profilers_.size()),
                            static_cast<double>(e.sample_stride));
  e.until_timed = e.armed = profilers_.empty() ? kNever : firings_until_timed(e);
}

void Scheduler::tick() {
  for (Entry& e : entries_) {
    if (ticks_ != e.next) continue;
    e.next += e.divider;
    if (e.until_timed > 0) {
      e.task();
      --e.until_timed;
    } else {
      fire_timed(e);
    }
  }
  ++ticks_;
}

void Scheduler::run_ticks(long n) {
  try {
    for (long i = 0; i < n; ++i) tick();
  } catch (...) {
    sync_profilers();
    throw;
  }
  sync_profilers();
}

void Scheduler::run_seconds(double seconds) {
  run_ticks(ticks_in(seconds));
}

}  // namespace ascp::platform
