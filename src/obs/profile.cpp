#include "obs/profile.hpp"

#include "obs/span.hpp"

namespace ascp::obs {

int TaskProfiler::register_task(std::string_view name, long divider, long phase) {
  std::string label(name);
  if (label.empty())
    label = "task@" + std::to_string(divider) + "+" + std::to_string(phase);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskStats& t = tasks_[i];
    if (t.name == label && t.divider == divider && t.phase == phase)
      return static_cast<int>(i);
  }
  TaskStats t;
  t.name = std::move(label);
  t.divider = divider;
  t.phase = phase;
  tasks_.push_back(std::move(t));
  timed_.push_back(0);
  return static_cast<int>(tasks_.size() - 1);
}

void TaskProfiler::record(int id, long tick, double wall_seconds, double weight) {
  TaskStats& t = tasks_[static_cast<std::size_t>(id)];
  ++t.invocations;
  ++timed_[static_cast<std::size_t>(id)];
  t.wall_seconds += wall_seconds * weight;
  if (span_log_) {
    const double t0 = base_rate_hz_ > 0.0
                          ? static_cast<double>(tick_origin_ + tick) / base_rate_hz_
                          : 0.0;
    span_log_->complete(t.name.c_str(), SpanCategory::Scheduler, t0, t0,
                        wall_seconds * 1e6);
  }
}

void TaskProfiler::record_run(double sim_seconds, double wall_seconds) {
  sim_seconds_ += sim_seconds;
  wall_seconds_ += wall_seconds;
}

void TaskProfiler::reset() {
  for (auto& t : tasks_) {
    t.invocations = 0;
    t.wall_seconds = 0.0;
  }
  for (auto& n : timed_) n = 0;
  tick_origin_ = 0;
  sim_seconds_ = 0.0;
  wall_seconds_ = 0.0;
}

}  // namespace ascp::obs
