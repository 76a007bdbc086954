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
  timed_wall_.push_back(0.0);
  return static_cast<int>(tasks_.size() - 1);
}

void TaskProfiler::record(int id, long tick, long ticks, double wall_seconds) {
  timed_wall_[static_cast<std::size_t>(id)] += wall_seconds;
  if (span_log_) {
    const auto t = [this](long k) {
      return base_rate_hz_ > 0.0 ? static_cast<double>(k) / base_rate_hz_ : 0.0;
    };
    span_log_->complete(task_name(id).c_str(), SpanCategory::Scheduler, t(tick),
                        t(tick + ticks), wall_seconds * 1e6);
  }
}

void TaskProfiler::record_run(double sim_seconds, double wall_seconds) {
  sim_seconds_ += sim_seconds;
  wall_seconds_ += wall_seconds;
  double timed = 0.0;
  for (const double w : timed_wall_) timed += w;
  if (timed <= 0.0) return;
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    tasks_[i].wall_seconds = wall_seconds_ * (timed_wall_[i] / timed);
}

void TaskProfiler::reset() {
  for (auto& t : tasks_) {
    t.invocations = 0;
    t.wall_seconds = 0.0;
  }
  for (auto& w : timed_wall_) w = 0.0;
  sim_seconds_ = 0.0;
  wall_seconds_ = 0.0;
}

}  // namespace ascp::obs
