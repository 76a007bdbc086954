#include "obs/events.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"

namespace ascp::obs {

const char* severity_name(EventSeverity s) {
  switch (s) {
    case EventSeverity::Debug: return "debug";
    case EventSeverity::Info: return "info";
    case EventSeverity::Warn: return "warn";
    case EventSeverity::Error: return "error";
  }
  return "?";
}

const char* category_name(EventCategory c) {
  switch (c) {
    case EventCategory::Pll: return "pll";
    case EventCategory::Agc: return "agc";
    case EventCategory::Supervisor: return "supervisor";
    case EventCategory::Dtc: return "dtc";
    case EventCategory::Watchdog: return "watchdog";
    case EventCategory::Fault: return "fault";
    case EventCategory::Mcu: return "mcu";
    case EventCategory::Engine: return "engine";
    case EventCategory::Probe: return "probe";
    case EventCategory::Trace: return "trace";
    case EventCategory::Recorder: return "recorder";
  }
  return "?";
}

EventLog::EventLog(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void EventLog::emit(double t_sim, EventSeverity sev, EventCategory cat, const char* name,
                    std::string detail, std::initializer_list<Event::KV> kv) {
  Event e;
  e.t_sim = t_sim;
  e.severity = sev;
  e.category = cat;
  e.name = name;
  e.detail = std::move(detail);
  std::size_t i = 0;
  for (const auto& p : kv) {
    if (i >= e.kv.size()) break;
    e.kv[i++] = p;
  }

  if (recorder_)
    recorder_->record_event(t_sim, static_cast<std::uint8_t>(sev),
                            static_cast<std::uint8_t>(cat), name, e.detail.c_str(),
                            e.kv[0].key, e.kv[0].value, e.kv[1].key, e.kv[1].value);

  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
  ++by_category_[static_cast<std::size_t>(cat)];
  ++by_severity_[static_cast<std::size_t>(sev)];
}

void EventLog::for_each(const std::function<void(const Event&)>& fn) const {
  for (std::size_t i = 0; i < ring_.size(); ++i)
    fn(ring_[(head_ + i) % ring_.size()]);
}

std::vector<Event> EventLog::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for_each([&](const Event& e) { out.push_back(e); });
  return out;
}

void EventLog::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
  by_category_.fill(0);
  by_severity_.fill(0);
}

void EventLog::declare_emitter(EventCategory cat, const char* who) {
  auto& v = emitters_[static_cast<std::size_t>(cat)];
  if (std::find(v.begin(), v.end(), who) == v.end()) v.emplace_back(who);
}

}  // namespace ascp::obs
