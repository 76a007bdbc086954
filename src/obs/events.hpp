// events.hpp — structured, sim-timestamped event log.
//
// Waveforms (TraceRecorder) answer "what did the signal do"; the event log
// answers "what *happened*": PLL lock/lock-loss/relock, AGC settling,
// supervisor state transitions, DTC latch/clear, watchdog bites, fault
// campaign inject/remove. Events carry the simulation timestamp, a severity,
// a category, a static name, an optional free-form detail string and up to
// four key/value payload numbers — enough structure for digests, JSON export
// and the Chrome-trace instant track without an allocation-per-field schema.
//
// The log is a fixed-capacity ring: a runaway emitter can never exhaust
// memory, and `dropped()` reports how many events the ring overwrote.
// Single-writer by design — each simulation channel owns its log (the farm
// gives every channel its own), so emission needs no synchronization.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace ascp::obs {

class FlightRecorder;

enum class EventSeverity : std::uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

// The values are the category bytes of `.blackbox` flight records: none is
// renumbered or reused. 6 is retired (it named a pipeline run's begin/end
// events, which repeated the run's gyro.run span), so an old record with
// that byte decodes with category "?".
enum class EventCategory : std::uint8_t {
  Pll = 0,         ///< lock / lock-loss / relock
  Agc = 1,         ///< amplitude-loop settling
  Supervisor = 2,  ///< arming, state transitions, self-test verdicts
  Dtc = 3,         ///< trouble-code latch / clear
  Watchdog = 4,    ///< watchdog bite
  Fault = 5,       ///< campaign inject / remove
  Mcu = 7,         ///< firmware-level events (recovery path, ISR anomalies)
  Engine = 8,      ///< fleet runtime: stall/crash detection, restart, quarantine
  Probe = 9,       ///< stimulus/probe seam: probe attach, ingestion underrun
  Trace = 10,      ///< causal-span layer: trace begin, span-ring pressure
  Recorder = 11,   ///< flight recorder: attach, blackbox dump
};

/// One past the largest category value: the size of a per-category table.
inline constexpr std::size_t kEventCategorySlots = 12;

inline constexpr std::array kAllEventCategories = {
    EventCategory::Pll,   EventCategory::Agc,      EventCategory::Supervisor,
    EventCategory::Dtc,   EventCategory::Watchdog, EventCategory::Fault,
    EventCategory::Mcu,   EventCategory::Engine,   EventCategory::Probe,
    EventCategory::Trace, EventCategory::Recorder};

const char* severity_name(EventSeverity s);
const char* category_name(EventCategory c);

struct Event {
  struct KV {
    const char* key = nullptr;  ///< static literal; nullptr = unused slot
    double value = 0.0;
  };

  double t_sim = 0.0;  ///< simulation time [s]
  EventSeverity severity = EventSeverity::Info;
  EventCategory category = EventCategory::Pll;
  const char* name = "";  ///< static literal naming the event type
  std::string detail;     ///< free-form (DTC mnemonic, fault name, …)
  std::array<KV, 4> kv{};
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 4096);

  void emit(double t_sim, EventSeverity sev, EventCategory cat, const char* name,
            std::string detail = {}, std::initializer_list<Event::KV> kv = {});

  std::size_t capacity() const { return capacity_; }
  /// Events currently retained in the ring.
  std::size_t size() const { return ring_.size(); }
  /// Events ever emitted (including overwritten ones).
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }

  std::uint64_t count(EventCategory c) const {
    return by_category_[static_cast<std::size_t>(c)];
  }
  std::uint64_t count(EventSeverity s) const {
    return by_severity_[static_cast<std::size_t>(s)];
  }

  /// Visit retained events oldest → newest.
  void for_each(const std::function<void(const Event&)>& fn) const;
  /// Retained events oldest → newest (copy).
  std::vector<Event> events() const;

  void clear();

  // ---- flight-recorder tee -------------------------------------------------
  /// Every subsequent emit() is also written into `fr` (null detaches). This
  /// is how supervisor/DTC/engine transitions reach the black-box ring
  /// without a second emission site per event.
  void set_flight_recorder(FlightRecorder* fr) { recorder_ = fr; }
  FlightRecorder* flight_recorder() const { return recorder_; }

  // ---- emitter coverage (platform_lint --events) ---------------------------
  // Instrumented components declare, at attach time, which categories they
  // emit. The static checker verifies every enumerator has a claimant in the
  // fully assembled platform — an un-emittable category is dead vocabulary.
  void declare_emitter(EventCategory cat, const char* who);
  bool emitter_declared(EventCategory cat) const {
    return !emitters_[static_cast<std::size_t>(cat)].empty();
  }
  /// Claimants of a category ("GyroSystem", "SafetySupervisor", …).
  const std::vector<std::string>& emitters(EventCategory cat) const {
    return emitters_[static_cast<std::size_t>(cat)];
  }

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;  ///< grows to capacity_, then wraps via head_
  std::size_t head_ = 0;     ///< index of the oldest event once wrapped
  std::uint64_t total_ = 0;
  FlightRecorder* recorder_ = nullptr;
  std::array<std::uint64_t, kEventCategorySlots> by_category_{};
  std::array<std::uint64_t, 4> by_severity_{};
  std::array<std::vector<std::string>, kEventCategorySlots> emitters_{};
};

}  // namespace ascp::obs
