// flight_recorder.hpp — per-channel black-box ring: the last N things that
// happened, retained at crash time.
//
// The aggregate layers (metrics, profiler) answer "how much"; the flight
// recorder answers "what, just before it died". It is a fixed-capacity ring
// of POD records — structured events (teed from the channel's EventLog, so
// supervisor/DTC transitions land here automatically), per-advance metric
// deltas, and decimated probe-tap samples — cheap enough to leave armed on
// every channel of a fleet, like an automotive EDR.
//
// Record-path contract, proven by tests/footprint: zero allocations. The ring
// is pre-reserved at construction; names and details are copied into fixed
// in-record buffers (truncating, never pointing), so a record can outlive
// every object that produced it — which is exactly what a .blackbox dump
// needs.
//
// Single-writer, read-only, bit-neutral: same discipline as EventLog.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

namespace ascp::obs {

enum class FlightKind : std::uint8_t {
  Event = 0,        ///< teed structured event (severity/category preserved)
  MetricDelta = 1,  ///< per-advance counter delta (outputs, drops, underruns)
  ProbeSample = 2,  ///< decimated chain-tap sample (ProbePoint in `category`)
};

constexpr std::size_t kFlightKindCount = 3;
const char* flight_kind_name(FlightKind k);

struct FlightRecord {
  double t_sim = 0.0;
  FlightKind kind = FlightKind::Event;
  std::uint8_t severity = 0;  ///< EventSeverity (Event records)
  std::uint8_t category = 0;  ///< EventCategory (Event) / ProbePoint (ProbeSample)
  std::int64_t tick = 0;      ///< global base tick (ProbeSample records)
  char name[24] = {};         ///< event/metric name (truncated copy)
  char detail[40] = {};       ///< event detail (truncated copy)
  double a = 0.0;             ///< probe payload a / metric delta
  double b = 0.0;             ///< probe payload b
  /// First two event key/values (keys are static literals by the EventLog
  /// contract, so the pointers are safe to retain).
  const char* k0 = nullptr;
  double v0 = 0.0;
  const char* k1 = nullptr;
  double v1 = 0.0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 2048);

  void record_event(double t_sim, std::uint8_t severity, std::uint8_t category,
                    const char* name, const char* detail, const char* k0 = nullptr,
                    double v0 = 0.0, const char* k1 = nullptr, double v1 = 0.0);
  void record_metric(double t_sim, const char* name, double delta);
  void record_probe(double t_sim, std::uint8_t point, std::int64_t tick, double a, double b);

  std::size_t capacity() const { return capacity_; }
  /// Records currently retained in the ring.
  std::size_t size() const { return ring_.size(); }
  /// Records ever written (including overwritten ones).
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }
  std::uint64_t count(FlightKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }

  /// Visit retained records oldest → newest.
  void for_each(const std::function<void(const FlightRecord&)>& fn) const;

  void clear();

 private:
  FlightRecord& next_slot();

  std::size_t capacity_;
  std::vector<FlightRecord> ring_;  ///< grows to capacity_, then wraps via head_
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kFlightKindCount> by_kind_{};
};

}  // namespace ascp::obs
