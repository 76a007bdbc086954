// span.hpp — causal spans: the "why did this happen" layer of the trace.
//
// Events (events.hpp) are points; spans are intervals with *ancestry*. Every
// span carries a (trace_id, span_id, parent_id) triple, so one Chrome trace
// can show the whole causal chain of a fleet incident: fleet.tick →
// channel_exception → incident → restart → restore_checkpoint → catch_up —
// each child hanging off the span that caused it.
//
// Discipline matches the rest of the obs layer:
//   * fixed-capacity ring, zero allocation on the record path (names are
//     copied into a fixed in-record buffer, never pointed at);
//   * single-writer — a SpanLog belongs to one simulation thread (each
//     channel owns one; the fleet supervisor owns another);
//   * read-only: nothing in the numeric path ever reads span state, so the
//     output stream is bit-identical with spans attached or detached.
//
// Open spans live in a small fixed table (not a stack): fleet incidents on
// different channels interleave, so end() addresses spans by id. When the
// table is full, begin() drops the span (counted) rather than allocating.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

namespace ascp::obs {

enum class SpanCategory : std::uint8_t {
  Channel = 0,    ///< channel.advance, gyro.run
  Scheduler = 1,  ///< timed frame-loop tasks, and gyro.run
  Fleet = 2,      ///< fleet tick + supervisor lifecycle edges
};

constexpr std::size_t kSpanCategoryCount = 3;
const char* span_category_name(SpanCategory c);

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span
  char name[24] = {};           ///< truncated copy — no lifetime coupling
  SpanCategory category = SpanCategory::Channel;
  double t_begin = 0.0;  ///< simulation time [s]
  double t_end = 0.0;
  double wall_us = 0.0;  ///< measured host cost (0 when not timed)
  /// Up to two key/value payload numbers; keys must be static literals.
  const char* k0 = nullptr;
  double v0 = 0.0;
  const char* k1 = nullptr;
  double v1 = 0.0;
};

class SpanLog {
 public:
  /// Sentinel for begin()/complete() parent: "whatever span is innermost
  /// open right now". Pass 0 to force a root span.
  static constexpr std::uint64_t kCurrentParent = ~0ull;
  static constexpr std::size_t kMaxOpenSpans = 16;

  explicit SpanLog(std::size_t capacity = 2048);

  /// All spans recorded here share one trace id (the channel seed, the fleet
  /// root seed, …) so a merged export can tell whose causality is whose.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  std::uint64_t trace_id() const { return trace_id_; }

  /// Open a span. Returns its id (0 when the open table was full and the
  /// span was dropped — end(0) is a safe no-op).
  std::uint64_t begin(const char* name, SpanCategory cat, double t_begin,
                      std::uint64_t parent = kCurrentParent);
  /// Close an open span and commit it to the ring. False when `id` is 0 or
  /// unknown (already closed / dropped at begin).
  bool end(std::uint64_t id, double t_end, double wall_us = 0.0);
  /// Attach a key/value to a still-open span (first free of the two slots).
  void annotate(std::uint64_t id, const char* key, double value);
  /// One-shot completed span, committed immediately.
  std::uint64_t complete(const char* name, SpanCategory cat, double t_begin, double t_end,
                         double wall_us = 0.0, std::uint64_t parent = kCurrentParent);

  /// Innermost (most recently begun) span still open; 0 when none.
  std::uint64_t current() const;
  std::size_t open_depth() const { return open_count_; }

  std::size_t capacity() const { return capacity_; }
  /// Completed spans currently retained in the ring.
  std::size_t size() const { return ring_.size(); }
  /// Completed spans ever recorded (including overwritten ones).
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }
  /// Spans begin() refused because the open table was full.
  std::uint64_t open_dropped() const { return open_dropped_; }
  std::uint64_t count(SpanCategory c) const {
    return by_category_[static_cast<std::size_t>(c)];
  }

  /// Visit retained completed spans oldest → newest.
  void for_each(const std::function<void(const Span&)>& fn) const;

  void clear();

 private:
  struct OpenSlot {
    Span span;
    std::uint64_t order = 0;  ///< begin sequence, for current()
    bool used = false;
  };

  void commit(Span&& s);

  std::uint64_t trace_id_ = 0;
  std::size_t capacity_;
  std::vector<Span> ring_;  ///< grows to capacity_, then wraps via head_
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t open_seq_ = 0;
  std::uint64_t open_dropped_ = 0;
  std::array<std::uint64_t, kSpanCategoryCount> by_category_{};
  std::array<OpenSlot, kMaxOpenSpans> open_{};
  std::size_t open_count_ = 0;
};

/// RAII guard around begin()/end(): exceptions inside the guarded region
/// still close the span (at its begin time), so repeated failures can never
/// leak the fixed open table. Null log → every operation is a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, SpanCategory cat, double t_begin)
      : log_(log), t_begin_(t_begin) {
    if (log_) id_ = log_->begin(name, cat, t_begin);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ && id_) log_->end(id_, t_begin_);
  }

  std::uint64_t id() const { return id_; }
  void annotate(const char* key, double value) {
    if (log_ && id_) log_->annotate(id_, key, value);
  }
  /// Normal-path close with the real end time (and optional wall cost).
  void close(double t_end, double wall_us = 0.0) {
    if (log_ && id_) log_->end(id_, t_end, wall_us);
    id_ = 0;
  }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
  double t_begin_;
};

}  // namespace ascp::obs
