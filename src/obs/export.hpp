// export.hpp — serialize observability state for humans and tools.
//
// Three formats:
//   text_report       — human-readable digest (platform_top, CI logs)
//   json_snapshot     — machine-readable snapshot (bench BENCH_*.json embeds)
//   chrome_trace_json — Chrome trace_event array; load in Perfetto or
//                       chrome://tracing. Timestamps are *simulation* time in
//                       microseconds: spans become "X" duration slices, the
//                       timed task firings among them on one track per task
//                       (length drawn from sim time, wall cost in args),
//                       structured events become "i" instants.
//
// All emitters are pure functions of already-collected state; exporting
// never mutates the profilers.
#pragma once

#include <string>

#include "obs/events.hpp"
#include "obs/mcu_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"

namespace ascp::obs {

/// Human-readable multi-section report. Null sections are omitted.
std::string text_report(const MetricsSnapshot& metrics, const EventLog* events = nullptr,
                        const TaskProfiler* tasks = nullptr,
                        const McuProfiler* mcu = nullptr, const SpanLog* spans = nullptr);

/// One JSON object: {"metrics":…, "events":…, "scheduler":…, "mcu":…}.
/// Null sections are omitted; `event_tail` bounds the "recent" event array.
std::string json_snapshot(const MetricsSnapshot& metrics, const EventLog* events = nullptr,
                          const TaskProfiler* tasks = nullptr,
                          const McuProfiler* mcu = nullptr, std::size_t event_tail = 32);

/// Chrome trace_event JSON ({"traceEvents":[…]}), sorted by ascending
/// timestamp (sim µs). Loadable by Perfetto / chrome://tracing. Spans
/// become "X" slices (one track per span category) carrying their
/// trace/span/parent ids in args — the causal chain of a fleet incident
/// reads straight off the trace. A Scheduler span named after one of
/// `tasks`' tasks is a timed firing: it is drawn on that task's track only.
std::string chrome_trace_json(const TaskProfiler& tasks, const EventLog* events = nullptr,
                              const SpanLog* spans = nullptr);

/// One Chrome trace_event "X" JSON object for a span (no trailing comma).
/// Shared by chrome_trace_json and the blackbox exporter so both render
/// spans identically.
std::string span_trace_event(const Span& s, int tid_base = 200);

/// Escape a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace ascp::obs
