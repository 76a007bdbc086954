#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace ascp::obs {

namespace {

std::string num(double v) {
  // JSON has no NaN/Inf literals; clamp pathological values to null-ish 0.
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// The trace/span/parent id args every drawn span carries, so the causal
/// chain can be rebuilt even after Perfetto re-sorts the slices.
std::string span_ids(const Span& s) {
  return "\"trace_id\":\"" + std::to_string(s.trace_id) + "\",\"span_id\":\"" +
         std::to_string(s.span_id) + "\",\"parent_id\":\"" + std::to_string(s.parent_id) +
         "\"";
}

/// The task a Scheduler span named after it (as truncated; the first if two
/// share a name) is a timed firing of; task_count() for any other span.
std::size_t task_of(const TaskProfiler& tasks, const Span& s) {
  if (s.category == SpanCategory::Scheduler)
    for (std::size_t id = 0; id < tasks.task_count(); ++id)
      if (std::string_view(tasks.stats()[id].name).substr(0, sizeof s.name - 1) == s.name)
        return id;
  return tasks.task_count();
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// text report
// ---------------------------------------------------------------------------

std::string text_report(const MetricsSnapshot& metrics, const EventLog* events,
                        const TaskProfiler* tasks, const McuProfiler* mcu,
                        const SpanLog* spans) {
  std::string out;

  if (!metrics.counters.empty() || !metrics.gauges.empty() || !metrics.histograms.empty()) {
    out += "== metrics ==\n";
    for (const auto& [name, v] : metrics.counters)
      appendf(out, "  counter  %-40s %.6g\n", name.c_str(), v);
    for (const auto& [name, v] : metrics.gauges)
      appendf(out, "  gauge    %-40s %.6g\n", name.c_str(), v);
    for (const auto& [name, st] : metrics.histograms)
      appendf(out,
              "  hist     %-40s n=%llu mean=%.4g p50=%.4g p95=%.4g p99=%.4g "
              "max=%.4g\n",
              name.c_str(), static_cast<unsigned long long>(st.count), st.mean(), st.p50,
              st.p95, st.p99, st.max);
  }

  if (events) {
    out += "== events ==\n";
    appendf(out, "  total=%llu retained=%zu dropped=%llu\n",
            static_cast<unsigned long long>(events->total()), events->size(),
            static_cast<unsigned long long>(events->dropped()));
    for (EventCategory c : kAllEventCategories) {
      if (events->count(c))
        appendf(out, "  %-10s %llu\n", category_name(c),
                static_cast<unsigned long long>(events->count(c)));
    }
    // Tail of the log — the most recent happenings.
    constexpr std::size_t kTail = 16;
    std::deque<const Event*> tail;
    events->for_each([&](const Event& e) {
      tail.push_back(&e);
      if (tail.size() > kTail) tail.pop_front();
    });
    for (const Event* e : tail) {
      appendf(out, "  [%12.6f] %-5s %-10s %s", e->t_sim, severity_name(e->severity),
              category_name(e->category), e->name);
      if (!e->detail.empty()) appendf(out, " (%s)", e->detail.c_str());
      for (const auto& kv : e->kv)
        if (kv.key) appendf(out, " %s=%.6g", kv.key, kv.value);
      out += "\n";
    }
  }

  if (tasks && tasks->task_count()) {
    out += "== scheduler ==\n";
    appendf(out, "  %-20s %10s %8s %12s %12s %10s\n", "task", "divider", "phase",
            "invocations", "wall[ms]", "us/call");
    for (const auto& t : tasks->stats()) {
      const double per_call_us =
          t.invocations ? t.wall_seconds / static_cast<double>(t.invocations) * 1e6 : 0.0;
      appendf(out, "  %-20s %10ld %8ld %12llu %12.3f %10.3f\n", t.name.c_str(), t.divider,
              t.phase, static_cast<unsigned long long>(t.invocations),
              t.wall_seconds * 1e3, per_call_us);
    }
    appendf(out, "  sim=%.6gs wall=%.6gs sim/wall=%.3f\n", tasks->sim_seconds(),
            tasks->wall_seconds(), tasks->sim_per_wall());
  }

  if (spans && spans->total()) {
    out += "== spans ==\n";
    appendf(out, "  total=%llu retained=%zu dropped=%llu open=%zu trace_id=%llu\n",
            static_cast<unsigned long long>(spans->total()), spans->size(),
            static_cast<unsigned long long>(spans->dropped()), spans->open_depth(),
            static_cast<unsigned long long>(spans->trace_id()));
    for (std::size_t c = 0; c < kSpanCategoryCount; ++c) {
      const auto cat = static_cast<SpanCategory>(c);
      if (spans->count(cat))
        appendf(out, "  %-10s %llu\n", span_category_name(cat),
                static_cast<unsigned long long>(spans->count(cat)));
    }
  }

  if (mcu && mcu->instructions()) {
    out += "== mcu ==\n";
    appendf(out, "  instructions=%llu cycles=%llu cpi=%.3f\n",
            static_cast<unsigned long long>(mcu->instructions()),
            static_cast<unsigned long long>(mcu->cycles()),
            static_cast<double>(mcu->cycles()) / static_cast<double>(mcu->instructions()));
    out += "  hot PCs:\n";
    for (const auto& p : mcu->top_pcs(10))
      appendf(out, "    0x%04X  %llu\n", p.pc, static_cast<unsigned long long>(p.count));
    out += "  hot opcodes (by cycles):\n";
    for (const auto& o : mcu->top_opcodes(10))
      appendf(out, "    0x%02X  n=%llu cycles=%llu\n", o.opcode,
              static_cast<unsigned long long>(o.count),
              static_cast<unsigned long long>(o.cycles));
    for (const auto& s : mcu->isr_stats())
      appendf(out, "  isr @0x%04X entries=%llu mean=%.1f max=%llu cycles\n", s.vector,
              static_cast<unsigned long long>(s.entries), s.mean_cycles(),
              static_cast<unsigned long long>(s.max_cycles));
  }

  return out;
}

// ---------------------------------------------------------------------------
// JSON snapshot
// ---------------------------------------------------------------------------

std::string json_snapshot(const MetricsSnapshot& metrics, const EventLog* events,
                          const TaskProfiler* tasks, const McuProfiler* mcu,
                          std::size_t event_tail) {
  std::string out = "{";

  out += "\"metrics\":{";
  out += "\"counters\":{";
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(metrics.counters[i].first) + "\":" + num(metrics.counters[i].second);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < metrics.gauges.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(metrics.gauges[i].first) + "\":" + num(metrics.gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    if (i) out += ",";
    const auto& [name, st] = metrics.histograms[i];
    out += "\"" + json_escape(name) + "\":{";
    out += "\"count\":" + std::to_string(st.count);
    out += ",\"sum\":" + num(st.sum);
    out += ",\"min\":" + num(st.min);
    out += ",\"max\":" + num(st.max);
    out += ",\"mean\":" + num(st.mean());
    out += ",\"p50\":" + num(st.p50);
    out += ",\"p95\":" + num(st.p95);
    out += ",\"p99\":" + num(st.p99);
    out += "}";
  }
  out += "}}";

  if (events) {
    out += ",\"events\":{";
    out += "\"total\":" + std::to_string(events->total());
    out += ",\"dropped\":" + std::to_string(events->dropped());
    out += ",\"by_category\":{";
    bool first = true;
    for (EventCategory c : kAllEventCategories) {
      if (!first) out += ",";
      first = false;
      out += "\"" + std::string(category_name(c)) + "\":" + std::to_string(events->count(c));
    }
    out += "},\"recent\":[";
    std::deque<const Event*> tail;
    events->for_each([&](const Event& e) {
      tail.push_back(&e);
      if (tail.size() > event_tail) tail.pop_front();
    });
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (i) out += ",";
      const Event& e = *tail[i];
      out += "{\"t\":" + num(e.t_sim);
      out += ",\"severity\":\"" + std::string(severity_name(e.severity)) + "\"";
      out += ",\"category\":\"" + std::string(category_name(e.category)) + "\"";
      out += ",\"name\":\"" + json_escape(e.name) + "\"";
      if (!e.detail.empty()) out += ",\"detail\":\"" + json_escape(e.detail) + "\"";
      std::string kvs;
      for (const auto& kv : e.kv) {
        if (!kv.key) continue;
        if (!kvs.empty()) kvs += ",";
        kvs += "\"" + json_escape(kv.key) + "\":" + num(kv.value);
      }
      if (!kvs.empty()) out += ",\"kv\":{" + kvs + "}";
      out += "}";
    }
    out += "]}";
  }

  if (tasks) {
    out += ",\"scheduler\":{";
    out += "\"sim_seconds\":" + num(tasks->sim_seconds());
    out += ",\"wall_seconds\":" + num(tasks->wall_seconds());
    out += ",\"sim_per_wall\":" + num(tasks->sim_per_wall());
    out += ",\"tasks\":[";
    const auto& stats = tasks->stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (i) out += ",";
      const auto& t = stats[i];
      out += "{\"name\":\"" + json_escape(t.name) + "\"";
      out += ",\"divider\":" + std::to_string(t.divider);
      out += ",\"phase\":" + std::to_string(t.phase);
      out += ",\"invocations\":" + std::to_string(t.invocations);
      out += ",\"wall_seconds\":" + num(t.wall_seconds);
      out += "}";
    }
    out += "]}";
  }

  if (mcu) {
    out += ",\"mcu\":{";
    out += "\"instructions\":" + std::to_string(mcu->instructions());
    out += ",\"cycles\":" + std::to_string(mcu->cycles());
    out += ",\"top_pcs\":[";
    const auto pcs = mcu->top_pcs(10);
    for (std::size_t i = 0; i < pcs.size(); ++i) {
      if (i) out += ",";
      out += "{\"pc\":" + std::to_string(pcs[i].pc) +
             ",\"count\":" + std::to_string(pcs[i].count) + "}";
    }
    out += "],\"top_opcodes\":[";
    const auto ops = mcu->top_opcodes(10);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i) out += ",";
      out += "{\"opcode\":" + std::to_string(ops[i].opcode) +
             ",\"count\":" + std::to_string(ops[i].count) +
             ",\"cycles\":" + std::to_string(ops[i].cycles) + "}";
    }
    out += "],\"isrs\":[";
    const auto isrs = mcu->isr_stats();
    for (std::size_t i = 0; i < isrs.size(); ++i) {
      if (i) out += ",";
      out += "{\"vector\":" + std::to_string(isrs[i].vector) +
             ",\"entries\":" + std::to_string(isrs[i].entries) +
             ",\"cycles\":" + std::to_string(isrs[i].cycles) +
             ",\"max_cycles\":" + std::to_string(isrs[i].max_cycles) + "}";
    }
    out += "]}";
  }

  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

std::string span_trace_event(const Span& s, int tid_base) {
  const double ts = s.t_begin * 1e6;
  const double dur = std::max(0.0, (s.t_end - s.t_begin) * 1e6);
  std::string args = span_ids(s);
  if (s.wall_us > 0.0) args += ",\"wall_us\":" + num(s.wall_us);
  if (s.k0) args += ",\"" + json_escape(s.k0) + "\":" + num(s.v0);
  if (s.k1) args += ",\"" + json_escape(s.k1) + "\":" + num(s.v1);
  return "{\"ph\":\"X\",\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"span:" +
         span_category_name(s.category) + "\",\"pid\":1,\"tid\":" +
         std::to_string(tid_base + static_cast<int>(s.category)) + ",\"ts\":" + num(ts) +
         ",\"dur\":" + num(dur) + ",\"args\":{" + args + "}}";
}

std::string chrome_trace_json(const TaskProfiler& tasks, const EventLog* events,
                              const SpanLog* spans) {
  struct Entry {
    double ts;
    int order;  ///< secondary key: metadata first, then slices, then instants
    std::string json;
  };
  std::vector<Entry> entries;

  const double rate = tasks.base_rate() > 0.0 ? tasks.base_rate() : 1.0;
  const double tick_us = 1e6 / rate;

  // One trace "thread" per task, named via metadata events at ts 0.
  for (std::size_t id = 0; id < tasks.task_count(); ++id) {
    const auto& t = tasks.stats()[id];
    std::string j = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
                    std::to_string(id + 1) + ",\"ts\":0,\"args\":{\"name\":\"" +
                    json_escape(t.name) + "\"}}";
    entries.push_back({0.0, 0, std::move(j)});
  }
  if (events)
    entries.push_back(
        {0.0, 0,
         "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":100,\"ts\":0,"
         "\"args\":{\"name\":\"events\"}}"});
  if (spans) {
    for (std::size_t c = 0; c < kSpanCategoryCount; ++c) {
      std::string j =
          "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
          std::to_string(200 + static_cast<int>(c)) + ",\"ts\":0,\"args\":{\"name\":\"spans:" +
          std::string(span_category_name(static_cast<SpanCategory>(c))) + "\"}}";
      entries.push_back({0.0, 0, std::move(j)});
    }
  }

  // Structured events as instants on the shared "events" track.
  if (events) {
    events->for_each([&](const Event& e) {
      const double ts = e.t_sim * 1e6;
      std::string args = "\"severity\":\"" + std::string(severity_name(e.severity)) + "\"";
      if (!e.detail.empty()) args += ",\"detail\":\"" + json_escape(e.detail) + "\"";
      for (const auto& kv : e.kv)
        if (kv.key) args += ",\"" + json_escape(kv.key) + "\":" + num(kv.value);
      std::string j = "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"" + json_escape(e.name) +
                      "\",\"cat\":\"" + category_name(e.category) +
                      "\",\"pid\":1,\"tid\":100,\"ts\":" + num(ts) + ",\"args\":{" + args +
                      "}}";
      entries.push_back({ts, 2, std::move(j)});
    });
  }

  // Causal spans as duration slices, one track per span category, except a
  // timed task: it goes on its task's track, drawn over a fixed fraction of
  // the task period, or of the ticks the record covers when more (an analog
  // record covers a timed frame's ticks), so consecutive slices never
  // overlap.
  if (spans) {
    spans->for_each([&](const Span& s) {
      const double ts = s.t_begin * 1e6;
      const std::size_t id = task_of(tasks, s);
      if (id == tasks.task_count()) {
        entries.push_back({ts, 1, span_trace_event(s)});
        return;
      }
      const auto& t = tasks.stats()[id];
      const double dur =
          0.8 * std::max(static_cast<double>(t.divider) * tick_us, (s.t_end - s.t_begin) * 1e6);
      entries.push_back({ts, 1,
                         "{\"ph\":\"X\",\"name\":\"" + json_escape(t.name) +
                             "\",\"cat\":\"task\",\"pid\":1,\"tid\":" + std::to_string(id + 1) +
                             ",\"ts\":" + num(ts) + ",\"dur\":" + num(dur) + ",\"args\":{" +
                             span_ids(s) + ",\"wall_us\":" + num(s.wall_us) + "}}"});
    });
  }

  std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.order < b.order;
  });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) out += ",\n";
    out += entries[i].json;
  }
  out += "]}\n";
  return out;
}

}  // namespace ascp::obs
