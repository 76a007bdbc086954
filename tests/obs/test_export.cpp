// Exporter tests: text report sections, JSON structural validity (balanced
// braces/brackets outside string literals, keys present, non-finite values
// sanitized) and Chrome-trace invariants (monotonic timestamps, required
// phases) — the same properties Perfetto's loader enforces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "platform/engine/conditioning_channel.hpp"

namespace ascp::obs {
namespace {

/// Structural JSON check: quotes pair up, braces/brackets balance outside
/// strings and never go negative. Catches truncation and escaping bugs
/// without a full parser.
void expect_balanced_json(const std::string& js) {
  long brace = 0, bracket = 0;
  bool in_str = false, esc = false;
  for (const char c : js) {
    if (esc) {
      esc = false;
      continue;
    }
    if (in_str) {
      if (c == '\\') esc = true;
      else if (c == '"') in_str = false;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_str) << "unterminated string literal";
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

/// All "ts":<num> values in emission order.
std::vector<double> timestamps(const std::string& js) {
  std::vector<double> ts;
  std::size_t pos = 0;
  while ((pos = js.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    ts.push_back(std::atof(js.c_str() + pos));
  }
  return ts;
}

/// A small populated observability bundle shared by the tests below.
struct Fixture {
  MetricRegistry metrics;
  EventLog events;
  SpanLog spans;
  TaskProfiler tasks;
  McuProfiler mcu;

  Fixture() {
    metrics.add(metrics.counter("gyro.output_samples"), 187.0);
    metrics.set(metrics.gauge("agc.gain"), 1.25);
    const auto h = metrics.histogram("gyro.output_v");
    for (int i = 0; i < 32; ++i) metrics.observe(h, 2.0 + 0.01 * i);

    events.emit(0.01, EventSeverity::Info, EventCategory::Pll, "pll_lock", {},
                {{"freq_hz", 15e3}});
    events.emit(0.02, EventSeverity::Warn, EventCategory::Pll, "pll_lock_loss");
    events.emit(0.05, EventSeverity::Error, EventCategory::Dtc, "dtc_latch", "DTC_PLL_UNLOCK");

    tasks.set_base_rate(1000.0);
    tasks.set_span_log(&spans);
    const int a = tasks.register_task("afe", 1, 0);
    const int b = tasks.register_task("dsp", 8, 7);
    for (long t = 0; t < 64; ++t) {
      tasks.record(a, t, 1, 1e-7);
      if (t % 8 == 7) tasks.record(b, t, 1, 3e-7);
    }
    tasks.record_run(0.064, 0.001);

    mcu.record_exec(0x0000, 0x90, 2, 2);   // MOV DPTR
    mcu.record_exec(0x0003, 0xF0, 2, 4);   // MOVX
    mcu.record_exec(0x0004, 0x80, 2, 6);   // SJMP
  }
};

TEST(Export, TextReportHasAllSections) {
  Fixture fx;
  const auto report =
      text_report(fx.metrics.snapshot(), &fx.events, &fx.tasks, &fx.mcu);
  EXPECT_NE(report.find("== metrics =="), std::string::npos);
  EXPECT_NE(report.find("== events =="), std::string::npos);
  EXPECT_NE(report.find("== scheduler =="), std::string::npos);
  EXPECT_NE(report.find("== mcu =="), std::string::npos);
  EXPECT_NE(report.find("gyro.output_samples"), std::string::npos);
  EXPECT_NE(report.find("pll_lock_loss"), std::string::npos);
  EXPECT_NE(report.find("dsp"), std::string::npos);
}

TEST(Export, TextReportOmitsNullSections) {
  Fixture fx;
  const auto report = text_report(fx.metrics.snapshot());
  EXPECT_NE(report.find("== metrics =="), std::string::npos);
  EXPECT_EQ(report.find("== events =="), std::string::npos);
  EXPECT_EQ(report.find("== scheduler =="), std::string::npos);
  EXPECT_EQ(report.find("== mcu =="), std::string::npos);
}

TEST(Export, JsonSnapshotIsStructurallyValid) {
  Fixture fx;
  const auto js = json_snapshot(fx.metrics.snapshot(), &fx.events, &fx.tasks, &fx.mcu);
  expect_balanced_json(js);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  for (const char* key : {"\"metrics\"", "\"counters\"", "\"gauges\"", "\"histograms\"",
                          "\"events\"", "\"scheduler\"", "\"mcu\"", "\"recent\""})
    EXPECT_NE(js.find(key), std::string::npos) << key;
}

TEST(Export, JsonSanitizesNonFiniteValues) {
  MetricRegistry reg;
  reg.set(reg.gauge("bad"), std::nan(""));
  reg.set(reg.gauge("worse"), HUGE_VAL);
  const auto js = json_snapshot(reg.snapshot());
  expect_balanced_json(js);
  EXPECT_EQ(js.find("nan"), std::string::npos);
  EXPECT_EQ(js.find("inf"), std::string::npos);
}

TEST(Export, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  // Control characters must not leak raw into the output.
  const auto esc = json_escape(std::string("x\x01y", 3));
  EXPECT_EQ(esc.find('\x01'), std::string::npos);
}

TEST(Export, ChromeTraceTimestampsMonotonic) {
  Fixture fx;
  const auto js = chrome_trace_json(fx.tasks, &fx.events, &fx.spans);
  expect_balanced_json(js);
  EXPECT_NE(js.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  // Every phase kind present: metadata, duration slices, event instants.
  EXPECT_NE(js.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"i\""), std::string::npos);
  const auto ts = timestamps(js);
  ASSERT_GT(ts.size(), 4u);
  for (std::size_t i = 1; i < ts.size(); ++i)
    ASSERT_GE(ts[i], ts[i - 1]) << "trace event " << i << " goes backwards";
}

/// One drawn slice of a Chrome trace: its track (tid) and its span id.
using Drawn = std::pair<long, std::uint64_t>;

/// The "X" slices of category `cat` (each trace event is one line).
std::vector<Drawn> drawn(const std::string& js, const std::string& cat) {
  std::vector<Drawn> out;
  std::size_t begin = 0;
  while (begin < js.size()) {
    std::size_t end = js.find('\n', begin);
    if (end == std::string::npos) end = js.size();
    const std::string line = js.substr(begin, end - begin);
    begin = end + 1;
    if (line.find("\"ph\":\"X\"") == std::string::npos ||
        line.find("\"cat\":\"" + cat + "\"") == std::string::npos)
      continue;
    const std::size_t tid = line.find("\"tid\":");
    const std::size_t id = line.find("\"span_id\":\"");
    EXPECT_NE(tid, std::string::npos) << line;
    EXPECT_NE(id, std::string::npos) << line;
    if (tid == std::string::npos || id == std::string::npos) continue;
    out.push_back({std::atol(line.c_str() + tid + 6),
                   std::strtoull(line.c_str() + id + 11, nullptr, 10)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Export, ObservedChannelTraceDrawsEachTimedFiringOnce) {
  // A GyroSystem channel (tasks analog, dsp_frame) and an analog baseline
  // (analog, conditioning, daq_output), each observed long enough that the
  // span ring wraps.
  for (const engine::ChannelKind kind :
       {engine::ChannelKind::GyroIdeal, engine::ChannelKind::Adxrs300}) {
    const bool gyro = kind == engine::ChannelKind::GyroIdeal;
    SCOPED_TRACE(gyro ? "GyroIdeal" : "Adxrs300");
    engine::ChannelConfig cfg;
    cfg.kind = kind;
    cfg.with_obs = true;
    engine::ConditioningChannel ch(cfg);
    const long chunk = std::lround(0.05 * ch.base_rate_hz());
    for (int i = 0; i < 12; ++i) ch.advance(chunk);  // 0.6 s: the span ring wraps
    const Observability& o = *ch.observability();
    ASSERT_GT(o.spans.dropped(), 0u);
    ASSERT_EQ(o.tasks.task_count(), gyro ? 2u : 3u);

    // What the ring holds: timed firings (Scheduler spans named after a
    // task) and the rest of the Scheduler track (a GyroSystem's gyro.run
    // spans).
    std::vector<Drawn> firings, others;
    o.spans.for_each([&](const Span& s) {
      if (s.category != SpanCategory::Scheduler) return;
      for (std::size_t id = 0; id < o.tasks.task_count(); ++id)
        if (o.tasks.task_name(static_cast<int>(id)) == s.name) {
          firings.push_back({static_cast<long>(id) + 1, s.span_id});
          return;
        }
      EXPECT_STREQ(s.name, "gyro.run");
      others.push_back({201, s.span_id});
    });
    std::sort(firings.begin(), firings.end());
    std::sort(others.begin(), others.end());
    ASSERT_FALSE(firings.empty());
    EXPECT_EQ(others.empty(), !gyro);
    for (const long tid : {1L, 2L})  // analog, and dsp_frame or conditioning
      EXPECT_TRUE(std::any_of(firings.begin(), firings.end(),
                              [&](const Drawn& d) { return d.first == tid; }))
          << "no firing of task " << tid - 1;

    const std::string js = chrome_trace_json(o.tasks, &o.events, &o.spans);
    expect_balanced_json(js);
    EXPECT_EQ(drawn(js, "task"), firings);
    EXPECT_EQ(drawn(js, "span:scheduler"), others) << "a timed firing drawn twice";
  }
}

TEST(Export, ChromeTraceOfEmptyProfilerIsValid) {
  TaskProfiler tasks;
  const auto js = chrome_trace_json(tasks);
  expect_balanced_json(js);
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace ascp::obs
