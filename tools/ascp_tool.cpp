// ascp_tool — one CLI for the platform's framed containers: `.ckpt` channel
// checkpoints, `.strace` stimulus traces and `.blackbox` crash images. Every
// verb that reads a file picks the container from its magic.
//
//   inspect FILE       frame header + CRC verdict, then the payload summary:
//                      a checkpoint's stimulus kind/cursor, a trace's rate
//                      range, a blackbox's crash context
//   diff A B           two files of one kind: differing header fields, a
//                      checkpoint's stimulus kind/cursor, a trace's first
//                      differing sample, the first differing payload byte
//   capture SCENARIO OUT [--at F]
//                      checkpoint a conformance scenario at fraction F
//                      (default 0.5) of its duration
//   record SCENARIO OUT [--decimate N]
//                      record the scenario's stimulus through a
//                      StimulusRecorder probe, every Nth analog tick
//                      (default 1 — the bit-exact setting for replay)
//   replay FILE [SCENARIO] [--verbose]
//                      a blackbox replays alone: rebuild the crashed channel,
//                      restore its embedded checkpoint (a corrupt one demotes
//                      to a cold replay, as in the fleet supervisor) and
//                      compare the output hash at the crash tick; a trace
//                      replays in place of SCENARIO's synthetic stimulus and
//                      must reproduce the synthetic run's output hash
//   export FILE [--json OUT] [--trace OUT]
//                      a blackbox as a JSON dump and/or a Chrome trace of its
//                      causal spans with recorder records as instants
//
// Exit codes: 0 ok / identical / reproduced; 1 bad frame / different /
// diverged; 2 usage error or unreadable file.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/frame.hpp"
#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "obs/export.hpp"
#include "platform/engine/blackbox.hpp"
#include "platform/engine/fleet.hpp"
#include "sensor/stimulus_source.hpp"

using namespace ascp;
using namespace ascp::engine;
using sensor::kStraceFrame;

namespace {

constexpr const frame::Format* kFormats[] = {&kCheckpointFrame, &kStraceFrame,
                                              &kBlackboxFrame};

/// A file read from disk and identified by its magic.
struct Input {
  std::vector<std::uint8_t> bytes;
  const frame::Format* format = nullptr;
  frame::Header header;

  bool is(const frame::Format& f) const { return format == &f; }
};

/// 0 when `path` holds a framed container, 1 when it does not, 2 when it
/// cannot be read (after saying why).
int load(const char* path, Input* in) {
  try {
    in->bytes = frame::read_file(path);
  } catch (const StateError& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return 2;
  }
  for (const frame::Format* f : kFormats)
    if (frame::inspect(*f, in->bytes, &in->header)) {
      in->format = f;
      return 0;
    }
  std::printf("%s: not a framed container (bad magic or truncated header, %zu bytes)\n", path,
              in->bytes.size());
  return 1;
}

std::string fmt(const char* format, auto... args) {
  char buf[128];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// The header fields a reader cares about, rendered for inspect and diff.
std::vector<std::pair<const char*, std::string>> header_fields(const Input& in) {
  const frame::Header& h = in.header;
  std::vector<std::pair<const char*, std::string>> out = {
      {"version", std::to_string(h.version) +
                      (h.version == in.format->version ? "" : " (unsupported)")}};
  if (in.is(kStraceFrame)) {
    const double rate = std::bit_cast<double>(h.meta.wide);
    out.push_back({"interp", h.meta.word == 0 ? "hold" : h.meta.word == 1 ? "linear" : "unknown"});
    out.push_back({"sample rate", fmt("%.17g Hz", rate)});
    out.push_back({"samples", fmt("%llu (%.6g s)", static_cast<unsigned long long>(h.length),
                                  rate > 0.0 ? static_cast<double>(h.length) / rate : 0.0)});
  } else {
    out.push_back({"kind", fmt("%u (%s)", h.meta.word,
                               channel_kind_name(static_cast<ChannelKind>(h.meta.word)))});
    out.push_back({"length", fmt("%llu bytes", static_cast<unsigned long long>(h.length))});
  }
  return out;
}

// A checkpoint's stimulus-source summary sits at fixed CHAN-section offsets
// (payload 20: kind u32, payload 24: cursor i64), readable without building
// a channel.
bool stimulus_summary(const Input& in, std::uint32_t* kind, std::int64_t* cursor) {
  const std::size_t at = kCheckpointFrame.header_size();
  if (!in.is(kCheckpointFrame) || in.header.version != kCheckpointFrame.version ||
      in.bytes.size() < at + 32 || std::memcmp(in.bytes.data() + at, "CHAN", 4) != 0)
    return false;
  StateArchive ar = StateArchive::loader(in.bytes.data() + at + 20, 12);
  ar.value(*kind);
  ar.value(*cursor);
  return true;
}

const char* stimulus_name(std::uint32_t kind) {
  return sensor::stimulus_kind_name(static_cast<sensor::StimulusKind>(kind));
}

// ---- inspect ---------------------------------------------------------------

void print_trace_summary(const sensor::StimulusTrace& trace) {
  const auto [lo, hi] = std::minmax_element(
      trace.samples.begin(), trace.samples.end(),
      [](const auto& x, const auto& y) { return x.rate_dps < y.rate_dps; });
  if (lo != trace.samples.end())
    std::printf("  rate range:  [%.6g, %.6g] dps\n", lo->rate_dps, hi->rate_dps);
}

void print_blackbox_summary(const BlackboxImage& img) {
  std::printf("  channel:     #%llu seed %llu\n",
              static_cast<unsigned long long>(img.channel_index),
              static_cast<unsigned long long>(img.seed));
  std::printf("  fleet tick:  %lld  health %s  restarts %d  dtcs 0x%04X\n",
              static_cast<long long>(img.fleet_tick),
              channel_health_name(static_cast<ChannelHealth>(img.health)), img.restarts,
              img.dtcs);
  std::printf("  reason:      %s\n", img.reason.empty() ? "(none)" : img.reason.c_str());
  std::printf("  crash:       tick %lld, hash %016llx, %llu outputs\n",
              static_cast<long long>(img.crash_ticks),
              static_cast<unsigned long long>(img.crash_hash),
              static_cast<unsigned long long>(img.crash_outputs));
  std::printf("  checkpoint:  %zu bytes at tick %lld%s\n", img.checkpoint.size(),
              static_cast<long long>(img.checkpoint_tick),
              img.checkpoint.empty() ? " (none — cold replay)" : "");
  std::printf("  recorder:    %zu records\n", img.records.size());
  std::printf("  spans:       %zu channel, %zu fleet\n", img.channel_spans.size(),
              img.fleet_spans.size());
  std::printf("  metrics:     %zu counters, %zu gauges\n", img.counters.size(),
              img.gauges.size());
}

int cmd_inspect(const char* path) {
  Input in;
  if (const int rc = load(path, &in)) return rc;
  std::printf("%s: %s (file %zu bytes)\n", path, in.format->name, in.bytes.size());
  for (const auto& [label, value] : header_fields(in))
    std::printf("  %-12s %s\n", (std::string(label) + ":").c_str(), value.c_str());
  std::printf("  crc32:       %08X  %s\n", in.header.crc, in.header.crc_ok ? "OK" : "MISMATCH");
  if (!in.header.crc_ok || in.header.version != in.format->version) return 1;
  try {
    std::uint32_t kind = 0;
    std::int64_t cursor = -1;
    if (stimulus_summary(in, &kind, &cursor))
      std::printf("  stimulus:    %u (%s), cursor %lld\n", kind, stimulus_name(kind),
                  static_cast<long long>(cursor));
    if (in.is(kStraceFrame)) print_trace_summary(sensor::decode_strace(in.bytes));
    if (in.is(kBlackboxFrame)) print_blackbox_summary(decode_blackbox(in.bytes));
  } catch (const StateError& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return 1;
  }
  return 0;
}

// ---- diff ------------------------------------------------------------------

/// Trace sample `i`, read straight from the payload; false past the end.
bool sample_at(const Input& in, std::size_t i, sensor::StimulusSample* s) {
  const std::size_t at = kStraceFrame.header_size() + kStraceFrame.unit * i;
  if (in.bytes.size() < at + kStraceFrame.unit) return false;
  StateArchive ar = StateArchive::loader(in.bytes.data() + at, kStraceFrame.unit);
  ar.value(s->rate_dps);
  ar.value(s->temp_c);
  return true;
}

int cmd_diff(const char* path_a, const char* path_b) {
  Input a, b;
  const int rc_a = load(path_a, &a), rc_b = load(path_b, &b);
  if (rc_a || rc_b) return std::max(rc_a, rc_b);
  if (a.format != b.format) {
    std::printf("kind: %s vs %s\ndifferent\n", a.format->name, b.format->name);
    return 1;
  }
  bool same = true;
  const auto fa = header_fields(a), fb = header_fields(b);
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (fa[i].second != fb[i].second) {
      std::printf("%s: %s vs %s\n", fa[i].first, fa[i].second.c_str(), fb[i].second.c_str());
      same = false;
    }
  if (a.header.crc != b.header.crc) {
    std::printf("crc32: %08X vs %08X\n", a.header.crc, b.header.crc);
    same = false;
  }

  std::uint32_t ka = 0, kb = 0;
  std::int64_t ca = -1, cb = -1;
  if (stimulus_summary(a, &ka, &ca) && stimulus_summary(b, &kb, &cb)) {
    if (ka != kb) {
      std::printf("stimulus kind: %s vs %s\n", stimulus_name(ka), stimulus_name(kb));
      same = false;
    }
    if (ca != cb)
      std::printf("stimulus cursor: %lld vs %lld\n", static_cast<long long>(ca),
                  static_cast<long long>(cb));
  }
  const std::size_t n = std::min(a.bytes.size(), b.bytes.size());
  std::size_t first = n, differing = 0;
  for (std::size_t i = a.format->header_size(); i < n; ++i)
    if (a.bytes[i] != b.bytes[i]) {
      if (first == n) first = i;
      ++differing;
    }
  if (differing) {
    const std::size_t i = (first - a.format->header_size()) / kStraceFrame.unit;
    sensor::StimulusSample sa, sb;
    if (a.is(kStraceFrame) && sample_at(a, i, &sa) && sample_at(b, i, &sb))
      std::printf("first differing sample at %zu: (%.17g, %.17g) vs (%.17g, %.17g)\n", i,
                  sa.rate_dps, sa.temp_c, sb.rate_dps, sb.temp_c);
    std::printf("payload: %zu differing byte(s), first at offset %zu (%02X vs %02X)\n",
                differing, first, a.bytes[first], b.bytes[first]);
    same = false;
  }
  std::printf("%s\n", same ? "identical" : "different");
  return same ? 0 : 1;
}

// ---- capture / record ------------------------------------------------------

/// The VALUE of `FLAG VALUE` among the arguments after the first; nullptr
/// when absent.
const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (!std::strcmp(argv[i], flag)) return argv[i + 1];
  return nullptr;
}

bool read_scenario(const char* path, conformance::Scenario* out) {
  try {
    *out = conformance::load_scenario(path);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return false;
  }
}

bool save(const char* path, const std::vector<std::uint8_t>& bytes) {
  try {
    frame::write_file(path, bytes);
    return true;
  } catch (const StateError& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return false;
  }
}

int cmd_capture(int argc, char** argv) {
  const char* at_arg = flag_value(argc, argv, "--at");
  const double at = at_arg ? std::atof(at_arg) : 0.5;
  conformance::Scenario scenario;
  if (!read_scenario(argv[0], &scenario)) return 2;
  ConditioningChannel ch(conformance::channel_config(scenario));
  ch.advance(std::lround(scenario.duration_s * at * ch.base_rate_hz()));
  const std::vector<std::uint8_t> image = ch.snapshot();
  if (!save(argv[1], image)) return 2;
  std::printf("%s: %zu bytes at tick %ld (%.0f%% of %s)\n", argv[1], image.size(),
              ch.ticks_advanced(), at * 100.0, argv[0]);
  return 0;
}

int cmd_record(int argc, char** argv) {
  const char* dec_arg = flag_value(argc, argv, "--decimate");
  std::size_t decimate = dec_arg ? std::strtoul(dec_arg, nullptr, 10) : 1;
  if (decimate == 0) decimate = 1;
  conformance::Scenario scenario;
  if (!read_scenario(argv[0], &scenario)) return 2;
  auto cfg = conformance::channel_config(scenario);
  // Base rate is only known once the channel exists; build a throwaway first.
  const double base_rate_hz = ConditioningChannel(cfg).base_rate_hz();
  sensor::StimulusRecorder recorder(base_rate_hz / static_cast<double>(decimate), decimate);
  cfg.probe = &recorder;
  ConditioningChannel ch(cfg);
  ch.advance(std::llround(scenario.duration_s * ch.base_rate_hz()));
  if (!save(argv[1], sensor::encode_strace(recorder.trace()))) return 2;
  std::printf("%s: %zu samples at %.6g Hz (hash %016llX)\n", argv[1],
              recorder.trace().samples.size(), recorder.trace().sample_rate_hz,
              static_cast<unsigned long long>(ch.output_hash()));
  return 0;
}

// ---- replay ----------------------------------------------------------------

int replay_blackbox_file(const Input& in, bool verbose) {
  BlackboxImage img;
  BlackboxReplay rep;
  try {
    img = decode_blackbox(in.bytes);
    if (verbose)
      std::printf("replaying %s channel #%llu (seed %llu) to tick %lld …\n",
                  channel_kind_name(static_cast<ChannelKind>(img.kind)),
                  static_cast<unsigned long long>(img.channel_index),
                  static_cast<unsigned long long>(img.seed),
                  static_cast<long long>(img.crash_ticks));
    rep = replay_blackbox(img);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return 1;
  }
  std::printf("checkpoint: %s\n", rep.checkpoint_corrupt ? "embedded image corrupt — cold replay"
                                  : rep.checkpoint_used  ? "restored from embedded image"
                                                         : "none — cold replay");
  std::printf("replayed:   tick %lld, hash %016llx, %llu outputs\n",
              static_cast<long long>(rep.replay_ticks),
              static_cast<unsigned long long>(rep.replay_hash),
              static_cast<unsigned long long>(rep.replay_outputs));
  std::printf("recorded:   tick %lld, hash %016llx, %llu outputs\n",
              static_cast<long long>(img.crash_ticks),
              static_cast<unsigned long long>(img.crash_hash),
              static_cast<unsigned long long>(img.crash_outputs));
  std::printf("%s\n", rep.hash_match ? "REPRODUCED: failure state matches bit-exactly"
                                     : "MISMATCH: replay diverged from the crash fingerprint");
  return rep.hash_match ? 0 : 1;
}

int replay_trace_file(const Input& in, const char* scenario_path) {
  std::shared_ptr<const sensor::StimulusTrace> trace;
  try {
    trace = std::make_shared<const sensor::StimulusTrace>(sensor::decode_strace(in.bytes));
  } catch (const StateError& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return 1;
  }
  conformance::Scenario scenario;
  if (!read_scenario(scenario_path, &scenario)) return 2;

  ConditioningChannel synth(conformance::channel_config(scenario));
  synth.advance(std::llround(scenario.duration_s * synth.base_rate_hz()));

  auto replay_cfg = conformance::channel_config(scenario);
  replay_cfg.stimulus_factory = [trace](double base_rate_hz) {
    return std::make_unique<sensor::RecordedSource>(trace, base_rate_hz);
  };
  ConditioningChannel replay(replay_cfg);
  replay.advance(std::llround(scenario.duration_s * replay.base_rate_hz()));

  const bool match = replay.output_hash() == synth.output_hash();
  std::printf("synthetic %016llX\nreplayed  %016llX\n%s\n",
              static_cast<unsigned long long>(synth.output_hash()),
              static_cast<unsigned long long>(replay.output_hash()),
              match ? "bit-exact" : "DIVERGED");
  return match ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  const char* scenario = nullptr;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--verbose"))
      verbose = true;
    else
      scenario = argv[i];
  }
  Input in;
  if (const int rc = load(argv[0], &in)) return rc;
  if (in.is(kBlackboxFrame)) return replay_blackbox_file(in, verbose);
  if (in.is(kStraceFrame) && scenario) return replay_trace_file(in, scenario);
  std::fprintf(stderr, "ascp_tool replay: a blackbox replays alone, a trace needs its "
                       "SCENARIO, a checkpoint does not replay\n");
  return 2;
}

// ---- export ----------------------------------------------------------------

std::string num(double v) {
  if (v != v || v > 1e300 || v < -1e300) return "0";
  return fmt("%.17g", v);
}

/// Owning BlackboxSpan → POD obs::Span view (name copied into the fixed
/// buffer, kv keys borrowed for the duration of the call) so the shared
/// span_trace_event renderer applies.
obs::Span to_span(const BlackboxSpan& s) {
  obs::Span out;
  out.trace_id = s.trace_id;
  out.span_id = s.span_id;
  out.parent_id = s.parent_id;
  std::strncpy(out.name, s.name.c_str(), sizeof out.name - 1);
  out.category = static_cast<obs::SpanCategory>(s.category);
  out.t_begin = s.t_begin;
  out.t_end = s.t_end;
  out.wall_us = s.wall_us;
  if (!s.k0.empty()) {
    out.k0 = s.k0.c_str();
    out.v0 = s.v0;
  }
  if (!s.k1.empty()) {
    out.k1 = s.k1.c_str();
    out.v1 = s.v1;
  }
  return out;
}

std::string record_json(const BlackboxFlightRecord& r) {
  std::string j = "{\"t\":" + num(r.t_sim);
  j += ",\"kind\":\"";
  j += obs::flight_kind_name(static_cast<obs::FlightKind>(r.kind));
  j += "\"";
  if (static_cast<obs::FlightKind>(r.kind) == obs::FlightKind::Event) {
    j += ",\"severity\":\"";
    j += obs::severity_name(static_cast<obs::EventSeverity>(r.severity));
    j += "\",\"category\":\"";
    j += obs::category_name(static_cast<obs::EventCategory>(r.category));
    j += "\"";
  } else if (static_cast<obs::FlightKind>(r.kind) == obs::FlightKind::ProbeSample) {
    j += ",\"point\":\"";
    j += sensor::probe_point_name(static_cast<sensor::ProbePoint>(r.category));
    j += "\",\"tick\":" + std::to_string(r.tick);
  }
  j += ",\"name\":\"" + obs::json_escape(r.name) + "\"";
  if (!r.detail.empty()) j += ",\"detail\":\"" + obs::json_escape(r.detail) + "\"";
  j += ",\"a\":" + num(r.a) + ",\"b\":" + num(r.b);
  if (!r.k0.empty()) j += ",\"" + obs::json_escape(r.k0) + "\":" + num(r.v0);
  if (!r.k1.empty()) j += ",\"" + obs::json_escape(r.k1) + "\":" + num(r.v1);
  j += "}";
  return j;
}

std::string span_json(const BlackboxSpan& s) {
  std::string j = "{\"trace_id\":\"" + std::to_string(s.trace_id) + "\"";
  j += ",\"span_id\":\"" + std::to_string(s.span_id) + "\"";
  j += ",\"parent_id\":\"" + std::to_string(s.parent_id) + "\"";
  j += ",\"name\":\"" + obs::json_escape(s.name) + "\"";
  j += ",\"category\":\"";
  j += obs::span_category_name(static_cast<obs::SpanCategory>(s.category));
  j += "\",\"t_begin\":" + num(s.t_begin) + ",\"t_end\":" + num(s.t_end);
  if (s.wall_us > 0.0) j += ",\"wall_us\":" + num(s.wall_us);
  if (!s.k0.empty()) j += ",\"" + obs::json_escape(s.k0) + "\":" + num(s.v0);
  if (!s.k1.empty()) j += ",\"" + obs::json_escape(s.k1) + "\":" + num(s.v1);
  j += "}";
  return j;
}

std::string image_json(const BlackboxImage& img) {
  std::string j = "{\n  \"meta\": {";
  j += "\"kind\":\"" + std::string(channel_kind_name(static_cast<ChannelKind>(img.kind))) + "\"";
  j += ",\"seed\":" + std::to_string(img.seed);
  j += ",\"channel\":" + std::to_string(img.channel_index);
  j += ",\"fleet_tick\":" + std::to_string(img.fleet_tick);
  j += ",\"reason\":\"" + obs::json_escape(img.reason) + "\"";
  j += ",\"dtcs\":" + std::to_string(img.dtcs);
  j += ",\"restarts\":" + std::to_string(img.restarts);
  j += ",\"health\":\"";
  j += channel_health_name(static_cast<ChannelHealth>(img.health));
  j += "\",\"rate_dps\":" + num(img.rate_dps) + ",\"temp_c\":" + num(img.temp_c);
  j += ",\"with_safety\":" + std::string(img.with_safety ? "true" : "false");
  j += ",\"with_faults\":" + std::string(img.with_faults ? "true" : "false");
  j += "},\n  \"crash\": {";
  j += "\"ticks\":" + std::to_string(img.crash_ticks);
  j += ",\"output_hash\":\"" +
       fmt("%016llx", static_cast<unsigned long long>(img.crash_hash)) + "\"";
  j += ",\"outputs\":" + std::to_string(img.crash_outputs);
  j += "},\n  \"checkpoint\": {";
  j += "\"tick\":" + std::to_string(img.checkpoint_tick);
  j += ",\"bytes\":" + std::to_string(img.checkpoint.size());
  // The first item takes the separator without its comma.
  const auto list = [](const auto& items, const char* sep, const auto& render) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += i ? sep : sep + 1;
      out += render(items[i]);
    }
    return out;
  };
  const auto metric = [](const BlackboxMetricSample& m) {
    std::string j = "\"";
    j += obs::json_escape(m.name);
    j += "\":";
    return j + num(m.value);
  };
  j += "},\n  \"records\": [" + list(img.records, ",\n    ", record_json);
  j += "\n  ],\n  \"channel_spans\": [" + list(img.channel_spans, ",\n    ", span_json);
  j += "\n  ],\n  \"fleet_spans\": [" + list(img.fleet_spans, ",\n    ", span_json);
  j += "\n  ],\n  \"metrics\": {\"counters\":{" + list(img.counters, ",", metric);
  j += "},\"gauges\":{" + list(img.gauges, ",", metric) + "}}\n}\n";
  return j;
}

std::string image_trace(const BlackboxImage& img) {
  // tid layout: 200+cat channel spans, 300+cat fleet spans, 400 records.
  std::string j = "{\"traceEvents\":[\n";
  bool first = true;
  auto push = [&](const std::string& e) {
    if (!first) j += ",\n";
    first = false;
    j += e;
  };
  for (int c = 0; c < static_cast<int>(obs::kSpanCategoryCount); ++c) {
    const char* cn = obs::span_category_name(static_cast<obs::SpanCategory>(c));
    push("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(200 + c) + ",\"args\":{\"name\":\"channel spans:" +
         std::string(cn) + "\"}}");
    push("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(300 + c) + ",\"args\":{\"name\":\"fleet spans:" +
         std::string(cn) + "\"}}");
  }
  push("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":400,"
       "\"args\":{\"name\":\"flight recorder\"}}");
  for (const auto& s : img.channel_spans) push(obs::span_trace_event(to_span(s), 200));
  for (const auto& s : img.fleet_spans) push(obs::span_trace_event(to_span(s), 300));
  for (const auto& r : img.records) {
    std::string e = "{\"name\":\"" + obs::json_escape(r.name) + "\",\"ph\":\"i\",\"s\":\"t\"";
    e += ",\"pid\":1,\"tid\":400,\"ts\":" + num(r.t_sim * 1e6);
    e += ",\"cat\":\"";
    e += obs::flight_kind_name(static_cast<obs::FlightKind>(r.kind));
    e += "\",\"args\":{\"a\":" + num(r.a) + ",\"b\":" + num(r.b) + "}}";
    push(e);
  }
  j += "\n]}\n";
  return j;
}

int cmd_export(int argc, char** argv) {
  const char* json_path = flag_value(argc, argv, "--json");
  const char* trace_path = flag_value(argc, argv, "--trace");
  if (!json_path && !trace_path) {
    std::fprintf(stderr, "ascp_tool export: need --json OUT and/or --trace OUT\n");
    return 2;
  }
  Input in;
  if (const int rc = load(argv[0], &in)) return rc;
  if (!in.is(kBlackboxFrame)) {
    std::fprintf(stderr, "ascp_tool export: %s is a %s, not a blackbox\n", argv[0],
                 in.format->name);
    return 2;
  }
  BlackboxImage img;
  try {
    img = decode_blackbox(in.bytes);
  } catch (const StateError& e) {
    std::fprintf(stderr, "ascp_tool: %s\n", e.what());
    return 1;
  }
  if (json_path) {
    const std::string body = image_json(img);
    if (!save(json_path, {body.begin(), body.end()})) return 2;
    std::printf("%s: JSON dump (%zu records, %zu+%zu spans)\n", json_path,
                img.records.size(), img.channel_spans.size(), img.fleet_spans.size());
  }
  if (trace_path) {
    const std::string body = image_trace(img);
    if (!save(trace_path, {body.begin(), body.end()})) return 2;
    std::printf("%s: Chrome trace (load in Perfetto / chrome://tracing)\n", trace_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string verb = argc > 1 ? argv[1] : "";
  const int n = argc - 2;
  char** args = argv + 2;
  if (verb == "inspect" && n == 1) return cmd_inspect(args[0]);
  if (verb == "diff" && n == 2) return cmd_diff(args[0], args[1]);
  if (verb == "capture" && n >= 2) return cmd_capture(n, args);
  if (verb == "record" && n >= 2) return cmd_record(n, args);
  if (verb == "replay" && n >= 1) return cmd_replay(n, args);
  if (verb == "export" && n >= 1) return cmd_export(n, args);
  std::fprintf(stderr,
               "usage: ascp_tool inspect FILE\n"
               "       ascp_tool diff A B\n"
               "       ascp_tool capture SCENARIO OUT [--at F]\n"
               "       ascp_tool record SCENARIO OUT [--decimate N]\n"
               "       ascp_tool replay FILE [SCENARIO] [--verbose]\n"
               "       ascp_tool export FILE [--json OUT] [--trace OUT]\n");
  return 2;
}
