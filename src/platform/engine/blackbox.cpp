#include "platform/engine/blackbox.hpp"

namespace ascp::engine {

namespace {

/// StateArchive has no string field (checkpoints never carry text); blackbox
/// payloads do, so strings ride as u64 length + raw bytes. Decoded lengths
/// and counts are bounded by the bytes left before they size an allocation.
void str_field(StateArchive& ar, std::string& s) {
  std::uint64_t n = s.size();
  ar.value(n);
  if (!ar.saving()) {
    if (n > (1ull << 24) || n > ar.remaining())
      throw StateError("blackbox string length implausible");
    s.resize(static_cast<std::size_t>(n));
  }
  if (n) ar.bytes(reinterpret_cast<std::uint8_t*>(&s[0]), static_cast<std::size_t>(n));
}

template <typename T>
void vec_field(StateArchive& ar, std::vector<T>& v,
               const std::function<void(StateArchive&, T&)>& each) {
  std::uint64_t n = v.size();
  ar.value(n);
  if (!ar.saving()) {
    if (n > (1ull << 24) || n > ar.remaining())
      throw StateError("blackbox element count implausible");
    v.resize(static_cast<std::size_t>(n));
  }
  for (auto& e : v) each(ar, e);
}

void record_field(StateArchive& ar, BlackboxFlightRecord& r) {
  ar.value(r.t_sim);
  ar.value(r.kind);
  ar.value(r.severity);
  ar.value(r.category);
  ar.value(r.tick);
  str_field(ar, r.name);
  str_field(ar, r.detail);
  ar.value(r.a);
  ar.value(r.b);
  str_field(ar, r.k0);
  ar.value(r.v0);
  str_field(ar, r.k1);
  ar.value(r.v1);
}

void span_field(StateArchive& ar, BlackboxSpan& s) {
  ar.value(s.trace_id);
  ar.value(s.span_id);
  ar.value(s.parent_id);
  str_field(ar, s.name);
  ar.value(s.category);
  ar.value(s.t_begin);
  ar.value(s.t_end);
  ar.value(s.wall_us);
  str_field(ar, s.k0);
  ar.value(s.v0);
  str_field(ar, s.k1);
  ar.value(s.v1);
}

void metric_field(StateArchive& ar, BlackboxMetricSample& m) {
  str_field(ar, m.name);
  ar.value(m.value);
}

/// The shared save/load field list (one sequence, both directions — the same
/// discipline every serialize_state in the codebase follows).
void serialize_image(StateArchive& ar, BlackboxImage& img) {
  ar.begin_section("BMET");
  ar.value(img.kind);
  ar.value(img.seed);
  ar.value(img.channel_index);
  ar.value(img.fleet_tick);
  str_field(ar, img.reason);
  ar.value(img.dtcs);
  ar.value(img.restarts);
  ar.value(img.health);
  ar.value(img.rate_dps);
  ar.value(img.temp_c);
  ar.value(img.with_safety);
  ar.value(img.with_faults);
  ar.value(img.crash_ticks);
  ar.value(img.crash_hash);
  ar.value(img.crash_outputs);
  ar.end_section();

  ar.begin_section("BCKP");
  ar.value(img.checkpoint_tick);
  ar.value(img.checkpoint);
  ar.end_section();

  ar.begin_section("BREC");
  vec_field<BlackboxFlightRecord>(ar, img.records, record_field);
  ar.end_section();

  ar.begin_section("BSPN");
  vec_field<BlackboxSpan>(ar, img.channel_spans, span_field);
  vec_field<BlackboxSpan>(ar, img.fleet_spans, span_field);
  ar.end_section();

  ar.begin_section("BMTR");
  vec_field<BlackboxMetricSample>(ar, img.counters, metric_field);
  vec_field<BlackboxMetricSample>(ar, img.gauges, metric_field);
  ar.end_section();
}

}  // namespace

std::vector<std::uint8_t> encode_blackbox(const BlackboxImage& img) {
  return frame::encode(kBlackboxFrame, {img.kind}, [&img](StateArchive& ar) {
    serialize_image(ar, const_cast<BlackboxImage&>(img));
  });
}

BlackboxImage decode_blackbox(const std::vector<std::uint8_t>& bytes) {
  const frame::Frame f = frame::decode(kBlackboxFrame, bytes);
  BlackboxImage img;
  StateArchive ar = StateArchive::loader(f.payload, f.size);
  serialize_image(ar, img);
  if (!ar.exhausted()) throw StateError("blackbox has trailing bytes");
  if (img.kind != f.meta.word) throw StateError("blackbox header/payload kind disagreement");
  return img;
}

void capture_flight_records(const obs::FlightRecorder& rec,
                            std::vector<BlackboxFlightRecord>* out) {
  out->clear();
  out->reserve(rec.size());
  rec.for_each([out](const obs::FlightRecord& r) {
    BlackboxFlightRecord d;
    d.t_sim = r.t_sim;
    d.kind = static_cast<std::uint8_t>(r.kind);
    d.severity = r.severity;
    d.category = r.category;
    d.tick = r.tick;
    d.name = r.name;
    d.detail = r.detail;
    d.a = r.a;
    d.b = r.b;
    if (r.k0) d.k0 = r.k0;
    d.v0 = r.v0;
    if (r.k1) d.k1 = r.k1;
    d.v1 = r.v1;
    out->push_back(std::move(d));
  });
}

void capture_spans(const obs::SpanLog& log, std::vector<BlackboxSpan>* out) {
  out->clear();
  out->reserve(log.size());
  log.for_each([out](const obs::Span& s) {
    BlackboxSpan d;
    d.trace_id = s.trace_id;
    d.span_id = s.span_id;
    d.parent_id = s.parent_id;
    d.name = s.name;
    d.category = static_cast<std::uint8_t>(s.category);
    d.t_begin = s.t_begin;
    d.t_end = s.t_end;
    d.wall_us = s.wall_us;
    if (s.k0) d.k0 = s.k0;
    d.v0 = s.v0;
    if (s.k1) d.k1 = s.k1;
    d.v1 = s.v1;
    out->push_back(std::move(d));
  });
}

void capture_metrics(const obs::MetricRegistry& reg,
                     std::vector<BlackboxMetricSample>* counters,
                     std::vector<BlackboxMetricSample>* gauges) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  counters->clear();
  gauges->clear();
  counters->reserve(snap.counters.size());
  for (const auto& [name, value] : snap.counters) counters->push_back({name, value});
  gauges->reserve(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) gauges->push_back({name, value});
}

BlackboxReplay replay_blackbox(const BlackboxImage& img, const ChannelConfig* base) {
  ChannelConfig cfg = base ? *base : ChannelConfig{};
  cfg.kind = static_cast<ChannelKind>(img.kind);
  cfg.seed = img.seed;
  if (!base) {
    cfg.rate_dps = img.rate_dps;
    cfg.temp_c = img.temp_c;
    cfg.with_safety = img.with_safety;
    cfg.with_faults = img.with_faults;
  }
  // Replay is a forensic rebuild, not a telemetry run: recorders/probes stay
  // off so the rebuilt channel is the minimal bit-exact twin.
  cfg.with_obs = false;
  cfg.with_flight_recorder = false;

  BlackboxReplay rep;
  auto channel = std::make_unique<ConditioningChannel>(cfg);
  std::int64_t from_tick = 0;
  if (!img.checkpoint.empty()) {
    try {
      channel->restore(img.checkpoint);
      rep.checkpoint_used = true;
      from_tick = channel->ticks_advanced();
    } catch (const StateError&) {
      // Same demotion the supervisor applies: detected corruption → cold
      // rebuild and full replay from tick zero.
      rep.checkpoint_corrupt = true;
      channel = std::make_unique<ConditioningChannel>(cfg);
      from_tick = 0;
    }
  }
  if (channel->ticks_advanced() > img.crash_ticks)
    throw StateError("blackbox checkpoint is beyond the crash tick");
  (void)from_tick;
  channel->advance(static_cast<long>(img.crash_ticks) - channel->ticks_advanced());
  rep.replay_ticks = channel->ticks_advanced();
  rep.replay_hash = channel->output_hash();
  rep.replay_outputs = channel->total_outputs();
  rep.hash_match =
      rep.replay_hash == img.crash_hash && rep.replay_ticks == img.crash_ticks;
  return rep;
}

}  // namespace ascp::engine
