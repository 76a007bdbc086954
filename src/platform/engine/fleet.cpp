#include "platform/engine/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "platform/engine/blackbox.hpp"
#include "safety/dtc.hpp"

namespace ascp::engine {

namespace {

std::vector<ChannelConfig> farm_specs(const std::vector<FleetChannelSpec>& specs,
                                      bool flight_recorders) {
  std::vector<ChannelConfig> out;
  for (const auto& s : specs) {
    out.push_back(s.config);
    out.back().with_flight_recorder |= flight_recorders;
  }
  return out;
}

}  // namespace

const char* channel_kind_name(ChannelKind k) {
  switch (k) {
    case ChannelKind::GyroFull: return "GyroFull";
    case ChannelKind::GyroIdeal: return "GyroIdeal";
    case ChannelKind::Adxrs300: return "Adxrs300";
    case ChannelKind::Gyrostar: return "Gyrostar";
  }
  return "?";
}

const char* channel_health_name(ChannelHealth h) {
  switch (h) {
    case ChannelHealth::Running: return "RUNNING";
    case ChannelHealth::BackingOff: return "BACKING_OFF";
    case ChannelHealth::Quarantined: return "QUARANTINED";
  }
  return "?";
}

FleetSupervisor::FleetSupervisor(std::vector<FleetChannelSpec> specs, const FleetConfig& cfg)
    : cfg_(cfg),
      farm_(farm_specs(specs, cfg.flight_recorders),
            FarmConfig{.root_seed = cfg.root_seed, .threads = cfg.threads}) {
  if (cfg_.events) {
    cfg_.events->declare_emitter(obs::EventCategory::Engine, "FleetSupervisor");
    cfg_.events->declare_emitter(obs::EventCategory::Recorder, "FleetSupervisor");
  }
  if (cfg_.spans) cfg_.spans->set_trace_id(cfg_.root_seed);
  if (cfg_.metrics) {
    m_ticks_ = cfg_.metrics->counter("fleet.ticks");
    m_stalls_ = cfg_.metrics->counter("fleet.stalls_detected");
    m_exceptions_ = cfg_.metrics->counter("fleet.channel_exceptions");
    m_restarts_ = cfg_.metrics->counter("fleet.restarts");
    m_quarantines_ = cfg_.metrics->counter("fleet.quarantines");
    m_shed_ = cfg_.metrics->counter("fleet.shed_channel_ticks");
    m_delivered_ = cfg_.metrics->counter("fleet.delivered_samples");
    m_checkpoints_ = cfg_.metrics->counter("fleet.checkpoints");
    m_blackbox_ = cfg_.metrics->counter("fleet.blackbox_dumps");
  }

  states_.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    states_[i].priority = specs[i].priority;
    states_[i].before_advance = std::move(specs[i].before_advance);
  }

  if (cfg_.tick_deadline_ms > 0.0) {
    watchdog_ = std::thread([this] {
      const auto scan_period =
          std::chrono::microseconds(std::max<std::int64_t>(
              50, static_cast<std::int64_t>(cfg_.tick_deadline_ms * 1000.0 / 4.0)));
      // The busy stamp of the last step flagged per channel, so each stalled
      // step is reported once. Only this thread touches it.
      std::vector<std::int64_t> flagged_since(farm_.size(), 0);
      while (!watchdog_stop_.load(std::memory_order_acquire)) {
        const std::int64_t now = steady_ns();
        for (std::size_t i = 0; i < farm_.size(); ++i) {
          const std::int64_t since = farm_.busy_since_ns(i);
          if (since == 0 || since == flagged_since[i]) continue;
          const double elapsed_ms = static_cast<double>(now - since) / 1e6;
          // A lane group's step does one channel step per member.
          if (elapsed_ms > cfg_.tick_deadline_ms * static_cast<double>(farm_.busy_width(i))) {
            flagged_since[i] = since;
            std::lock_guard<std::mutex> lk(stall_m_);
            stall_log_.push_back({static_cast<long>(i), elapsed_ms});
          }
        }
        std::this_thread::sleep_for(scan_period);
      }
    });
  }
}

FleetSupervisor::~FleetSupervisor() {
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
}

double FleetSupervisor::now_sim() const {
  return static_cast<double>(fleet_tick_) * cfg_.tick_seconds;
}

void FleetSupervisor::emit(obs::EventSeverity sev, const char* name, std::string detail,
                           std::initializer_list<obs::Event::KV> kv) {
  if (cfg_.events)
    cfg_.events->emit(now_sim(), sev, obs::EventCategory::Engine, name, std::move(detail), kv);
}

void FleetSupervisor::span_edge(const char* name, std::size_t channel, std::uint64_t parent,
                                const char* k1, double v1) {
  if (!cfg_.spans) return;
  const std::uint64_t id = cfg_.spans->begin(
      name, obs::SpanCategory::Fleet, now_sim(),
      parent ? parent : obs::SpanLog::kCurrentParent);
  cfg_.spans->annotate(id, "channel", static_cast<double>(channel));
  if (k1) cfg_.spans->annotate(id, k1, v1);
  cfg_.spans->end(id, now_sim());
}

void FleetSupervisor::open_incident(std::size_t i) {
  ChannelState& st = states_[i];
  if (st.incident_open) return;
  st.incident_open = true;
  st.incident_start = std::chrono::steady_clock::now();
  // The incident span stays open until catch-up completes (or quarantine
  // closes it for good), so every lifecycle edge parents under it.
  if (cfg_.spans) {
    st.incident_span =
        cfg_.spans->begin("incident", obs::SpanCategory::Fleet, now_sim());
    cfg_.spans->annotate(st.incident_span, "channel", static_cast<double>(i));
  }
}

void FleetSupervisor::dump_blackbox(std::size_t i) {
  if (!cfg_.blackbox_sink && cfg_.blackbox_dir.empty()) return;
  const ChannelState& st = states_[i];
  ConditioningChannel& ch = farm_.channel(i);
  const ChannelConfig& config = ch.config();
  BlackboxImage img;
  img.kind = static_cast<std::uint32_t>(config.kind);
  img.seed = config.seed;
  img.channel_index = i;
  img.fleet_tick = fleet_tick_;
  img.reason = st.last_error;
  img.dtcs = st.dtcs;
  img.restarts = st.restarts;
  img.health = static_cast<std::uint8_t>(st.health);
  img.rate_dps = config.rate_dps;
  img.temp_c = config.temp_c;
  img.with_safety = config.with_safety;
  img.with_faults = config.with_faults;
  // The wrecked instance is still intact here (dump precedes the rebuild) and
  // its fingerprint is always a clean prefix: the hash folds only after a
  // fully successful sensor run.
  img.crash_ticks = ch.ticks_advanced();
  img.crash_hash = ch.output_hash();
  img.crash_outputs = ch.total_outputs();
  img.checkpoint_tick = st.last_good_tick;
  img.checkpoint = st.last_good;  // verbatim — possibly corrupt, replay re-detects
  if (auto* obs = ch.observability()) {
    if (auto* rec = ch.flight_recorder())
      capture_flight_records(*rec, &img.records);
    capture_spans(obs->spans, &img.channel_spans);
    capture_metrics(obs->metrics, &img.counters, &img.gauges);
  }
  if (cfg_.spans) capture_spans(*cfg_.spans, &img.fleet_spans);

  const std::vector<std::uint8_t> bytes = encode_blackbox(img);
  const long seq = stats_.blackbox_dumps++;
  if (cfg_.metrics) cfg_.metrics->add(m_blackbox_);
  if (cfg_.blackbox_sink) cfg_.blackbox_sink(i, bytes);
  if (!cfg_.blackbox_dir.empty()) {
    std::filesystem::create_directories(cfg_.blackbox_dir);
    char name[64];
    std::snprintf(name, sizeof name, "bb%05ld_ch%02zu.blackbox", seq, i);
    frame::write_file(cfg_.blackbox_dir + "/" + name, bytes);
  }
  if (cfg_.events)
    cfg_.events->emit(now_sim(), obs::EventSeverity::Warn, obs::EventCategory::Recorder,
                      "blackbox_dump", st.last_error,
                      {{"channel", static_cast<double>(i)},
                       {"bytes", static_cast<double>(bytes.size())}});
}

double FleetSupervisor::step(bool live) {
  const long tick = fleet_tick_;
  const auto wall0 = std::chrono::steady_clock::now();
  // Chaos hooks fire for the *live* tick only, on the workers under the
  // farm's containment and busy stamps; catch-up replays simulated time the
  // channel missed and must stay pure. A hook that throws fails its channel,
  // which then does not advance.
  if (live) {
    std::vector<std::size_t> hooked;
    for (std::size_t i : runnable_)
      if (states_[i].before_advance) hooked.push_back(i);
    if (!hooked.empty())
      farm_.run(hooked, [this, tick](std::size_t i, ConditioningChannel&) {
        states_[i].before_advance(tick - 1);
      });
  }
  // Advance to the *absolute* base-tick target for this fleet tick, not by
  // a relative delta: per-tick llround deltas accumulate rounding when
  // tick_seconds * base_rate is non-integral, so a channel catching up in
  // one big advance would land on a different global tick than one that
  // ticked live — breaking the clean-twin bit-exactness invariant.
  // Block-policy backpressure: a full queue pauses the channel (it catches
  // up after the supervisor drains it).
  std::vector<std::size_t> advancing;
  std::vector<long> ticks;
  for (std::size_t i : runnable_) {
    const ConditioningChannel& ch = farm_.channel(i);
    if (ch.queue_full()) continue;
    const long target =
        std::llround(static_cast<double>(tick) * cfg_.tick_seconds * ch.base_rate_hz());
    advancing.push_back(i);
    ticks.push_back(std::max<long>(0, target - ch.ticks_advanced()));
  }
  // One farm path: channels with one lane key and one catch-up count
  // advance as a lockstep group; a channel restored from a checkpoint
  // catches up alone, then rejoins.
  farm_.advance(advancing, ticks);
  for (std::size_t i : advancing)
    if (!farm_.channel_failed(i)) states_[i].ticks_done = tick;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall0)
          .count();
  report_stalls();
  handle_failures();
  return wall_ms;
}

void FleetSupervisor::run_one_tick() {
  // The tick span brackets the whole supervisory cycle (advance + failure
  // handling + drain + checkpoint), so incident spans opened mid-tick parent
  // under it.
  obs::SpanScope tick_span(cfg_.spans, "fleet.tick", obs::SpanCategory::Fleet, now_sim());
  // Build this tick's work list: healthy channels, minus backoff windows,
  // minus (under overload) low-priority sheds.
  runnable_.clear();
  int shed_below = std::numeric_limits<int>::min();
  if (cfg_.realtime_budget_ms > 0.0 && last_tick_wall_ms_ > cfg_.realtime_budget_ms) {
    // Behind real time: advance only the highest-priority class this tick.
    int top = std::numeric_limits<int>::min();
    for (const auto& st : states_)
      if (st.health == ChannelHealth::Running) top = std::max(top, st.priority);
    shed_below = top;
  }
  bool shed_any = false;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = states_[i];
    if (st.health == ChannelHealth::Quarantined) continue;
    if (st.health == ChannelHealth::BackingOff) {
      if (fleet_tick_ < st.backoff_until) continue;
      st.health = ChannelHealth::Running;
    }
    if (st.priority < shed_below) {
      ++st.shed_ticks;
      ++stats_.shed_channel_ticks;
      if (cfg_.metrics) cfg_.metrics->add(m_shed_);
      shed_any = true;
      continue;
    }
    runnable_.push_back(i);
  }
  if (shed_any)
    emit(obs::EventSeverity::Warn, "load_shed", "behind real-time budget",
         {{"wall_ms", last_tick_wall_ms_}, {"budget_ms", cfg_.realtime_budget_ms}});

  ++fleet_tick_;
  ++stats_.ticks;
  if (cfg_.metrics) cfg_.metrics->add(m_ticks_);

  last_tick_wall_ms_ = step(/*live=*/true);
  drain_outputs();
  take_checkpoints();
  close_incidents();
  tick_span.annotate("runnable", static_cast<double>(runnable_.size()));
  tick_span.close(now_sim());
}

void FleetSupervisor::report_stalls() {
  // Watchdog detections observed during the step → DTC + event + stats.
  std::vector<StallRecord> stalls;
  {
    std::lock_guard<std::mutex> lk(stall_m_);
    stalls.swap(stall_log_);
  }
  for (const auto& s : stalls) {
    const auto i = static_cast<std::size_t>(s.channel);
    ChannelState& st = states_[i];
    st.dtcs |= safety::kDtcEngineFault;
    ++stats_.stalls_detected;
    stats_.stall_detect_ms.push_back(s.elapsed_ms);
    if (cfg_.metrics) cfg_.metrics->add(m_stalls_);
    open_incident(i);
    span_edge("stall_detect", i, st.incident_span, "elapsed_ms", s.elapsed_ms);
    emit(obs::EventSeverity::Warn, "worker_stall", "tick deadline exceeded",
         {{"channel", static_cast<double>(s.channel)},
          {"elapsed_ms", s.elapsed_ms},
          {"deadline_ms", cfg_.tick_deadline_ms}});
  }
}

void FleetSupervisor::handle_failures() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = states_[i];
    // Quarantined channels stay failed in the farm, which keeps skipping them.
    if (st.health == ChannelHealth::Quarantined || !farm_.channel_failed(i)) continue;
    st.last_error = farm_.channel_error(i);
    st.dtcs |= safety::kDtcEngineFault;
    ++stats_.exceptions;
    if (cfg_.metrics) cfg_.metrics->add(m_exceptions_);
    open_incident(i);
    span_edge("channel_exception", i, st.incident_span);
    emit(obs::EventSeverity::Error, "channel_exception", st.last_error,
         {{"channel", static_cast<double>(i)}});
    restart_channel(i);
  }
}

void FleetSupervisor::restart_channel(std::size_t i) {
  ChannelState& st = states_[i];
  // Forensics first: the wrecked instance is still intact here, so the dump
  // captures its clean-prefix fingerprint, the ring tail, and the last-good
  // checkpoint bytes (verbatim — even if about to be rejected as corrupt).
  // This covers every failure class: exception, corrupt checkpoint, and the
  // quarantine branch below.
  dump_blackbox(i);
  ++st.restarts;
  if (st.restarts > cfg_.max_restarts) {
    st.health = ChannelHealth::Quarantined;
    ++stats_.quarantined;
    if (cfg_.metrics) cfg_.metrics->add(m_quarantines_);
    st.incident_open = false;  // permanent: not a repairable incident
    span_edge("quarantine", i, st.incident_span, "restarts",
              static_cast<double>(st.restarts));
    if (cfg_.spans && st.incident_span) {
      cfg_.spans->end(st.incident_span, now_sim());
      st.incident_span = 0;
    }
    emit(obs::EventSeverity::Error, "channel_quarantine",
         "restart budget exhausted: " + st.last_error,
         {{"channel", static_cast<double>(i)}, {"restarts", static_cast<double>(st.restarts)}});
    return;
  }

  const std::uint64_t restart_span =
      cfg_.spans ? cfg_.spans->begin("restart", obs::SpanCategory::Fleet, now_sim(),
                                     st.incident_span ? st.incident_span
                                                      : obs::SpanLog::kCurrentParent)
                 : 0;
  if (restart_span) cfg_.spans->annotate(restart_span, "channel", static_cast<double>(i));
  // The wrecked instance may hold partially-mutated state — discard it and
  // rebuild from the recipe, then restore the last-good image if it checks
  // out. A corrupt/truncated image is *detected* (CRC frame) and demoted to
  // a cold rebuild + full replay from tick zero.
  farm_.rebuild_channel(i);
  st.ticks_done = 0;
  if (!st.last_good.empty()) {
    try {
      farm_.channel(i).restore(st.last_good);
      st.ticks_done = st.last_good_tick;
      span_edge("restore_checkpoint", i, restart_span, "from_tick",
                static_cast<double>(st.last_good_tick));
    } catch (const StateError& e) {
      ++stats_.corrupt_checkpoints;
      span_edge("checkpoint_corrupt", i, restart_span);
      emit(obs::EventSeverity::Error, "checkpoint_corrupt", e.what(),
           {{"channel", static_cast<double>(i)}});
      farm_.rebuild_channel(i);
      st.ticks_done = 0;
      st.last_good.clear();
      span_edge("cold_rebuild", i, restart_span);
    }
  } else {
    span_edge("cold_rebuild", i, restart_span);
  }

  const long backoff = std::min(cfg_.backoff_cap_ticks,
                                cfg_.backoff_base_ticks << std::min(st.restarts - 1, 30));
  st.backoff_until = fleet_tick_ + std::max<long>(backoff, 0);
  st.health = st.backoff_until > fleet_tick_ ? ChannelHealth::BackingOff : ChannelHealth::Running;
  ++stats_.restarts;
  if (cfg_.metrics) cfg_.metrics->add(m_restarts_);
  if (cfg_.spans && restart_span) {
    cfg_.spans->annotate(restart_span, "backoff_ticks", static_cast<double>(backoff));
    cfg_.spans->end(restart_span, now_sim());
  }
  emit(obs::EventSeverity::Warn, "channel_restart",
       st.last_good.empty() && st.ticks_done == 0 ? "cold rebuild" : "restored from checkpoint",
       {{"channel", static_cast<double>(i)},
        {"from_tick", static_cast<double>(st.ticks_done)},
        {"backoff_ticks", static_cast<double>(backoff)}});
}

void FleetSupervisor::drain_outputs() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ConditioningChannel& ch = farm_.channel(i);
    if (ch.outputs().empty()) continue;
    auto batch = ch.take_outputs();
    stats_.delivered_samples += static_cast<long>(batch.size());
    if (cfg_.metrics) cfg_.metrics->add(m_delivered_, static_cast<double>(batch.size()));
    if (consumer_) consumer_(i, std::move(batch));
  }
}

void FleetSupervisor::take_checkpoints() {
  if (cfg_.checkpoint_interval <= 0 || fleet_tick_ % cfg_.checkpoint_interval != 0) return;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = states_[i];
    if (st.health == ChannelHealth::Quarantined) continue;
    if (st.ticks_done != fleet_tick_) continue;  // behind (shed/backoff): skip
    st.last_good = farm_.channel(i).snapshot();
    st.last_good_tick = st.ticks_done;
    ++stats_.checkpoints;
    if (cfg_.metrics) cfg_.metrics->add(m_checkpoints_);
  }
}

void FleetSupervisor::close_incidents() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = states_[i];
    if (!st.incident_open || st.health != ChannelHealth::Running) continue;
    if (st.ticks_done != fleet_tick_) continue;
    st.incident_open = false;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - st.incident_start)
                          .count();
    stats_.mttr_ms.push_back(ms);
    span_edge("catch_up", i, st.incident_span, "mttr_ms", ms);
    if (cfg_.spans && st.incident_span) {
      cfg_.spans->end(st.incident_span, now_sim());
      st.incident_span = 0;
    }
    emit(obs::EventSeverity::Info, "channel_recovered", {},
         {{"channel", static_cast<double>(i)}, {"mttr_ms", ms}});
  }
}

void FleetSupervisor::run_ticks(long n) {
  for (long k = 0; k < n; ++k) run_one_tick();

  // Final catch-up: shed, backing-off and restarted channels replay their
  // missed time so the run ends with every healthy channel at the same
  // simulated instant. A failure here is handled exactly like a live one;
  // the restart budget bounds the loop (a channel that keeps failing is
  // quarantined).
  for (;;) {
    runnable_.clear();
    for (std::size_t i = 0; i < states_.size(); ++i) {
      ChannelState& st = states_[i];
      if (st.health == ChannelHealth::Quarantined) continue;
      st.health = ChannelHealth::Running;
      if (st.ticks_done < fleet_tick_) runnable_.push_back(i);
    }
    if (runnable_.empty()) break;
    step(/*live=*/false);
    drain_outputs();
  }
  close_incidents();
}

void FleetSupervisor::corrupt_last_checkpoint(std::size_t i) {
  auto& img = states_[i].last_good;
  const std::size_t at = kCheckpointFrame.header_size() + img.size() / 3;
  if (at < img.size()) img[at] ^= 0x40;
}

void FleetSupervisor::truncate_last_checkpoint(std::size_t i, std::size_t keep) {
  auto& img = states_[i].last_good;
  if (img.size() > keep) img.resize(keep);
}

}  // namespace ascp::engine
