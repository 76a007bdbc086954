#include "platform/engine/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/rng.hpp"
#include "platform/engine/blackbox.hpp"
#include "safety/dtc.hpp"

namespace ascp::engine {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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
    : cfg_(cfg) {
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

  Rng root(cfg_.root_seed);
  states_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto st = std::make_unique<ChannelState>();
    st->config = std::move(specs[i].config);
    if (cfg_.flight_recorders) st->config.with_flight_recorder = true;
    if (cfg_.reseed_channels)
      st->config.seed = root.fork(static_cast<std::uint64_t>(i) + 1).next_u64();
    st->priority = specs[i].priority;
    st->before_advance = std::move(specs[i].before_advance);
    st->channel = std::make_unique<ConditioningChannel>(st->config);
    states_.push_back(std::move(st));
  }

  const unsigned pool_size = static_cast<unsigned>(
      std::min<std::size_t>(cfg_.threads > 1 ? cfg_.threads : 1, states_.size()));
  heartbeats_.reserve(std::max<unsigned>(pool_size, 1));
  for (unsigned k = 0; k < std::max<unsigned>(pool_size, 1); ++k)
    heartbeats_.push_back(std::make_unique<Heartbeat>());
  if (pool_size > 1) {
    pool_.reserve(pool_size);
    for (unsigned k = 0; k < pool_size; ++k)
      pool_.emplace_back([this, k] { worker_loop(k); });
  }

  if (cfg_.tick_deadline_ms > 0.0) {
    watchdog_ = std::thread([this] {
      const auto scan_period =
          std::chrono::microseconds(std::max<std::int64_t>(
              50, static_cast<std::int64_t>(cfg_.tick_deadline_ms * 1000.0 / 4.0)));
      while (!watchdog_stop_.load(std::memory_order_acquire)) {
        const std::int64_t now = steady_ns();
        for (auto& hb : heartbeats_) {
          const long ch = hb->channel.load(std::memory_order_acquire);
          if (ch < 0 || hb->flagged.load(std::memory_order_acquire)) continue;
          const double elapsed_ms =
              static_cast<double>(now - hb->start_ns.load(std::memory_order_acquire)) / 1e6;
          if (elapsed_ms > cfg_.tick_deadline_ms) {
            hb->flagged.store(true, std::memory_order_release);
            std::lock_guard<std::mutex> lk(stall_m_);
            stall_log_.push_back({ch, elapsed_ms});
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
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : pool_) t.join();
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
  ChannelState& st = *states_[i];
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
  ChannelState& st = *states_[i];
  BlackboxImage img;
  img.kind = static_cast<std::uint32_t>(st.config.kind);
  img.seed = st.config.seed;
  img.channel_index = i;
  img.fleet_tick = fleet_tick_;
  img.reason = st.last_error;
  img.dtcs = st.dtcs;
  img.restarts = st.restarts;
  img.health = static_cast<std::uint8_t>(st.health);
  img.rate_dps = st.config.rate_dps;
  img.temp_c = st.config.temp_c;
  img.with_safety = st.config.with_safety;
  img.with_faults = st.config.with_faults;
  // The wrecked instance is still intact here (dump precedes the rebuild) and
  // its fingerprint is always a clean prefix: the hash folds only after a
  // fully successful sensor run.
  img.crash_ticks = st.channel->ticks_advanced();
  img.crash_hash = st.channel->output_hash();
  img.crash_outputs = st.channel->total_outputs();
  img.checkpoint_tick = st.last_good_tick;
  img.checkpoint = st.last_good;  // verbatim — possibly corrupt, replay re-detects
  if (auto* obs = st.channel->observability()) {
    if (auto* rec = st.channel->flight_recorder())
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

void FleetSupervisor::advance_one(std::size_t i, unsigned worker_index) {
  ChannelState& st = *states_[i];
  Heartbeat& hb = *heartbeats_[worker_index];
  hb.flagged.store(false, std::memory_order_relaxed);
  hb.start_ns.store(steady_ns(), std::memory_order_release);
  hb.channel.store(static_cast<long>(i), std::memory_order_release);
  try {
    // Chaos hooks fire for the *live* tick only; the catch-up portion below
    // replays simulated time the channel missed and must stay pure.
    if (st.before_advance) st.before_advance(fleet_tick_);
    // Block-policy backpressure: a full queue pauses the channel (it catches
    // up after the supervisor drains it).
    if (!st.channel->queue_full()) {
      // Advance to the *absolute* base-tick target for this fleet tick, not by
      // a relative delta: per-tick llround deltas accumulate rounding when
      // tick_seconds * base_rate is non-integral, so a channel catching up in
      // one big advance would land on a different global tick than one that
      // ticked live — breaking the clean-twin bit-exactness invariant.
      const long target = std::llround(static_cast<double>(fleet_tick_ + 1) *
                                       cfg_.tick_seconds * st.channel->base_rate_hz());
      st.channel->advance(std::max<long>(0, target - st.channel->ticks_advanced()));
      st.ticks_done = fleet_tick_ + 1;
    }
  } catch (const std::exception& e) {
    st.tick_error = e.what();
    st.tick_failed.store(true, std::memory_order_release);
  } catch (...) {
    st.tick_error = "unknown exception";
    st.tick_failed.store(true, std::memory_order_release);
  }
  hb.channel.store(-1, std::memory_order_release);
}

void FleetSupervisor::worker_loop(unsigned worker_index) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    std::size_t k;
    while ((k = cursor_.fetch_add(1, std::memory_order_relaxed)) < runnable_.size())
      advance_one(runnable_[k], worker_index);
    {
      std::lock_guard<std::mutex> lk(m_);
      if (--active_ == 0) cv_done_.notify_one();
    }
  }
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
      if (st->health == ChannelHealth::Running) top = std::max(top, st->priority);
    shed_below = top;
  }
  bool shed_any = false;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = *states_[i];
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

  const auto wall0 = std::chrono::steady_clock::now();
  if (pool_.empty()) {
    for (std::size_t k = 0; k < runnable_.size(); ++k) advance_one(runnable_[k], 0);
  } else {
    {
      std::lock_guard<std::mutex> lk(m_);
      cursor_.store(0, std::memory_order_relaxed);
      active_ = pool_.size();
      ++generation_;
    }
    cv_work_.notify_all();
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [this] { return active_ == 0; });
  }
  last_tick_wall_ms_ =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall0)
          .count();

  ++fleet_tick_;
  ++stats_.ticks;
  if (cfg_.metrics) cfg_.metrics->add(m_ticks_);

  // Watchdog detections observed during the tick → DTC + event + stats.
  {
    std::vector<StallRecord> stalls;
    {
      std::lock_guard<std::mutex> lk(stall_m_);
      stalls.swap(stall_log_);
    }
    for (const auto& s : stalls) {
      ChannelState& st = *states_[static_cast<std::size_t>(s.channel)];
      st.dtcs |= safety::kDtcEngineFault;
      ++stats_.stalls_detected;
      stats_.stall_detect_ms.push_back(s.elapsed_ms);
      if (cfg_.metrics) cfg_.metrics->add(m_stalls_);
      open_incident(static_cast<std::size_t>(s.channel));
      span_edge("stall_detect", static_cast<std::size_t>(s.channel),
                st.incident_span, "elapsed_ms", s.elapsed_ms);
      emit(obs::EventSeverity::Warn, "worker_stall", "tick deadline exceeded",
           {{"channel", static_cast<double>(s.channel)},
            {"elapsed_ms", s.elapsed_ms},
            {"deadline_ms", cfg_.tick_deadline_ms}});
    }
  }

  handle_failures();
  drain_outputs();
  take_checkpoints();
  close_incidents();
  tick_span.annotate("runnable", static_cast<double>(runnable_.size()));
  tick_span.close(now_sim());
}

void FleetSupervisor::handle_failures() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = *states_[i];
    if (!st.tick_failed.load(std::memory_order_acquire)) continue;
    st.tick_failed.store(false, std::memory_order_relaxed);
    st.last_error = st.tick_error;
    st.dtcs |= safety::kDtcEngineFault;
    ++stats_.exceptions;
    if (cfg_.metrics) cfg_.metrics->add(m_exceptions_);
    open_incident(i);
    span_edge("channel_exception", i, st.incident_span);
    emit(obs::EventSeverity::Error, "channel_exception", st.tick_error,
         {{"channel", static_cast<double>(i)}});
    restart_channel(i);
  }
}

void FleetSupervisor::restart_channel(std::size_t i) {
  ChannelState& st = *states_[i];
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
  st.channel = std::make_unique<ConditioningChannel>(st.config);
  st.ticks_done = 0;
  if (!st.last_good.empty()) {
    try {
      st.channel->restore(st.last_good);
      st.ticks_done = st.last_good_tick;
      span_edge("restore_checkpoint", i, restart_span, "from_tick",
                static_cast<double>(st.last_good_tick));
    } catch (const StateError& e) {
      ++stats_.corrupt_checkpoints;
      span_edge("checkpoint_corrupt", i, restart_span);
      emit(obs::EventSeverity::Error, "checkpoint_corrupt", e.what(),
           {{"channel", static_cast<double>(i)}});
      st.channel = std::make_unique<ConditioningChannel>(st.config);
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
    ChannelState& st = *states_[i];
    if (st.channel->outputs().empty()) continue;
    auto batch = st.channel->take_outputs();
    stats_.delivered_samples += static_cast<long>(batch.size());
    if (cfg_.metrics) cfg_.metrics->add(m_delivered_, static_cast<double>(batch.size()));
    if (consumer_) consumer_(i, std::move(batch));
  }
}

void FleetSupervisor::take_checkpoints() {
  if (cfg_.checkpoint_interval <= 0 || fleet_tick_ % cfg_.checkpoint_interval != 0) return;
  for (auto& stp : states_) {
    ChannelState& st = *stp;
    if (st.health == ChannelHealth::Quarantined) continue;
    if (st.ticks_done != fleet_tick_) continue;  // behind (shed/backoff): skip
    st.last_good = st.channel->snapshot();
    st.last_good_tick = st.ticks_done;
    ++stats_.checkpoints;
    if (cfg_.metrics) cfg_.metrics->add(m_checkpoints_);
  }
}

void FleetSupervisor::close_incidents() {
  for (auto& stp : states_) {
    ChannelState& st = *stp;
    if (!st.incident_open || st.health != ChannelHealth::Running) continue;
    if (st.ticks_done != fleet_tick_) continue;
    st.incident_open = false;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - st.incident_start)
                          .count();
    stats_.mttr_ms.push_back(ms);
    const std::size_t idx = static_cast<std::size_t>(&stp - states_.data());
    span_edge("catch_up", idx, st.incident_span, "mttr_ms", ms);
    if (cfg_.spans && st.incident_span) {
      cfg_.spans->end(st.incident_span, now_sim());
      st.incident_span = 0;
    }
    emit(obs::EventSeverity::Info, "channel_recovered", {},
         {{"channel", static_cast<double>(idx)}, {"mttr_ms", ms}});
  }
}

void FleetSupervisor::run_ticks(long n) {
  for (long k = 0; k < n; ++k) run_one_tick();

  // Final catch-up: shed or backing-off channels replay their missed time so
  // the run ends with every healthy channel at the same simulated instant.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ChannelState& st = *states_[i];
    if (st.health == ChannelHealth::Quarantined) continue;
    st.health = ChannelHealth::Running;
    while (st.ticks_done < fleet_tick_ && !st.tick_failed.load(std::memory_order_relaxed)) {
      if (st.channel->queue_full()) drain_outputs();
      try {
        const long target = std::llround(static_cast<double>(fleet_tick_) *
                                         cfg_.tick_seconds * st.channel->base_rate_hz());
        st.channel->advance(std::max<long>(0, target - st.channel->ticks_advanced()));
        st.ticks_done = fleet_tick_;
      } catch (const std::exception& e) {
        st.tick_error = e.what();
        st.tick_failed.store(true, std::memory_order_release);
      }
    }
    if (st.tick_failed.load(std::memory_order_relaxed)) {
      st.tick_failed.store(false, std::memory_order_relaxed);
      st.last_error = st.tick_error;
      st.dtcs |= safety::kDtcEngineFault;
      ++stats_.exceptions;
      open_incident(i);
      span_edge("channel_exception", i, st.incident_span);
      restart_channel(i);
    }
  }
  drain_outputs();
  close_incidents();
}

void FleetSupervisor::corrupt_last_checkpoint(std::size_t i) {
  auto& img = states_[i]->last_good;
  const std::size_t at = kCheckpointFrame.header_size() + img.size() / 3;
  if (at < img.size()) img[at] ^= 0x40;
}

void FleetSupervisor::truncate_last_checkpoint(std::size_t i, std::size_t keep) {
  auto& img = states_[i]->last_good;
  if (img.size() > keep) img.resize(keep);
}

}  // namespace ascp::engine
