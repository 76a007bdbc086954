#include "platform/engine/conditioning_channel.hpp"

#include <array>
#include <stdexcept>

#include "core/baselines.hpp"
#include "core/gyro_system.hpp"
#include "safety/standard_faults.hpp"

namespace ascp::engine {

/// Probe tee the channel interposes when the flight recorder is armed:
/// forwards frames the user's probe asked for untouched, and samples the
/// stimulus (strided — the analog tick rate would flood the ring) and every
/// decimated output into the recorder. Read-only like any probe, so the
/// bit-identity contract is preserved.
class ChannelRecorderProbe final : public sensor::Probe {
 public:
  /// Prime stride so the retained stimulus samples never beat against the
  /// chain's power-of-two decimators.
  static constexpr std::uint64_t kStimulusStride = 997;

  ChannelRecorderProbe(obs::FlightRecorder* rec, sensor::Probe* user, double base_rate_hz)
      : rec_(rec), user_(user), base_rate_hz_(base_rate_hz) {}

  bool wants(sensor::ProbePoint p) const override {
    if (p == sensor::ProbePoint::Stimulus || p == sensor::ProbePoint::DecimatedOutput)
      return true;
    return user_ && user_->wants(p);
  }

  void on_frame(const sensor::ProbeFrame& f) override {
    if (user_ && user_->wants(f.point)) user_->on_frame(f);
    // Strided on the global tick, so a channel restored mid-run keeps the
    // same samples as its uninterrupted twin.
    if (f.point == sensor::ProbePoint::Stimulus) {
      if (static_cast<std::uint64_t>(f.tick) % kStimulusStride != 0) return;
    } else if (f.point != sensor::ProbePoint::DecimatedOutput) {
      return;
    }
    rec_->record_probe(static_cast<double>(f.tick) / base_rate_hz_,
                       static_cast<std::uint8_t>(f.point), f.tick, f.a, f.b);
  }

 private:
  obs::FlightRecorder* rec_;
  sensor::Probe* user_;
  double base_rate_hz_;
};

ConditioningChannel::ConditioningChannel(const ChannelConfig& cfg) : cfg_(cfg) {
  // The recorder rides on the obs bundle (ring + event tee + span ids).
  if (cfg_.with_flight_recorder) cfg_.with_obs = true;
  switch (cfg_.kind) {
    case ChannelKind::GyroFull:
    case ChannelKind::GyroIdeal: {
      auto sys_cfg = core::default_gyro_system(
          cfg_.kind == ChannelKind::GyroFull ? core::Fidelity::Full : core::Fidelity::Ideal);
      sys_cfg.with_safety =
          cfg_.with_safety || cfg_.with_faults || static_cast<bool>(cfg_.campaign_factory);
      if (cfg_.configure) cfg_.configure(sys_cfg);
      auto sys = std::make_unique<core::GyroSystem>(sys_cfg);
      gyro_ = sys.get();
      sensor_ = std::move(sys);
      base_rate_hz_ = sys_cfg.analog_fs;
      break;
    }
    case ChannelKind::Adxrs300:
    case ChannelKind::Gyrostar: {
      const auto bl_cfg = cfg_.kind == ChannelKind::Adxrs300 ? core::adxrs300_like()
                                                             : core::gyrostar_like();
      auto bl = std::make_unique<core::AnalogGyroBaseline>(bl_cfg);
      baseline_ = bl.get();
      sensor_ = std::move(bl);
      base_rate_hz_ = bl_cfg.analog_fs;
      break;
    }
  }
  // Register writes and firmware loads land before power_on so config-hook
  // effects (PGA gains, ADC bits, sense mode) are baked into the cold build.
  if (gyro_ && cfg_.customize) cfg_.customize(*gyro_);
  sensor_->power_on(cfg_.seed);

  if (cfg_.with_obs) {
    obs_ = std::make_unique<obs::Observability>();
    // One causal trace per channel, keyed by its seed: every span emitted
    // into this bundle (advance wrappers, timed frame-loop tasks) shares it.
    obs_->spans.set_trace_id(cfg_.seed);
    if (cfg_.with_flight_recorder)
      obs_->events.set_flight_recorder(&obs_->recorder);
    if (gyro_)
      gyro_->set_observability(obs_->sink());
    else
      baseline_->set_observability(obs_->sink());
  }

  if (gyro_ && cfg_.with_trace) {
    trace_ = std::make_unique<TraceRecorder>();
    gyro_->set_trace(trace_.get(), /*decimate=*/64);
  }
  if (gyro_ && cfg_.campaign_factory) {
    campaign_ = cfg_.campaign_factory(*gyro_);
    if (campaign_) gyro_->set_fault_campaign(campaign_.get());
  } else if (gyro_ && cfg_.with_faults) {
    // A transient AFE fault the supervisor detects and outlives, plus a
    // config-register upset — enough to exercise the safety path without
    // permanently wedging the channel.
    campaign_ = std::make_unique<safety::FaultCampaign>();
    safety::faults::add_register_bit_flip(*campaign_, *gyro_, /*at=*/3000);
    if (cfg_.kind == ChannelKind::GyroFull) {
      safety::faults::add_primary_adc_stuck(*campaign_, *gyro_, /*at=*/6000,
                                            /*code=*/1234, /*clear_after=*/2000);
    }
    gyro_->set_fault_campaign(campaign_.get());
  }

  // The stimulus seam: a factory-built source, or a SyntheticSource wrapping
  // the profile fields at origin 0. The channel runs its sensor on this
  // source alone, so its profiles are evaluated on the global tick axis:
  // advance(a); advance(b) — and a checkpoint resume — see the stimulus
  // continue rather than restart at t = 0.
  if (cfg_.stimulus_factory) {
    stimulus_ = cfg_.stimulus_factory(base_rate_hz_);
    if (!stimulus_) throw StateError("channel stimulus factory returned null");
  } else {
    stimulus_ = std::make_unique<sensor::SyntheticSource>(
        cfg_.rate_profile ? *cfg_.rate_profile : sensor::Profile::constant(cfg_.rate_dps),
        cfg_.temp_profile ? *cfg_.temp_profile : sensor::Profile::constant(cfg_.temp_c),
        base_rate_hz_);
  }

  sensor::Probe* probe = cfg_.probe;
  if (cfg_.with_flight_recorder) {
    recorder_probe_ = std::make_unique<ChannelRecorderProbe>(&obs_->recorder, cfg_.probe,
                                                             base_rate_hz_);
    probe = recorder_probe_.get();
  }
  if (probe) {
    if (gyro_)
      gyro_->set_probe(probe);
    else
      baseline_->set_probe(probe);
  }
  // Ingestion-side events (queue underrun) come from the channel itself.
  if (obs_ && stimulus_->kind() != sensor::StimulusKind::Synthetic)
    obs_->events.declare_emitter(obs::EventCategory::Probe, "ConditioningChannel");
  if (cfg_.with_flight_recorder) {
    obs_->events.declare_emitter(obs::EventCategory::Recorder, "ConditioningChannel");
    obs_->events.emit(0.0, obs::EventSeverity::Info, obs::EventCategory::Recorder,
                      "flight_recorder_attach", {},
                      {{"capacity", static_cast<double>(obs_->recorder.capacity())}});
  }
}

ConditioningChannel::~ConditioningChannel() = default;

void ConditioningChannel::advance(long n_base_ticks) {
  ConditioningChannel* self = this;
  std::exception_ptr error;
  advance_group({&self, 1}, n_base_ticks, {&error, 1});
  if (error) std::rethrow_exception(error);
}

void ConditioningChannel::advance_group(std::span<ConditioningChannel* const> group,
                                        long n_base_ticks, std::span<std::exception_ptr> errors) {
  constexpr std::size_t kMax = sensor::GyroMems::kLanes;
  if (group.empty() || group.size() > kMax || errors.size() != group.size())
    throw std::invalid_argument("ConditioningChannel::advance_group: 1 to GyroMems::kLanes "
                                "channels, one error slot each");
  if (group.size() > 1)
    for (ConditioningChannel* ch : group)
      if (!ch->gyro_)
        throw std::invalid_argument("ConditioningChannel::advance_group: only gyro channels group");
  for (std::exception_ptr& e : errors) e = nullptr;
  if (n_base_ticks <= 0) return;

  std::array<Pending, kMax> pending;
  for (std::size_t k = 0; k < group.size(); ++k) group[k]->begin_advance(pending[k]);
  // RateSensor::run() quantizes seconds back to round(seconds·fs) ticks;
  // n/fs survives that round-trip exactly for any realistic tick count.
  const double seconds = static_cast<double>(n_base_ticks) / group[0]->base_rate_hz_;
  if (!group[0]->gyro_) {
    ConditioningChannel& ch = *group[0];
    try {
      ch.sensor_->run(*ch.stimulus_, seconds, &ch.out_);
    } catch (...) {
      errors[0] = std::current_exception();
    }
  } else {
    std::array<core::GyroSystem::GroupMember, kMax> members;
    for (std::size_t k = 0; k < group.size(); ++k)
      members[k] = {group[k]->gyro_, group[k]->stimulus_.get(), &group[k]->out_, {}};
    core::GyroSystem::run_group({members.data(), group.size()}, seconds);
    for (std::size_t k = 0; k < group.size(); ++k) errors[k] = members[k].error;
  }
  // A member that threw skips the bookkeeping, as a throwing advance() does;
  // its span closes as an unwound one.
  for (std::size_t k = 0; k < group.size(); ++k)
    if (!errors[k]) group[k]->end_advance(pending[k], n_base_ticks);
}

void ConditioningChannel::begin_advance(Pending& p) {
  p.outputs_before = out_.size();
  p.dropped_before = dropped_outputs_;
  // Causal wrapper around the whole advance: the task spans of frames timed
  // inside the sensor run parent under it.
  p.span.emplace(obs_ ? &obs_->spans : nullptr, "channel.advance", obs::SpanCategory::Channel,
                 static_cast<double>(ticks_) / base_rate_hz_);
}

void ConditioningChannel::end_advance(Pending& p, long n_base_ticks) {
  ticks_ += n_base_ticks;
  const double t_now = static_cast<double>(ticks_) / base_rate_hz_;
  if (obs_ && stimulus_->underruns() > last_underruns_) {
    obs_->events.emit(t_now, obs::EventSeverity::Warn,
                      obs::EventCategory::Probe, "stimulus_underrun", {},
                      {{"count", static_cast<double>(stimulus_->underruns())}});
  }
  last_underruns_ = stimulus_->underruns();
  // Hash every produced sample before the queue bound can discard any: the
  // fingerprint is a property of the simulation, not of consumer timing.
  hash_ = fnv1a_doubles(hash_, out_.data() + p.outputs_before, out_.size() - p.outputs_before);
  const std::uint64_t produced = out_.size() - p.outputs_before;
  total_outputs_ += produced;
  apply_queue_bound();
  p.span->annotate("ticks", static_cast<double>(n_base_ticks));
  p.span->annotate("outputs", static_cast<double>(produced));
  p.span->close(t_now);
  if (cfg_.with_flight_recorder) {
    obs::FlightRecorder& rec = obs_->recorder;
    rec.record_metric(t_now, "channel.outputs", static_cast<double>(produced));
    if (dropped_outputs_ != p.dropped_before)
      rec.record_metric(t_now, "channel.dropped_outputs",
                        static_cast<double>(dropped_outputs_ - p.dropped_before));
  }
}

void ConditioningChannel::apply_queue_bound() {
  if (cfg_.queue_capacity == 0 || out_.size() <= cfg_.queue_capacity) return;
  const std::size_t excess = out_.size() - cfg_.queue_capacity;
  switch (cfg_.queue_policy) {
    case QueuePolicy::DropOldest:
      out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(excess));
      dropped_outputs_ += excess;
      break;
    case QueuePolicy::Shed:
      out_.resize(cfg_.queue_capacity);
      dropped_outputs_ += excess;
      break;
    case QueuePolicy::Block:
      // Never discard: the queue may legitimately exceed capacity when the
      // owner advanced past the full mark (one advance() can emit several
      // samples); queue_full() already reads true so the owner stops here.
      break;
  }
}

void ConditioningChannel::serialize_state(StateArchive& ar) {
  ar.begin_section("CHAN");
  // Config invariants: restore() only makes sense into a channel built from
  // the same config, so the image carries enough identity to catch misuse.
  std::uint32_t kind = static_cast<std::uint32_t>(cfg_.kind);
  std::uint64_t seed = cfg_.seed;
  ar.value(kind);
  ar.value(seed);
  if (kind != static_cast<std::uint32_t>(cfg_.kind))
    throw StateError("checkpoint channel-kind mismatch");
  if (seed != cfg_.seed) throw StateError("checkpoint channel-seed mismatch");

  // Stimulus-source summary at a fixed offset (ascp_tool inspect reads
  // these two fields without building a channel), then the source's own
  // state so a mid-replay snapshot resumes at the exact cursor.
  std::uint32_t stim_kind = static_cast<std::uint32_t>(stimulus_->kind());
  std::int64_t stim_cursor = stimulus_->cursor();
  ar.value(stim_kind);
  ar.value(stim_cursor);
  if (stim_kind != static_cast<std::uint32_t>(stimulus_->kind()))
    throw StateError("checkpoint stimulus-source kind mismatch");
  stimulus_->serialize_state(ar);
  ar.value(last_underruns_);

  std::int64_t ticks = ticks_;
  ar.value(ticks);
  if (!ar.saving()) ticks_ = static_cast<long>(ticks);
  ar.value(hash_);
  ar.value(total_outputs_);
  ar.value(dropped_outputs_);
  std::uint64_t pending = out_.size();
  ar.value(pending);
  if (!ar.saving()) {
    if (pending > ar.remaining() / sizeof(double))
      throw StateError("checkpoint pending-queue count implausible");
    out_.resize(static_cast<std::size_t>(pending));
  }
  ar.values(out_.data(), out_.size());

  bool has_campaign = campaign_ != nullptr;
  ar.value(has_campaign);
  if (has_campaign != (campaign_ != nullptr))
    throw StateError("checkpoint fault-campaign presence mismatch");
  if (campaign_) campaign_->serialize_state(ar);

  if (gyro_)
    gyro_->serialize_state(ar);
  else
    baseline_->serialize_state(ar);
  ar.end_section();
}

std::vector<std::uint8_t> ConditioningChannel::snapshot() {
  return frame::encode(kCheckpointFrame, {static_cast<std::uint32_t>(cfg_.kind)},
                       [this](StateArchive& ar) { serialize_state(ar); });
}

void ConditioningChannel::restore(const std::vector<std::uint8_t>& image) {
  const frame::Frame f = frame::decode(kCheckpointFrame, image);
  if (f.meta.word != static_cast<std::uint32_t>(cfg_.kind))
    throw StateError("checkpoint is for a different channel kind");
  StateArchive ar = StateArchive::loader(f.payload, f.size);
  serialize_state(ar);
  if (!ar.exhausted()) throw StateError("checkpoint has trailing bytes");
}

}  // namespace ascp::engine
