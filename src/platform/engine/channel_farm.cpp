#include "platform/engine/channel_farm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/gyro_system.hpp"
#include "core/noise_crew.hpp"

namespace ascp::engine {

ChannelFarm::ChannelFarm(std::vector<ChannelConfig> specs, const FarmConfig& cfg) {
  metrics_ = cfg.shared_metrics;
  if (metrics_) {
    m_advances_ = metrics_->counter("farm.channel_advances");
    m_samples_ = metrics_->counter("farm.output_samples");
    m_exceptions_ = metrics_->counter("farm.channel_exceptions");
    h_ticks_ = metrics_->histogram("farm.advance_ticks");
  }
  Rng root(cfg.root_seed);
  channels_.reserve(specs.size());
  slots_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (cfg.reseed_channels)
      specs[i].seed = root.fork(static_cast<std::uint64_t>(i) + 1).next_u64();
    channels_.push_back(std::make_unique<ConditioningChannel>(specs[i]));
    slots_.push_back(std::make_unique<Slot>());
  }

  threads_ = cfg.threads != 0 ? cfg.threads : std::max(1u, std::thread::hardware_concurrency());
  // A worker per channel is the useful maximum; a single worker is the
  // calling thread (no pool at all), which doubles as the reference
  // configuration the determinism tests compare against.
  const unsigned pool_size =
      static_cast<unsigned>(std::min<std::size_t>(threads_, channels_.size()));
  if (pool_size > 1) {
    pool_.reserve(pool_size);
    for (unsigned k = 0; k < pool_size; ++k) pool_.emplace_back([this] { worker_loop(); });
  }
}

ChannelFarm::~ChannelFarm() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : pool_) t.join();
}

void ChannelFarm::run_channel(std::size_t i, const Step& step) {
  Slot& slot = *slots_[i];
  if (slot.failed.load(std::memory_order_acquire)) return;
  ConditioningChannel& ch = *channels_[i];
  const long ticks_before = ch.ticks_advanced();
  const std::uint64_t outputs_before = ch.total_outputs();
  std::exception_ptr error;
  slot.busy_width.store(1, std::memory_order_relaxed);
  slot.busy_since_ns.store(steady_ns(), std::memory_order_release);
  try {
    step(i, ch);
  } catch (...) {
    error = std::current_exception();
  }
  slot.busy_since_ns.store(0, std::memory_order_release);
  finish_channel(i, error, ticks_before, outputs_before);
}

void ChannelFarm::run_group(std::span<const std::size_t> group, long n_base_ticks) {
  constexpr std::size_t kMax = sensor::GyroMems::kLanes;
  std::array<ConditioningChannel*, kMax> members;
  std::array<std::exception_ptr, kMax> errors;
  std::array<long, kMax> ticks_before;
  std::array<std::uint64_t, kMax> outputs_before;
  const std::size_t n = group.size();
  const std::int64_t now = steady_ns();
  for (std::size_t k = 0; k < n; ++k) {
    members[k] = channels_[group[k]].get();
    ticks_before[k] = members[k]->ticks_advanced();
    outputs_before[k] = members[k]->total_outputs();
    slots_[group[k]]->busy_width.store(n, std::memory_order_relaxed);
    slots_[group[k]]->busy_since_ns.store(now, std::memory_order_release);
  }
  try {
    ConditioningChannel::advance_group({members.data(), n}, n_base_ticks, {errors.data(), n});
  } catch (...) {
    // A group that breaks advance_group's rules runs nothing: every member
    // fails with the error, and the worker survives.
    for (std::size_t k = 0; k < n; ++k) errors[k] = std::current_exception();
  }
  for (std::size_t k = 0; k < n; ++k) {
    slots_[group[k]]->busy_since_ns.store(0, std::memory_order_release);
    finish_channel(group[k], errors[k], ticks_before[k], outputs_before[k]);
  }
}

void ChannelFarm::finish_channel(std::size_t i, std::exception_ptr error, long ticks_before,
                                 std::uint64_t outputs_before) {
  Slot& slot = *slots_[i];
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
    // Contain the failure to this channel: the worker thread survives, the
    // siblings never notice, and the channel is skipped from here on.
    slot.failed.store(true, std::memory_order_release);
    if (metrics_) metrics_->add(m_exceptions_);
    return;
  }
  if (metrics_) {
    // Sharded, commutative records only: the merged totals are independent
    // of which worker ran which channel. total_outputs() rather than queue
    // size: a bounded queue can shrink across a step.
    const ConditioningChannel& ch = *channels_[i];
    metrics_->add(m_advances_);
    metrics_->add(m_samples_, static_cast<double>(ch.total_outputs() - outputs_before));
    metrics_->observe(h_ticks_, static_cast<double>(ch.ticks_advanced() - ticks_before));
  }
}

void ChannelFarm::dispatch(std::size_t n, const Job& job) {
  if (pool_.empty()) {
    for (std::size_t k = 0; k < n; ++k) job(k);
    return;
  }

  {
    std::lock_guard<std::mutex> lk(m_);
    pending_units_ = n;
    pending_job_ = &job;
    cursor_.store(0, std::memory_order_relaxed);
    active_ = pool_.size();
    ++generation_;
  }
  cv_work_.notify_all();

  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [this] { return active_ == 0; });
}

void ChannelFarm::check_listed(std::span<const std::size_t> which) const {
  // Each listed channel belongs to exactly one worker: an index out of range
  // or listed twice is rejected before any channel runs.
  std::vector<bool> listed(channels_.size());
  for (std::size_t i : which) {
    if (i >= channels_.size())
      throw std::invalid_argument("ChannelFarm: channel index out of range");
    if (listed[i]) throw std::invalid_argument("ChannelFarm: channel listed twice");
    listed[i] = true;
  }
}

void ChannelFarm::run(std::span<const std::size_t> which, const Step& step) {
  check_listed(which);
  dispatch(which.size(), [&](std::size_t k) { run_channel(which[k], step); });
}

void ChannelFarm::advance(double seconds) {
  // Each channel converts the common span of simulated time to its own base
  // ticks (farms may mix base rates), exactly as a solo run would.
  std::vector<std::size_t> which(channels_.size());
  std::vector<long> ticks(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    which[i] = i;
    ticks[i] = std::llround(seconds * channels_[i]->base_rate_hz());
  }
  advance(which, ticks);
}

void ChannelFarm::advance(std::span<const std::size_t> which, std::span<const long> ticks) {
  if (ticks.size() != which.size())
    throw std::invalid_argument("ChannelFarm::advance: one tick count per listed channel");
  check_listed(which);
  // Lane groups: the gyro channels with a lane key, by key and tick count,
  // in list order. Baselines and gyro channels without a key advance alone.
  struct Bucket {
    core::GyroSystem::LaneKey key;
    long ticks;
    std::vector<std::size_t> channels;
  };
  std::vector<Bucket> buckets;
  std::vector<std::size_t> alone;  // positions in `which`
  std::size_t eligible = 0;
  for (std::size_t at = 0; at < which.size(); ++at) {
    const std::size_t i = which[at];
    if (channel_failed(i)) continue;
    const core::GyroSystem* g = channels_[i]->gyro();
    const std::optional<core::GyroSystem::LaneKey> key = g ? g->lane_key() : std::nullopt;
    if (!key) {
      alone.push_back(at);
      continue;
    }
    auto b = std::find_if(buckets.begin(), buckets.end(), [&](const Bucket& x) {
      return x.key == *key && x.ticks == ticks[at];
    });
    if (b == buckets.end()) b = buckets.insert(b, Bucket{*key, ticks[at], {}});
    b->channels.push_back(i);
    ++eligible;
  }
  // Groups small enough to give every worker one and never wider than
  // kLanes: with no more channels than workers, one channel per worker.
  const std::size_t workers = std::max<std::size_t>(1, pool_.size());
  const std::size_t lanes =
      std::min(sensor::GyroMems::kLanes, (eligible + workers - 1) / workers);

  // Work units as ranges of `order`, each with its tick count: the groups
  // first (the larger units), then the lone channels, each the group of one.
  std::vector<std::size_t> order, start;
  std::vector<long> unit_ticks;
  for (const Bucket& b : buckets)
    for (std::size_t at = 0; at < b.channels.size(); at += lanes) {
      start.push_back(order.size());
      unit_ticks.push_back(b.ticks);
      const auto first = b.channels.begin() + static_cast<std::ptrdiff_t>(at);
      order.insert(order.end(), first,
                   first + static_cast<std::ptrdiff_t>(std::min(lanes, b.channels.size() - at)));
    }
  for (std::size_t at : alone) {
    start.push_back(order.size());
    unit_ticks.push_back(ticks[at]);
    order.push_back(which[at]);
  }
  start.push_back(order.size());

  dispatch(unit_ticks.size(), [&](std::size_t k) {
    run_group({order.data() + start[k], start[k + 1] - start[k]}, unit_ticks[k]);
  });
}

void ChannelFarm::worker_loop() {
  // The pool already spreads channels over the cores: no noise helpers.
  core::NoiseCrew::draw_inline_here();
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t units = 0;
    const Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      units = pending_units_;
      job = pending_job_;
    }

    std::size_t k;
    while ((k = cursor_.fetch_add(1, std::memory_order_relaxed)) < units) (*job)(k);

    {
      std::lock_guard<std::mutex> lk(m_);
      if (--active_ == 0) cv_done_.notify_one();
    }
  }
}

std::size_t ChannelFarm::total_samples() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch->outputs().size();
  return n;
}

std::size_t ChannelFarm::failed_channels() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (channel_failed(i)) ++n;
  return n;
}

void ChannelFarm::rebuild_channel(std::size_t i) {
  channels_[i] = std::make_unique<ConditioningChannel>(channels_[i]->config());
  slots_[i]->error.clear();
  slots_[i]->failed.store(false, std::memory_order_release);
}

}  // namespace ascp::engine
