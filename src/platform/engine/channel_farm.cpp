#include "platform/engine/channel_farm.hpp"

#include <cmath>

#include "common/rng.hpp"

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
  all_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (cfg.reseed_channels)
      specs[i].seed = root.fork(static_cast<std::uint64_t>(i) + 1).next_u64();
    channels_.push_back(std::make_unique<ConditioningChannel>(specs[i]));
    slots_.push_back(std::make_unique<Slot>());
    all_.push_back(i);
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
  bool ok = false;
  slot.busy_since_ns.store(steady_ns(), std::memory_order_release);
  try {
    step(i, ch);
    ok = true;
  } catch (const std::exception& e) {
    slot.error = e.what();
  } catch (...) {
    slot.error = "unknown exception";
  }
  slot.busy_since_ns.store(0, std::memory_order_release);
  if (!ok) {
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
    metrics_->add(m_advances_);
    metrics_->add(m_samples_, static_cast<double>(ch.total_outputs() - outputs_before));
    metrics_->observe(h_ticks_, static_cast<double>(ch.ticks_advanced() - ticks_before));
  }
}

void ChannelFarm::run(std::span<const std::size_t> which, const Step& step) {
  if (pool_.empty()) {
    for (std::size_t i : which) run_channel(i, step);
    return;
  }

  {
    std::lock_guard<std::mutex> lk(m_);
    pending_which_ = which;
    pending_step_ = &step;
    cursor_.store(0, std::memory_order_relaxed);
    active_ = pool_.size();
    ++generation_;
  }
  cv_work_.notify_all();

  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [this] { return active_ == 0; });
}

void ChannelFarm::advance(double seconds) {
  // Each channel converts the common wall of simulated time to its own base
  // ticks (farms may mix base rates), exactly as a solo run would.
  run(all_, [seconds](std::size_t, ConditioningChannel& ch) {
    ch.advance(std::llround(seconds * ch.base_rate_hz()));
  });
}

void ChannelFarm::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::span<const std::size_t> which;
    const Step* step = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      which = pending_which_;
      step = pending_step_;
    }

    std::size_t k;
    while ((k = cursor_.fetch_add(1, std::memory_order_relaxed)) < which.size())
      run_channel(which[k], *step);

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
