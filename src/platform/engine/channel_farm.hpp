// channel_farm.hpp — the channel runtime: N ConditioningChannels on one pool.
//
// Runs N independent ConditioningChannels across a fixed pool of worker
// threads: the scale-out layer that turns the single-device simulator into a
// characterization farm (Monte Carlo seed sweeps, mixed platform/baseline
// fleets, per-channel fault campaigns). It is the one channel runtime:
// FleetSupervisor (fleet.hpp) runs on a farm it owns, and only the farm
// builds channels, forks seeds, runs the pool and contains exceptions.
//
// Determinism: each channel's seed is forked from the farm's root seed by
// channel index, every listed channel is stepped by exactly one worker per
// run() call, and channels share no mutable state — so the per-channel
// output streams are byte-identical whether the farm runs on 1 thread or 64.
// Result collection is lock-free: each channel appends to its own
// preallocated output vector; the pool synchronizes only on the work-queue
// cursor (one atomic fetch_add per work unit per run).
//
// Lockstep lanes: advance() runs GyroSystem channels that share a
// GyroSystem::lane_key() (base rate, adc_div, tick phase) and a tick count
// in groups of min(kLanes, ⌈eligible ÷ workers⌉), one
// ConditioningChannel::advance_group per group, so their MEMS rings step
// together in GyroMems::step_lanes. Observed channels group like bare ones;
// each member keeps its own obs bookkeeping. Every other channel advances
// alone, as the group of one: baselines and Full-fidelity gyro channels,
// which have no key. advance(seconds) and the FleetSupervisor's per-channel
// catch-up targets both go through advance(which, ticks), the one grouping
// rule. A member that throws fails alone; its group-mates finish. Grouping
// never changes a bit of any channel's output.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "platform/engine/conditioning_channel.hpp"

namespace ascp::engine {

/// The clock of ChannelFarm::busy_since_ns(): steady_clock time in ns.
inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FarmConfig {
  /// Root of the per-channel seed tree: channel i is powered on with
  /// Rng(root_seed).fork(i + 1).next_u64(), so one number reproduces the
  /// whole farm and channels stay decorrelated.
  std::uint64_t root_seed = 1;
  /// When false, each spec's own `seed` is kept instead of being forked from
  /// root_seed — the conformance fuzzer needs farm-run channels to reproduce
  /// the exact stream of a solo run of the same scenario.
  bool reseed_channels = true;
  /// Worker threads; 0 selects std::thread::hardware_concurrency(). The pool
  /// is created once at construction and reused by every run() call.
  unsigned threads = 1;
  /// Optional farm-level metric registry (non-owning). Workers record
  /// per-channel progress into their thread's shard lock-free; because every
  /// recorded quantity is a commutative sum (counters, histogram buckets),
  /// the merged snapshot is identical for any thread count and any
  /// channel→worker assignment.
  obs::MetricRegistry* shared_metrics = nullptr;
};

class ChannelFarm {
 public:
  /// Work run() applies to channel i on a worker; touches only i's state.
  using Step = std::function<void(std::size_t i, ConditioningChannel& channel)>;

  /// Builds one channel per spec. Each spec's `seed` field is overwritten
  /// with the farm-derived stream for its index (see FarmConfig::root_seed).
  ChannelFarm(std::vector<ChannelConfig> specs, const FarmConfig& cfg);
  ~ChannelFarm();

  ChannelFarm(const ChannelFarm&) = delete;
  ChannelFarm& operator=(const ChannelFarm&) = delete;

  /// Calls step(i, channel(i)) once for each listed channel that has not
  /// failed, each call on exactly one worker. Blocks until all are done.
  /// Throws std::invalid_argument, before any step runs, when an index is
  /// out of range or listed twice.
  void run(std::span<const std::size_t> which, const Step& step);

  /// Advance every channel that has not failed by `seconds` of simulated
  /// base time: advance(which, ticks) with each channel's ticks in
  /// `seconds`. Repeated calls accumulate, with decimation phase carrying
  /// across calls per channel.
  void advance(double seconds);

  /// Advance each listed channel that has not failed by its own count of
  /// base ticks (ticks[k] for which[k]), in lockstep lane groups where the
  /// channels allow (see the file comment). Throws std::invalid_argument,
  /// before any channel advances, when the spans differ in length or an
  /// index is out of range or listed twice.
  void advance(std::span<const std::size_t> which, std::span<const long> ticks);

  std::size_t size() const { return channels_.size(); }
  unsigned threads() const { return threads_; }
  ConditioningChannel& channel(std::size_t i) { return *channels_[i]; }
  const ConditioningChannel& channel(std::size_t i) const { return *channels_[i]; }

  /// Total decimated output samples across all channels so far.
  std::size_t total_samples() const;

  /// steady_ns() at which channel i's current step began, 0 while idle.
  /// Written by the worker; any thread (a watchdog) may read it.
  std::int64_t busy_since_ns(std::size_t i) const {
    return slots_[i]->busy_since_ns.load(std::memory_order_acquire);
  }
  /// Channels in the lane group of channel i's current step (1 when it runs
  /// alone): the step does that many channels' work. Read after
  /// busy_since_ns(i), it belongs to that step or a later one.
  std::size_t busy_width(std::size_t i) const {
    return slots_[i]->busy_width.load(std::memory_order_relaxed);
  }

  // ---- exception containment ----------------------------------------------
  // A channel whose step throws (any type) is marked failed and skipped by
  // every later run; the exception never crosses a worker thread boundary,
  // so the pool and the sibling channels are unaffected. The failed
  // instance is left as it was when it threw, for forensics; its partial
  // state cannot be resumed, only replaced by rebuild_channel().
  bool channel_failed(std::size_t i) const {
    return slots_[i]->failed.load(std::memory_order_acquire);
  }
  /// The captured exception message ("" while the channel is healthy).
  std::string channel_error(std::size_t i) const {
    return channel_failed(i) ? slots_[i]->error : std::string();
  }
  std::size_t failed_channels() const;
  /// Replace channel i with a fresh instance built from its own config()
  /// (derived seed included) and clear its failure. Not during run().
  void rebuild_channel(std::size_t i);

 private:
  // One worker owns a channel for the duration of a run, so `error` is
  // written by exactly one thread before the release-store on `failed`;
  // cross-thread readers pair it with the acquire-load above.
  struct Slot {
    std::atomic<bool> failed{false};
    std::string error;
    std::atomic<std::int64_t> busy_since_ns{0};
    std::atomic<std::size_t> busy_width{1};
  };

  /// Work unit k of a dispatch, run on exactly one worker.
  using Job = std::function<void(std::size_t k)>;

  void worker_loop();
  /// Throws std::invalid_argument when an index is out of range or listed
  /// twice.
  void check_listed(std::span<const std::size_t> which) const;
  /// Runs job(0 … n-1) across the pool and blocks until all are done.
  void dispatch(std::size_t n, const Job& job);
  void run_channel(std::size_t i, const Step& step);
  /// One advance_group over the listed channels (none failed): a lane group,
  /// or a lone channel of any kind as the group of one.
  void run_group(std::span<const std::size_t> group, long n_base_ticks);
  /// Records channel i's step, which threw `error` (null when it did not):
  /// the failure, or the metrics.
  void finish_channel(std::size_t i, std::exception_ptr error, long ticks_before,
                      std::uint64_t outputs_before);

  std::vector<std::unique_ptr<ConditioningChannel>> channels_;
  std::vector<std::unique_ptr<Slot>> slots_;
  unsigned threads_ = 1;

  obs::MetricRegistry* metrics_ = nullptr;
  obs::MetricRegistry::Id m_advances_ = 0, m_samples_ = 0, m_exceptions_ = 0;
  obs::MetricRegistry::Id h_ticks_ = 0;

  // Pool coordination: dispatch() publishes the unit count and job under the
  // mutex and bumps the generation; workers race down the atomic cursor, and
  // the last one out signals completion. Channel work runs with no lock held.
  std::vector<std::thread> pool_;
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_units_ = 0;
  const Job* pending_job_ = nullptr;
  std::atomic<std::size_t> cursor_{0};
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace ascp::engine
