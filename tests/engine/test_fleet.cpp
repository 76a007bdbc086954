// FleetSupervisor tests: the resilience loop end to end — exception
// containment + restart-from-checkpoint, stall detection, quarantine,
// corrupt-checkpoint demotion to cold rebuild, load shedding, and bounded
// result queues. The recurring invariant is *bit-exactness through
// recovery*: a channel that crashed, restarted and caught up must finish
// with the same output_hash() as a clean twin that never saw chaos.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/observability.hpp"
#include "platform/engine/fleet.hpp"
#include "safety/dtc.hpp"
#include "safety/fault_injection.hpp"

namespace ascp::engine {
namespace {

constexpr double kTickSeconds = 0.002;  // 3840 base ticks per fleet tick

ChannelConfig spec_config(ChannelKind kind) {
  ChannelConfig cfg;
  cfg.kind = kind;
  return cfg;
}

/// The clean twin: a solo channel with the fleet-derived seed for index i,
/// advanced the same total simulated time with no chaos anywhere near it.
/// fork() advances the parent Rng, so seeds must be derived sequentially —
/// exactly as FleetSupervisor's constructor does.
std::uint64_t clean_hash(ChannelKind kind, std::uint64_t root_seed, std::size_t i,
                         long fleet_ticks) {
  Rng root(root_seed);
  std::uint64_t seed = 0;
  for (std::size_t k = 0; k <= i; ++k) seed = root.fork(static_cast<std::uint64_t>(k) + 1).next_u64();
  ChannelConfig cfg = spec_config(kind);
  cfg.seed = seed;
  ConditioningChannel ch(cfg);
  ch.advance(std::llround(static_cast<double>(fleet_ticks) * kTickSeconds * ch.base_rate_hz()));
  return ch.output_hash();
}

FleetConfig base_cfg() {
  FleetConfig fc;
  fc.root_seed = 77;
  fc.threads = 3;
  fc.tick_seconds = kTickSeconds;
  fc.checkpoint_interval = 3;
  fc.max_restarts = 3;
  return fc;
}

const std::vector<ChannelKind> kFleetKinds = {ChannelKind::GyroIdeal, ChannelKind::Adxrs300,
                                              ChannelKind::Gyrostar, ChannelKind::Adxrs300};

std::vector<FleetChannelSpec> make_specs() {
  std::vector<FleetChannelSpec> specs;
  for (ChannelKind k : kFleetKinds) specs.push_back({spec_config(k), 0, nullptr});
  return specs;
}

TEST(Fleet, CleanRunMatchesSoloChannels) {
  const FleetConfig fc = base_cfg();
  FleetSupervisor fleet(make_specs(), fc);
  fleet.run_ticks(10);

  EXPECT_EQ(fleet.stats().exceptions, 0);
  EXPECT_EQ(fleet.stats().quarantined, 0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet.health(i), ChannelHealth::Running) << i;
    EXPECT_EQ(fleet.ticks_done(i), 10) << i;
    EXPECT_EQ(fleet.channel(i).output_hash(), clean_hash(kFleetKinds[i], fc.root_seed, i, 10))
        << i;
  }
  // Checkpoints were taken on the configured cadence.
  EXPECT_GT(fleet.stats().checkpoints, 0);
}

TEST(Fleet, ExceptionRestartsFromCheckpointBitExact) {
  auto specs = make_specs();
  std::atomic<int> crashes{0};
  specs[1].before_advance = [&crashes](long tick) {
    if (tick == 7 && crashes.fetch_add(1) == 0) throw std::runtime_error("injected crash");
  };

  const FleetConfig fc = base_cfg();
  obs::Observability obs;
  FleetConfig with_obs = fc;
  with_obs.metrics = &obs.metrics;
  with_obs.events = &obs.events;
  FleetSupervisor fleet(std::move(specs), with_obs);
  fleet.run_ticks(12);

  EXPECT_EQ(fleet.stats().exceptions, 1);
  EXPECT_EQ(fleet.stats().restarts, 1);
  EXPECT_EQ(fleet.restarts(1), 1);
  EXPECT_NE(fleet.fleet_dtcs(1) & safety::kDtcEngineFault, 0);
  EXPECT_EQ(fleet.health(1), ChannelHealth::Running);
  EXPECT_EQ(fleet.ticks_done(1), 12);
  ASSERT_EQ(fleet.stats().mttr_ms.size(), 1u);
  EXPECT_GT(fleet.stats().mttr_ms[0], 0.0);

  // The recovered channel and every sibling finish bit-identical to clean twins.
  for (std::size_t i = 0; i < fleet.size(); ++i)
    EXPECT_EQ(fleet.channel(i).output_hash(), clean_hash(kFleetKinds[i], fc.root_seed, i, 12))
        << i;

  // Structured Engine events tell the story.
  EXPECT_GT(obs.events.count(obs::EventCategory::Engine), 0u);
}

TEST(Fleet, PersistentCrasherIsQuarantinedSiblingsUnaffected) {
  auto specs = make_specs();
  specs[2].before_advance = [](long) { throw std::runtime_error("always crashes"); };

  const FleetConfig fc = base_cfg();
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(20);

  EXPECT_EQ(fleet.health(2), ChannelHealth::Quarantined);
  EXPECT_EQ(fleet.stats().quarantined, 1);
  EXPECT_GT(fleet.restarts(2), fc.max_restarts);
  EXPECT_NE(fleet.fleet_dtcs(2) & safety::kDtcEngineFault, 0);
  EXPECT_FALSE(fleet.last_error(2).empty());

  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(fleet.health(i), ChannelHealth::Running) << i;
    EXPECT_EQ(fleet.ticks_done(i), 20) << i;
    EXPECT_EQ(fleet.channel(i).output_hash(), clean_hash(kFleetKinds[i], fc.root_seed, i, 20))
        << i;
  }
}

TEST(Fleet, CorruptCheckpointDetectedAndDemotedToColdRebuild) {
  auto specs = make_specs();
  std::atomic<int> crashes{0};
  specs[0].before_advance = [&crashes](long tick) {
    if (tick == 8 && crashes.fetch_add(1) == 0) throw std::runtime_error("crash after corrupt");
  };

  const FleetConfig fc = base_cfg();
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(7);  // checkpoints at ticks 3 and 6
  ASSERT_TRUE(fleet.has_checkpoint(0));
  fleet.corrupt_last_checkpoint(0);
  fleet.run_ticks(5);  // crash at tick 8 → restore fails → cold rebuild + replay

  EXPECT_EQ(fleet.stats().corrupt_checkpoints, 1);
  EXPECT_EQ(fleet.restarts(0), 1);
  EXPECT_EQ(fleet.health(0), ChannelHealth::Running);
  EXPECT_EQ(fleet.ticks_done(0), 12);
  EXPECT_EQ(fleet.channel(0).output_hash(), clean_hash(kFleetKinds[0], fc.root_seed, 0, 12));
}

TEST(Fleet, TruncatedCheckpointAlsoDetected) {
  auto specs = make_specs();
  std::atomic<int> crashes{0};
  specs[3].before_advance = [&crashes](long tick) {
    if (tick == 8 && crashes.fetch_add(1) == 0) throw std::runtime_error("crash");
  };

  const FleetConfig fc = base_cfg();
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(7);
  ASSERT_TRUE(fleet.has_checkpoint(3));
  fleet.truncate_last_checkpoint(3, 40);
  fleet.run_ticks(5);

  EXPECT_EQ(fleet.stats().corrupt_checkpoints, 1);
  EXPECT_EQ(fleet.ticks_done(3), 12);
  EXPECT_EQ(fleet.channel(3).output_hash(), clean_hash(kFleetKinds[3], fc.root_seed, 3, 12));
}

TEST(Fleet, StallDetectedByWatchdogChannelStillCompletes) {
  auto specs = make_specs();
  std::atomic<int> stalls{0};
  specs[1].before_advance = [&stalls](long tick) {
    if (tick == 4 && stalls.fetch_add(1) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };

  FleetConfig fc = base_cfg();
  fc.tick_deadline_ms = 10.0;
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(8);

  EXPECT_GE(fleet.stats().stalls_detected, 1);
  ASSERT_FALSE(fleet.stats().stall_detect_ms.empty());
  EXPECT_GE(fleet.stats().stall_detect_ms[0], fc.tick_deadline_ms);
  EXPECT_NE(fleet.fleet_dtcs(1) & safety::kDtcEngineFault, 0);
  // A stall is detected, not destructive: the channel finished its ticks and
  // its stream is untouched.
  EXPECT_EQ(fleet.ticks_done(1), 8);
  EXPECT_EQ(fleet.channel(1).output_hash(), clean_hash(kFleetKinds[1], fc.root_seed, 1, 8));
}

TEST(Fleet, OverloadShedsLowPriorityThenCatchesUp) {
  auto specs = make_specs();
  for (std::size_t i = 0; i < specs.size(); ++i)
    specs[i].priority = i == 0 ? 1 : 0;  // channel 0 is the protected one

  FleetConfig fc = base_cfg();
  fc.realtime_budget_ms = 1e-6;  // every tick is over budget → constant shedding
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(6);

  EXPECT_GT(fleet.stats().shed_channel_ticks, 0);
  // Shedding postpones work, it never loses it: the final catch-up leaves
  // every channel at the same simulated instant with a clean-twin stream.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet.ticks_done(i), 6) << i;
    EXPECT_EQ(fleet.channel(i).output_hash(), clean_hash(kFleetKinds[i], fc.root_seed, i, 6))
        << i;
  }
}

TEST(Fleet, BoundedQueuesCountDropsWithoutPerturbingTheStream) {
  std::vector<FleetChannelSpec> specs = make_specs();
  // One fleet tick of 2 ms produces three output samples per channel, so a
  // capacity of two forces each overflow policy to engage before the
  // supervisor's post-tick drain.
  specs[1].config.queue_capacity = 2;
  specs[1].config.queue_policy = QueuePolicy::DropOldest;
  specs[2].config.queue_capacity = 2;
  specs[2].config.queue_policy = QueuePolicy::Shed;

  FleetConfig fc = base_cfg();
  FleetSupervisor fleet(std::move(specs), fc);
  // One fat tick produces far more than 4 samples per channel before the
  // supervisor can drain, so the overflow policies engage.
  fleet.run_ticks(1);

  EXPECT_GT(fleet.channel(1).dropped_outputs(), 0u);
  EXPECT_GT(fleet.channel(2).dropped_outputs(), 0u);
  EXPECT_EQ(fleet.channel(0).dropped_outputs(), 0u);
  // The hash streams over *produced* samples, so degradation is invisible
  // to the determinism fingerprint.
  for (std::size_t i = 0; i < fleet.size(); ++i)
    EXPECT_EQ(fleet.channel(i).output_hash(), clean_hash(kFleetKinds[i], fc.root_seed, i, 1))
        << i;
  EXPECT_EQ(fleet.stats().delivered_samples + static_cast<long>(fleet.channel(1).dropped_outputs() +
                                                                fleet.channel(2).dropped_outputs()),
            static_cast<long>(fleet.channel(0).total_outputs() + fleet.channel(1).total_outputs() +
                              fleet.channel(2).total_outputs() + fleet.channel(3).total_outputs()));
}

TEST(Fleet, BlockPolicyBackpressuresInsteadOfDropping) {
  std::vector<FleetChannelSpec> specs = make_specs();
  specs[0].config.queue_capacity = 2;
  specs[0].config.queue_policy = QueuePolicy::Block;

  FleetConfig fc = base_cfg();
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(6);

  // The supervisor drains every tick, so the blocked channel still finishes
  // all its ticks without dropping a sample.
  EXPECT_EQ(fleet.channel(0).dropped_outputs(), 0u);
  EXPECT_EQ(fleet.ticks_done(0), 6);
  EXPECT_EQ(fleet.channel(0).output_hash(), clean_hash(kFleetKinds[0], fc.root_seed, 0, 6));
}

/// Two GyroIdeal channels under constant overload: channel 0 (priority 1)
/// ticks live, channel 1 (priority 0) is shed on every tick after the first,
/// so only the final catch-up of run_ticks(6) reaches DSP sample 1500, where
/// channel 1's one-shot campaign action runs `bomb`.
std::vector<FleetChannelSpec> catch_up_bomb_specs(std::function<void()> bomb) {
  auto fired = std::make_shared<std::atomic<int>>(0);
  ChannelConfig bombed = spec_config(ChannelKind::GyroIdeal);
  bombed.campaign_factory = [fired, bomb](core::GyroSystem&) {
    auto campaign = std::make_unique<safety::FaultCampaign>();
    campaign->add({"explode_in_catch_up", safety::FaultLayer::Dsp, 1500, -1, false, 0},
                  [fired, bomb] {
                    if (fired->fetch_add(1) == 0) bomb();
                  });
    return campaign;
  };
  return {{spec_config(ChannelKind::GyroIdeal), 1, nullptr}, {bombed, 0, nullptr}};
}

FleetConfig overload_cfg() {
  FleetConfig fc = base_cfg();
  fc.realtime_budget_ms = 1e-6;  // every tick is over budget → constant shedding
  return fc;
}

TEST(Fleet, CatchUpExceptionIsContainedCountedAndCaughtUp) {
  obs::Observability obs;
  FleetConfig fc = overload_cfg();
  fc.metrics = &obs.metrics;
  fc.events = &obs.events;
  FleetSupervisor fleet(catch_up_bomb_specs([] { throw std::runtime_error("catch-up bomb"); }),
                        fc);
  fleet.run_ticks(6);

  std::size_t exception_events = 0;
  obs.events.for_each([&](const obs::Event& e) {
    if (std::string_view(e.name) == "channel_exception") ++exception_events;
  });
  EXPECT_EQ(obs.metrics.snapshot().counter_value("fleet.channel_exceptions"), 1.0);
  EXPECT_EQ(fleet.stats().exceptions, 1);
  EXPECT_EQ(exception_events, 1u);
  EXPECT_EQ(fleet.restarts(1), 1);
  EXPECT_EQ(fleet.last_error(1), "catch-up bomb");
  EXPECT_EQ(fleet.health(1), ChannelHealth::Running);
  EXPECT_EQ(fleet.ticks_done(1), fleet.ticks_run());

  // The clean twin: the same config (its one-shot bomb already spent),
  // advanced the same simulated time solo.
  ConditioningChannel twin(fleet.channel(1).config());
  twin.advance(std::llround(6 * kTickSeconds * twin.base_rate_hz()));
  EXPECT_EQ(fleet.channel(1).output_hash(), twin.output_hash());
}

TEST(Fleet, CatchUpNonStdExceptionIsContained) {
  FleetSupervisor fleet(catch_up_bomb_specs([] { throw 42; }), overload_cfg());
  ASSERT_NO_THROW(fleet.run_ticks(6));

  EXPECT_EQ(fleet.stats().exceptions, 1);
  EXPECT_EQ(fleet.restarts(1), 1);
  EXPECT_EQ(fleet.last_error(1), "unknown exception");
  EXPECT_EQ(fleet.health(1), ChannelHealth::Running);
  EXPECT_EQ(fleet.ticks_done(1), fleet.ticks_run());
}

/// Logs (channel, tick) of every Stimulus frame into one shared log: with
/// one worker, the order shows which channels advanced as one group.
class TickOrder final : public sensor::Probe {
 public:
  TickOrder(std::vector<std::pair<int, long>>* log, int id) : log_(log), id_(id) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::Stimulus; }
  void on_frame(const sensor::ProbeFrame& f) override { log_->emplace_back(id_, f.tick); }

 private:
  std::vector<std::pair<int, long>>* log_;
  int id_;
};

// A production-shaped fleet: eight GyroIdeal channels, a GyroFull and a
// baseline, all with flight recorders and checkpoints, and a crash hook on
// one GyroIdeal channel. The GyroIdeal channels advance as one lockstep
// group; the crashed one is restored from its checkpoint, catches up alone
// (its tick count differs) and then rejoins the group. Every channel streams
// like a solo twin, with one worker and with four.
TEST(Fleet, IdealChannelsAdvanceInLanesThroughACrash) {
  constexpr std::size_t kIdeal = 8, kCrasher = 3;
  constexpr long kFleetTicks = 16, kPerTick = 960;  // 0.5 ms at 1.92 MHz
  std::vector<std::pair<int, long>> log;
  std::vector<std::unique_ptr<TickOrder>> probes;
  const auto run = [&](unsigned threads) {
    std::vector<FleetChannelSpec> specs;
    for (std::size_t i = 0; i < kIdeal + 2; ++i) {
      ChannelConfig c = spec_config(i < kIdeal    ? ChannelKind::GyroIdeal
                                    : i == kIdeal ? ChannelKind::GyroFull
                                                  : ChannelKind::Adxrs300);
      c.rate_dps = -60.0 + 15.0 * static_cast<double>(i);
      if (threads == 1) {
        probes.push_back(std::make_unique<TickOrder>(&log, static_cast<int>(i)));
        c.probe = probes.back().get();
      }
      specs.push_back({c, 0, nullptr});
    }
    // Crashes before its live tick 10; the last checkpoint is tick 8.
    specs[kCrasher].before_advance = [](long tick) {
      if (tick == 9) throw std::runtime_error("injected crash");
    };
    FleetConfig fc = base_cfg();
    fc.threads = threads;
    fc.tick_seconds = static_cast<double>(kPerTick) / 1.92e6;
    fc.checkpoint_interval = 4;
    fc.flight_recorders = true;
    auto fleet = std::make_unique<FleetSupervisor>(std::move(specs), fc);
    fleet->run_ticks(kFleetTicks);
    return fleet;
  };
  const auto one = run(1);
  const auto four = run(4);

  for (std::size_t i = 0; i < one->size(); ++i) {
    EXPECT_EQ(one->restarts(i), i == kCrasher ? 1 : 0) << i;
    EXPECT_EQ(one->ticks_done(i), kFleetTicks) << i;
    ChannelConfig c = one->channel(i).config();
    c.probe = nullptr;
    ConditioningChannel twin(c);
    twin.advance(std::llround(static_cast<double>(kFleetTicks) * static_cast<double>(kPerTick) /
                              1.92e6 * twin.base_rate_hz()));
    EXPECT_EQ(one->channel(i).output_hash(), twin.output_hash()) << "channel " << i;
    EXPECT_EQ(four->channel(i).output_hash(), twin.output_hash()) << "channel " << i;
    EXPECT_EQ(four->restarts(i), one->restarts(i)) << i;
  }

  const auto at = [&](int id, long tick) {
    const auto it = std::find(log.rbegin(), log.rend(), std::make_pair(id, tick));
    EXPECT_NE(it, log.rend()) << id << " @ " << tick;
    return static_cast<std::size_t>(log.rend() - it) - 1;  // the last such frame
  };
  const int crasher = static_cast<int>(kCrasher);
  // Grouped from the start: the members interleave tick by tick.
  EXPECT_EQ(log[at(crasher, 0) + 1], std::make_pair(crasher + 1, 0L));
  // The catch-up from the tick-8 checkpoint to tick 12 runs alone.
  const std::size_t from = at(crasher, 8 * kPerTick);
  for (long k = 0; k < 4 * kPerTick; ++k)
    ASSERT_EQ(log[from + static_cast<std::size_t>(k)], std::make_pair(crasher, 8 * kPerTick + k));
  // Then it rejoins the group.
  const std::size_t back = at(crasher, 12 * kPerTick);
  EXPECT_GT(back, from);
  EXPECT_EQ(log[back - 1], std::make_pair(crasher - 1, 12 * kPerTick));
  EXPECT_EQ(log[back + 1], std::make_pair(crasher + 1, 12 * kPerTick));
}

}  // namespace
}  // namespace ascp::engine
