// Channel-farm engine tests: per-channel seed derivation, cross-thread
// bit-determinism (the farm's core guarantee), and multi-call phase
// continuity. These run real conditioning pipelines, so simulated durations
// are kept short.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "platform/engine/channel_farm.hpp"
#include "safety/fault_injection.hpp"
#include "sensor/stimulus_source.hpp"

namespace ascp::engine {
namespace {

// A mixed fleet: platform customizations at both fidelities (one with the
// safety supervisor + fault campaign active) and both analog baselines.
std::vector<ChannelConfig> mixed_fleet() {
  std::vector<ChannelConfig> specs;
  for (int i = 0; i < 2; ++i) {
    ChannelConfig c;
    c.kind = ChannelKind::GyroFull;
    c.rate_dps = 20.0 + 10.0 * i;
    c.with_faults = (i == 1);  // campaign on a subset of the fleet
    specs.push_back(c);
  }
  for (int i = 0; i < 2; ++i) {
    ChannelConfig c;
    c.kind = ChannelKind::GyroIdeal;
    c.rate_dps = -15.0 + 30.0 * i;
    c.temp_c = 25.0 + 20.0 * i;
    specs.push_back(c);
  }
  specs.push_back({ChannelKind::Adxrs300, 1, 50.0, 35.0});
  specs.push_back({ChannelKind::Gyrostar, 1, 40.0, 25.0});
  return specs;
}

TEST(ChannelFarm, SeedsForkDeterministicallyFromRoot) {
  FarmConfig fc;
  fc.root_seed = 99;
  ChannelFarm a(mixed_fleet(), fc);
  ChannelFarm b(mixed_fleet(), fc);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.channel(i).config().seed, b.channel(i).config().seed);
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_NE(a.channel(i).config().seed, a.channel(j).config().seed);
  }
}

TEST(ChannelFarm, OutputBitIdenticalAcrossThreadCounts) {
  // The acceptance criterion of the whole engine: same root seed, same
  // fleet → byte-identical per-channel streams for 1 vs T worker threads.
  // Two advance() calls make decimation-phase carry-over part of the check.
  auto run_with = [](unsigned threads) {
    FarmConfig fc;
    fc.root_seed = 7;
    fc.threads = threads;
    ChannelFarm farm(mixed_fleet(), fc);
    farm.advance(0.03);
    farm.advance(0.02);
    std::vector<std::pair<std::size_t, std::uint64_t>> sig;
    for (std::size_t i = 0; i < farm.size(); ++i)
      sig.emplace_back(farm.channel(i).outputs().size(), farm.channel(i).output_hash());
    return sig;
  };

  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const auto solo = run_with(1);
  const auto pooled = run_with(hw);
  ASSERT_EQ(solo.size(), pooled.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo[i].first, pooled[i].first) << "channel " << i << " sample count";
    EXPECT_EQ(solo[i].second, pooled[i].second) << "channel " << i << " byte identity";
  }
  // Distinct channels must not produce identical streams (seeds decorrelate).
  EXPECT_NE(solo[0].second, solo[1].second);
}

TEST(ChannelFarm, ChannelsProduceAtTheirOwnDecimatedRates) {
  FarmConfig fc;
  fc.threads = 0;  // hardware concurrency
  std::vector<ChannelConfig> specs = {{ChannelKind::GyroIdeal, 1, 30.0, 25.0},
                                      {ChannelKind::Adxrs300, 1, 30.0, 25.0}};
  ChannelFarm farm(specs, fc);
  farm.advance(0.05);
  // Both decimate to 1.875 kHz from a 1.92 MHz base: ~93 samples in 50 ms.
  for (std::size_t i = 0; i < farm.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(farm.channel(i).outputs().size()), 0.05 * 1875.0, 2.0);
    EXPECT_EQ(farm.channel(i).ticks_advanced(), 96000);
  }
  EXPECT_EQ(farm.total_samples(),
            farm.channel(0).outputs().size() + farm.channel(1).outputs().size());
}

TEST(ChannelFarm, AdvanceAccumulatesLikeOneLongRun) {
  // One 40 ms advance vs four 10 ms advances — constant stimulus profiles
  // make the two bit-identical only if per-channel decimation phase persists
  // across advance() boundaries.
  std::vector<ChannelConfig> specs = {{ChannelKind::Adxrs300, 1, 25.0, 30.0}};
  FarmConfig fc;
  fc.root_seed = 5;
  ChannelFarm one(specs, fc);
  ChannelFarm four(specs, fc);
  one.advance(0.04);
  for (int k = 0; k < 4; ++k) four.advance(0.01);
  ASSERT_EQ(one.channel(0).outputs().size(), four.channel(0).outputs().size());
  EXPECT_EQ(one.channel(0).output_hash(), four.channel(0).output_hash());
}

// ---- exception containment --------------------------------------------------

/// A campaign whose inject Action throws — the canonical "channel crashes
/// mid-advance" stimulus (fires from inside the DSP sample loop, deep under
/// ConditioningChannel::advance).
ChannelConfig throwing_config(long inject_at) {
  ChannelConfig c;
  c.kind = ChannelKind::GyroIdeal;
  c.campaign_factory = [inject_at](core::GyroSystem&) {
    auto campaign = std::make_unique<safety::FaultCampaign>();
    campaign->add({"explode", safety::FaultLayer::Dsp, inject_at, -1, false, 0},
                  [] { throw std::runtime_error("campaign action exploded"); });
    return campaign;
  };
  return c;
}

TEST(ChannelFarm, ThrowingChannelIsContainedSiblingsBitIdentical) {
  // Middle channel throws mid-advance on a worker thread; the exception must
  // not unwind the pool, wedge the barrier, or perturb the siblings' streams.
  std::vector<ChannelConfig> specs = {{ChannelKind::GyroIdeal, 1, 20.0, 25.0},
                                      throwing_config(/*inject_at=*/100),
                                      {ChannelKind::Adxrs300, 1, 40.0, 30.0}};
  FarmConfig fc;
  fc.root_seed = 21;
  fc.threads = 3;
  ChannelFarm farm(specs, fc);
  farm.advance(0.05);

  EXPECT_TRUE(farm.channel_failed(1));
  EXPECT_NE(farm.channel_error(1).find("campaign action exploded"), std::string::npos);
  EXPECT_EQ(farm.failed_channels(), 1u);
  EXPECT_FALSE(farm.channel_failed(0));
  EXPECT_FALSE(farm.channel_failed(2));

  // Clean twin farm: same specs with the bomb defused. Seeds fork by index,
  // so healthy channels must be byte-identical.
  specs[1].campaign_factory = nullptr;
  ChannelFarm clean(specs, fc);
  clean.advance(0.05);
  EXPECT_EQ(farm.channel(0).output_hash(), clean.channel(0).output_hash());
  EXPECT_EQ(farm.channel(2).output_hash(), clean.channel(2).output_hash());
}

TEST(ChannelFarm, FailedChannelIsSkippedByLaterAdvances) {
  std::vector<ChannelConfig> specs = {throwing_config(/*inject_at=*/50),
                                      {ChannelKind::GyroIdeal, 1, 25.0, 25.0}};
  FarmConfig fc;
  fc.root_seed = 3;
  fc.threads = 2;
  ChannelFarm farm(specs, fc);
  farm.advance(0.03);
  ASSERT_TRUE(farm.channel_failed(0));
  const long poisoned_ticks = farm.channel(0).ticks_advanced();

  // Later advances keep the fleet moving and leave the wreck untouched.
  farm.advance(0.03);
  EXPECT_EQ(farm.channel(0).ticks_advanced(), poisoned_ticks);
  EXPECT_EQ(farm.channel(1).ticks_advanced(), 115200);  // 60 ms at 1.92 MHz
  EXPECT_TRUE(farm.channel_failed(0));
  EXPECT_EQ(farm.channel_error(0), "campaign action exploded");
}

TEST(ChannelFarm, ClearedFailureResumesAdvancing) {
  // rebuild_channel is the supervisor's repair hook: it replaces the wreck
  // with a fresh instance built from the channel's own config (derived seed
  // included) and clears the failure, so the farm advances it again from
  // tick 0. The bomb is one-shot: a throw unwinds before FaultCampaign marks
  // the entry injected, so a persistent thrower would just re-fire on the
  // rebuilt channel.
  auto fired = std::make_shared<std::atomic<int>>(0);
  ChannelConfig one_shot;
  one_shot.kind = ChannelKind::GyroIdeal;
  one_shot.campaign_factory = [fired](core::GyroSystem&) {
    auto campaign = std::make_unique<safety::FaultCampaign>();
    campaign->add({"explode_once", safety::FaultLayer::Dsp, 50, -1, false, 0}, [fired] {
      if (fired->fetch_add(1) == 0) throw std::runtime_error("campaign action exploded");
    });
    return campaign;
  };
  std::vector<ChannelConfig> specs = {one_shot};
  FarmConfig fc;
  fc.root_seed = 9;
  ChannelFarm farm(specs, fc);
  farm.advance(0.03);
  ASSERT_TRUE(farm.channel_failed(0));
  const std::uint64_t seed = farm.channel(0).config().seed;

  farm.rebuild_channel(0);
  EXPECT_FALSE(farm.channel_failed(0));
  EXPECT_EQ(farm.channel_error(0), "");
  EXPECT_EQ(farm.channel(0).config().seed, seed);
  EXPECT_EQ(farm.channel(0).ticks_advanced(), 0);
  farm.advance(0.01);
  EXPECT_EQ(farm.channel(0).ticks_advanced(), 19200);  // 10 ms at 1.92 MHz
  ConditioningChannel solo(farm.channel(0).config());
  solo.advance(19200);
  EXPECT_EQ(farm.channel(0).output_hash(), solo.output_hash());
}

TEST(ChannelFarm, ExceptionsAreCountedInSharedMetrics) {
  obs::MetricRegistry metrics;
  std::vector<ChannelConfig> specs = {throwing_config(/*inject_at=*/10),
                                      throwing_config(/*inject_at=*/10)};
  FarmConfig fc;
  fc.threads = 2;
  fc.shared_metrics = &metrics;
  ChannelFarm farm(specs, fc);
  farm.advance(0.02);
  EXPECT_EQ(farm.failed_channels(), 2u);
  EXPECT_EQ(metrics.snapshot().counter_value("farm.channel_exceptions"), 2.0);
}

TEST(ChannelFarm, FaultCampaignChannelDivergesFromCleanTwin) {
  // Same seed with and without the campaign: outputs must differ once the
  // register upset fires, proving the campaign actually runs inside the farm.
  ChannelConfig clean;
  clean.kind = ChannelKind::GyroFull;
  ChannelConfig faulted = clean;
  faulted.with_faults = true;
  FarmConfig fc;
  fc.root_seed = 11;
  // The farm forks seeds by index, so two single-channel farms with the same
  // root give the twins identical seeds.
  ChannelFarm f_clean({clean}, fc);
  ChannelFarm f_faulted({faulted}, fc);
  f_clean.advance(0.05);
  f_faulted.advance(0.05);
  ASSERT_EQ(f_clean.channel(0).config().seed, f_faulted.channel(0).config().seed);
  EXPECT_NE(f_clean.channel(0).output_hash(), f_faulted.channel(0).output_hash());
}

// ---- stimulus-source channels under the farm --------------------------------
// Also the TSan target for the seam: each channel owns its source, so
// QueueSource-fed and RecordedSource-fed channels must race-free bit-match
// across thread counts exactly like profile-fed ones (ci.sh replay stage
// runs this suite under ThreadSanitizer).

ChannelConfig queue_fed_config(int fill_ticks) {
  ChannelConfig cfg;
  cfg.kind = ChannelKind::GyroIdeal;
  cfg.stimulus_factory = [fill_ticks](double) {
    sensor::QueueSource::Config qc;
    qc.capacity = static_cast<std::size_t>(fill_ticks);
    auto q = std::make_unique<sensor::QueueSource>(qc);
    for (int i = 0; i < fill_ticks; ++i)
      q->push({30.0 + 0.01 * static_cast<double>(i % 100), 25.0});
    return q;
  };
  return cfg;
}

TEST(FarmStimulus, QueueFedChannelsBitIdenticalAcrossThreadCounts) {
  const double seconds = 0.02;
  std::vector<ChannelConfig> specs;
  for (int i = 0; i < 4; ++i) specs.push_back(queue_fed_config(20000 + 5000 * i));

  FarmConfig solo;
  solo.threads = 1;
  ChannelFarm f1(specs, solo);
  f1.advance(seconds);

  FarmConfig quad;
  quad.threads = 4;
  ChannelFarm f4(specs, quad);
  f4.advance(seconds);

  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1.channel(i).output_hash(), f4.channel(i).output_hash()) << i;
    EXPECT_EQ(f1.channel(i).stimulus()->underruns(), f4.channel(i).stimulus()->underruns()) << i;
  }
}

TEST(FarmStimulus, RecordedChannelsBitIdenticalAcrossThreadCounts) {
  // One shared immutable trace replayed by every channel — the sharing is
  // what TSan scrutinizes (sources hold shared_ptr<const StimulusTrace>).
  auto trace = std::make_shared<sensor::StimulusTrace>();
  trace->sample_rate_hz = 1.92e6;
  for (int i = 0; i < 50000; ++i)
    trace->samples.push_back({20.0 + 0.001 * static_cast<double>(i % 997), 25.0});

  ChannelConfig cfg;
  cfg.kind = ChannelKind::GyroIdeal;
  cfg.stimulus_factory = [trace](double base_rate_hz) {
    return std::make_unique<sensor::RecordedSource>(trace, base_rate_hz);
  };
  std::vector<ChannelConfig> specs(4, cfg);

  FarmConfig solo;
  solo.threads = 1;
  ChannelFarm f1(specs, solo);
  f1.advance(0.02);

  FarmConfig quad;
  quad.threads = 4;
  ChannelFarm f4(specs, quad);
  f4.advance(0.02);

  for (std::size_t i = 0; i < f1.size(); ++i)
    EXPECT_EQ(f1.channel(i).output_hash(), f4.channel(i).output_hash()) << i;
}

}  // namespace
}  // namespace ascp::engine
