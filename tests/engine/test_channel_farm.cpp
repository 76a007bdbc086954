// Channel-farm engine tests: per-channel seed derivation, cross-thread
// bit-determinism (the farm's core guarantee), and multi-call phase
// continuity. These run real conditioning pipelines, so simulated durations
// are kept short.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv1a.hpp"
#include "core/gyro_system.hpp"
#include "core/noise_crew.hpp"
#include "platform/engine/channel_farm.hpp"
#include "safety/fault_injection.hpp"
#include "safety/standard_faults.hpp"
#include "sensor/stimulus_source.hpp"
#include "support/state_twin.hpp"

namespace ascp::engine {
namespace {

using state_twin::state_of;

/// A constant-stimulus channel of `kind` with the default seed.
ChannelConfig spec(ChannelKind kind, double rate_dps, double temp_c) {
  ChannelConfig c;
  c.kind = kind;
  c.rate_dps = rate_dps;
  c.temp_c = temp_c;
  return c;
}

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
  specs.push_back(spec(ChannelKind::Adxrs300, 50.0, 35.0));
  specs.push_back(spec(ChannelKind::Gyrostar, 40.0, 25.0));
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
  std::vector<ChannelConfig> specs = {spec(ChannelKind::GyroIdeal, 30.0, 25.0),
                                      spec(ChannelKind::Adxrs300, 30.0, 25.0)};
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
  std::vector<ChannelConfig> specs = {spec(ChannelKind::Adxrs300, 25.0, 30.0)};
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
  std::vector<ChannelConfig> specs = {spec(ChannelKind::GyroIdeal, 20.0, 25.0),
                                      throwing_config(/*inject_at=*/100),
                                      spec(ChannelKind::Adxrs300, 40.0, 30.0)};
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
                                      spec(ChannelKind::GyroIdeal, 25.0, 25.0)};
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

ChannelConfig channel(ChannelKind kind, double rate_dps, double temp_c) {
  ChannelConfig c;
  c.kind = kind;
  c.rate_dps = rate_dps;
  c.temp_c = temp_c;
  return c;
}

// ---- run() index checks -----------------------------------------------------

TEST(ChannelFarm, RunRejectsOutOfRangeAndRepeatedIndices) {
  std::vector<ChannelConfig> specs = {channel(ChannelKind::Adxrs300, 10.0, 25.0),
                                      channel(ChannelKind::Adxrs300, 20.0, 25.0)};
  for (const unsigned threads : {1u, 2u}) {
    FarmConfig fc;
    fc.threads = threads;
    ChannelFarm farm(specs, fc);
    std::atomic<int> steps{0};
    const ChannelFarm::Step count = [&](std::size_t, ConditioningChannel&) { ++steps; };
    const std::vector<std::size_t> repeated = {0, 1, 0};
    const std::vector<std::size_t> out_of_range = {1, 2};
    EXPECT_THROW(farm.run(repeated, count), std::invalid_argument);
    EXPECT_THROW(farm.run(out_of_range, count), std::invalid_argument);
    EXPECT_EQ(steps.load(), 0) << "a rejected list must run nothing";
    const std::vector<std::size_t> fine = {1, 0};
    // advance(which, ticks) shares the checks and wants one count per index.
    EXPECT_THROW(farm.advance(repeated, std::vector<long>{8, 8, 8}), std::invalid_argument);
    EXPECT_THROW(farm.advance(fine, std::vector<long>{8}), std::invalid_argument);
    EXPECT_EQ(farm.channel(0).ticks_advanced() + farm.channel(1).ticks_advanced(), 0);
    farm.run(fine, count);
    EXPECT_EQ(steps.load(), 2);
  }
}

// ---- lockstep lanes -----------------------------------------------------------
// advance() runs GyroIdeal channels that share base rate, adc_div and tick
// phase, observed or not, as lockstep groups. Grouping must never move a bit:
// every channel hashes like a solo ConditioningChannel from the same config.

/// Folds every probe frame into an FNV-1a hash.
class FrameHash final : public sensor::Probe {
 public:
  std::uint64_t hash = kFnv1aOutputBasis;
  std::uint64_t frames = 0;
  std::optional<sensor::ProbePoint> only;  ///< the one point wanted (none: every point)
  bool wants(sensor::ProbePoint p) const override { return !only || p == *only; }
  void on_frame(const sensor::ProbeFrame& f) override {
    const double v[] = {static_cast<double>(f.point), static_cast<double>(f.tick), f.a, f.b};
    hash = fnv1a_doubles(hash, v, 4);
    ++frames;
  }
};

void expect_lockstep_matches_solo(unsigned workers) {
  const auto ideal = [](bool open_loop, double rate, double temp) {
    ChannelConfig c = channel(ChannelKind::GyroIdeal, rate, temp);
    c.configure = [open_loop](core::GyroSystemConfig& g) {
      g.sense.mode = open_loop ? core::SenseMode::OpenLoop : core::SenseMode::ClosedLoop;
    };
    return c;
  };
  std::vector<ChannelConfig> specs;
  for (int i = 0; i < 4; ++i) specs.push_back(ideal(true, -40.0 + 25.0 * i, 25.0 + 15.0 * i));
  for (int i = 0; i < 3; ++i) specs.push_back(ideal(false, 30.0 - 20.0 * i, 60.0 - 30.0 * i));
  FrameHash farm_probe;
  ChannelConfig probed = ideal(true, 12.0, 40.0);
  probed.probe = &farm_probe;
  specs.push_back(probed);
  const std::size_t kProbed = specs.size() - 1;
  const std::size_t kRebuilt = 1;
  // A register upset and a quadrature step on the ring, both firing within
  // the run, on a group member.
  ChannelConfig faulted = ideal(true, 55.0, 30.0);
  faulted.campaign_factory = [](core::GyroSystem& g) {
    auto campaign = std::make_unique<safety::FaultCampaign>();
    safety::faults::add_register_bit_flip(*campaign, g, /*at=*/300);
    safety::faults::add_quadrature_step(*campaign, g, /*at=*/600);
    return campaign;
  };
  specs.push_back(faulted);
  const std::size_t kFaulted = specs.size() - 1;
  // Full channels run alone (no lane key) between the groups.
  for (int i = 0; i < 2; ++i)
    specs.push_back(channel(ChannelKind::GyroFull, 20.0 + 15.0 * i, 10.0 + 20.0 * i));

  FarmConfig fc;
  fc.root_seed = 2026;
  fc.threads = workers;
  ChannelFarm farm(specs, fc);

  // Solo twins from the farm's own configs (derived seeds included); the
  // probed twin gets a probe of its own.
  FrameHash solo_probe;
  std::vector<std::unique_ptr<ConditioningChannel>> solo;
  for (std::size_t i = 0; i < farm.size(); ++i) {
    ChannelConfig c = farm.channel(i).config();
    if (i == kProbed) c.probe = &solo_probe;
    solo.push_back(std::make_unique<ConditioningChannel>(c));
  }
  const auto advance_all = [&](long ticks) {
    farm.advance(static_cast<double>(ticks) / farm.channel(0).base_rate_hz());
    for (auto& ch : solo) ch->advance(ticks);
  };
  const long kChunks[] = {1, 7, 13, 1001};
  for (int round = 0; round < 6; ++round) {
    for (const long n : kChunks) advance_all(n);
    if (round == 2) {
      // Rebuilt mid-run: back at tick 0 while the others sit at an odd
      // tick, so its phase within a conversion differs.
      ASSERT_NE(farm.channel(0).ticks_advanced() % 8, 0);
      farm.rebuild_channel(kRebuilt);
      solo[kRebuilt] = std::make_unique<ConditioningChannel>(farm.channel(kRebuilt).config());
    }
  }
  for (int k = 0; k < 12; ++k) advance_all(1001);

  for (std::size_t i = 0; i < farm.size(); ++i) {
    EXPECT_FALSE(farm.channel_failed(i)) << farm.channel_error(i);
    EXPECT_EQ(farm.channel(i).ticks_advanced(), solo[i]->ticks_advanced()) << "channel " << i;
    EXPECT_GT(farm.channel(i).total_outputs(), 0u) << "channel " << i;
    EXPECT_EQ(farm.channel(i).total_outputs(), solo[i]->total_outputs()) << "channel " << i;
    EXPECT_EQ(farm.channel(i).output_hash(), solo[i]->output_hash()) << "channel " << i;
  }
  EXPECT_GT(farm_probe.frames, 0u);
  EXPECT_EQ(farm_probe.frames, solo_probe.frames);
  EXPECT_EQ(farm_probe.hash, solo_probe.hash);

  // The campaign fired: a twin without it streams differently.
  ChannelConfig unfaulted = farm.channel(kFaulted).config();
  unfaulted.campaign_factory = nullptr;
  unfaulted.with_safety = true;
  ConditioningChannel clean(unfaulted);
  clean.advance(farm.channel(kFaulted).ticks_advanced());
  EXPECT_NE(clean.output_hash(), farm.channel(kFaulted).output_hash());
}

TEST(ChannelFarm, LockstepMatchesSoloOneWorker) { expect_lockstep_matches_solo(1); }

TEST(ChannelFarm, LockstepMatchesSoloFourWorkers) { expect_lockstep_matches_solo(4); }

// ---- frame edges --------------------------------------------------------------
// A group steps its rings in MEMS frames that end at every conversion and at
// every noise-crew block edge. Groups at adc_div 5, 8 and 16 advance by 1,
// 7, 63, 64, 65 and 4093 ticks, adc_div rounds over: a round is 4293 ticks,
// prime to each divider, so every length starts from every tick phase. Every
// member must match its solo twin after every advance, in output hash and
// state, with the runs' noise drawn by the calling thread's crew and drawn
// inline. Nine channels make groups of 8 and 1 on one worker, of 3 on four.

/// Runs `fn` on a thread of its own, with a crew of its own or drawing
/// every run's noise inline.
template <typename Fn>
void on_own_thread(bool inline_draws, Fn&& fn) {
  std::thread t([&] {
    if (inline_draws) core::NoiseCrew::draw_inline_here();
    fn();
  });
  t.join();
}

void expect_frame_edges_match_solo(unsigned workers, bool inline_draws) {
  constexpr long kLengths[] = {1, 7, 63, 64, 65, 4093};
  for (const int div : {5, 8, 16}) {
    SCOPED_TRACE("adc_div " + std::to_string(div) + (inline_draws ? ", inline" : ", crew"));
    std::vector<ChannelConfig> specs;
    for (int i = 0; i < 9; ++i) {
      ChannelConfig c = spec(ChannelKind::GyroIdeal, -70.0 + 17.0 * i, 20.0 + 5.0 * i);
      // Odd channels warm every tick, so their frames miss the temperature
      // terms' key on every tick; one channel's flight recorder taps the
      // stimulus.
      if (i % 2 == 1) c.temp_profile = sensor::Profile::ramp(-30.0 + 9.0 * i, 70.0, 0.0, 0.2);
      c.with_flight_recorder = i == 4;
      c.configure = [div](core::GyroSystemConfig& g) { g.adc_div = div; };
      specs.push_back(c);
    }
    FarmConfig fc;
    fc.root_seed = 31;
    fc.threads = workers;
    ChannelFarm farm(specs, fc);
    std::vector<std::unique_ptr<ConditioningChannel>> solo;
    for (std::size_t i = 0; i < farm.size(); ++i)
      solo.push_back(std::make_unique<ConditioningChannel>(farm.channel(i).config()));

    long ticks = 0;
    for (int round = 0; round < div; ++round)
      for (const long n : kLengths) {
        farm.advance(static_cast<double>(n) / farm.channel(0).base_rate_hz());
        for (auto& ch : solo) ch->advance(n);
        ticks += n;
        for (std::size_t i = 0; i < farm.size(); ++i) {
          ConditioningChannel& ch = farm.channel(i);
          ASSERT_FALSE(farm.channel_failed(i)) << farm.channel_error(i);
          ASSERT_EQ(ch.ticks_advanced(), ticks) << "channel " << i;
          ASSERT_EQ(ch.output_hash(), solo[i]->output_hash())
              << "channel " << i << ", " << n << " ticks from tick " << ticks - n;
          ASSERT_EQ(state_of(*ch.gyro()), state_of(*solo[i]->gyro()))
              << "channel " << i << ", " << n << " ticks from tick " << ticks - n;
        }
      }
    EXPECT_GT(farm.channel(0).total_outputs(), 0u);
  }
  // The runs of 64 ticks and more began on this thread's crew.
  const core::NoiseCrew* crew = core::NoiseCrew::here();
  if (!inline_draws && crew) {
    EXPECT_GT(crew->jobs(), 0u);
  }
}

TEST(ChannelFarm, LockstepFrameEdgesMatchSoloOneWorker) {
  for (const bool inline_draws : {false, true})
    on_own_thread(inline_draws, [=] { expect_frame_edges_match_solo(1, inline_draws); });
}

TEST(ChannelFarm, LockstepFrameEdgesMatchSoloFourWorkers) {
  for (const bool inline_draws : {false, true})
    on_own_thread(inline_draws, [=] { expect_frame_edges_match_solo(4, inline_draws); });
}

/// Everything a channel's obs bundle holds that does not read the host
/// clock: metric counters, task invocation counts, events, flight records and
/// spans, each field printed exactly but a span's wall.
std::string obs_fingerprint(const ConditioningChannel& ch) {
  const obs::Observability& o = *ch.observability();
  std::ostringstream os;
  os << std::hexfloat;
  const auto kv = [&os](const char* key, double v) {
    if (key) os << ' ' << key << '=' << v;
  };
  for (const auto& [name, v] : o.metrics.snapshot().counters)
    os << "counter " << name << ' ' << v << '\n';
  for (const auto& t : o.tasks.stats())
    os << "task " << t.name << ' ' << t.divider << ' ' << t.phase << ' ' << t.invocations << '\n';
  o.events.for_each([&](const obs::Event& e) {
    os << "event " << e.t_sim << ' ' << static_cast<int>(e.severity) << ' '
       << static_cast<int>(e.category) << ' ' << e.name << " '" << e.detail << '\'';
    for (const auto& p : e.kv) kv(p.key, p.value);
    os << '\n';
  });
  o.recorder.for_each([&](const obs::FlightRecord& r) {
    os << "record " << r.t_sim << ' ' << static_cast<int>(r.kind) << ' '
       << static_cast<int>(r.severity) << ' ' << static_cast<int>(r.category) << ' ' << r.tick
       << ' ' << r.name << " '" << r.detail << "' " << r.a << ' ' << r.b;
    kv(r.k0, r.v0);
    kv(r.k1, r.v1);
    os << '\n';
  });
  o.spans.for_each([&](const obs::Span& s) {
    os << "span " << s.name << ' ' << static_cast<int>(s.category) << ' ' << s.trace_id << ' '
       << s.span_id << ' ' << s.parent_id << ' ' << s.t_begin << ' ' << s.t_end;
    kv(s.k0, s.v0);
    kv(s.k1, s.v1);
    os << '\n';
  });
  return os.str();
}

// Observed GyroIdeal channels with flight recorders group like bare ones,
// and each member keeps a solo run's bookkeeping in its own bundle: outputs,
// counters, task counts, events, flight records and spans (each run's
// gyro.run among them) all match a solo twin's, for a member that throws too
// (it counts the DSP samples it ran).
void expect_observed_lockstep_matches_solo(unsigned workers) {
  std::vector<ChannelConfig> specs;
  for (int i = 0; i < 5; ++i) {
    ChannelConfig c = channel(ChannelKind::GyroIdeal, -45.0 + 20.0 * i, 60.0 - 15.0 * i);
    c.with_flight_recorder = true;
    specs.push_back(c);
  }
  specs[2].with_flight_recorder = false;
  specs[2].with_obs = true;
  ChannelConfig thrower = throwing_config(/*inject_at=*/700);
  thrower.with_flight_recorder = true;
  specs.push_back(thrower);
  const std::size_t kThrower = specs.size() - 1;

  FarmConfig fc;
  fc.root_seed = 77;
  fc.threads = workers;
  ChannelFarm farm(specs, fc);
  std::vector<std::unique_ptr<ConditioningChannel>> solo;
  for (std::size_t i = 0; i < farm.size(); ++i)
    solo.push_back(std::make_unique<ConditioningChannel>(farm.channel(i).config()));
  bool solo_threw = false;
  for (const long ticks : {3001L, 1L, 4093L, 960L}) {
    farm.advance(static_cast<double>(ticks) / farm.channel(0).base_rate_hz());
    for (std::size_t i = 0; i < solo.size(); ++i) {
      if (i == kThrower && solo_threw) continue;  // failed: the farm skips it too
      try {
        solo[i]->advance(ticks);
      } catch (const std::runtime_error&) {
        ASSERT_EQ(i, kThrower);
        solo_threw = true;
      }
    }
  }
  ASSERT_TRUE(solo_threw);
  for (std::size_t i = 0; i < farm.size(); ++i) {
    EXPECT_EQ(i == kThrower, farm.channel_failed(i)) << farm.channel_error(i);
    EXPECT_EQ(farm.channel(i).output_hash(), solo[i]->output_hash()) << "channel " << i;
    EXPECT_EQ(farm.channel(i).gyro()->dsp_samples(), solo[i]->gyro()->dsp_samples());
    const std::string fp = obs_fingerprint(farm.channel(i));
    EXPECT_EQ(fp, obs_fingerprint(*solo[i])) << "channel " << i;
    for (const char* part : {"counter gyro.runs", "task dsp_frame", "span gyro.run "})
      EXPECT_NE(fp.find(part), std::string::npos) << "channel " << i << ": " << part;
    EXPECT_EQ(fp.find("record ") != std::string::npos, i != 2) << "channel " << i;
  }
  const obs::MetricsSnapshot m = farm.channel(kThrower).observability()->metrics.snapshot();
  EXPECT_EQ(m.counter_value("gyro.dsp_samples"),
            static_cast<double>(farm.channel(kThrower).gyro()->dsp_samples()));
}

TEST(ChannelFarm, ObservedLockstepMatchesSoloOneWorker) {
  expect_observed_lockstep_matches_solo(1);
}

TEST(ChannelFarm, ObservedLockstepMatchesSoloFourWorkers) {
  expect_observed_lockstep_matches_solo(4);
}

// The profiler shares the measured run wall out to the tasks by their share
// of the timed frames' wall, so the task walls sum to the run wall: on an
// observed channel of each kind and on each member of an observed lockstep
// group, each run long enough to time frames (frame 0 is one).
TEST(ChannelFarm, ObservedTaskWallsSumToTheRunWall) {
  const auto expect_sum = [](const obs::TaskProfiler& t, const std::string& who) {
    double sum = 0.0;
    for (const auto& s : t.stats()) sum += s.wall_seconds;
    EXPECT_GT(t.wall_seconds(), 0.0) << who;
    EXPECT_NEAR(sum, t.wall_seconds(), 1e-9 * t.wall_seconds()) << who;
  };
  for (const ChannelKind kind : {ChannelKind::GyroIdeal, ChannelKind::GyroFull,
                                 ChannelKind::Adxrs300, ChannelKind::Gyrostar}) {
    ChannelConfig c;
    c.kind = kind;
    c.with_obs = true;
    ConditioningChannel ch(c);
    for (int i = 0; i < 3; ++i) ch.advance(4001);
    expect_sum(ch.observability()->tasks, "kind " + std::to_string(static_cast<int>(kind)));
  }

  const core::GyroSystemConfig ideal = core::default_gyro_system(core::Fidelity::Ideal);
  core::GyroSystem a(ideal), b(ideal);
  a.power_on(1);
  b.power_on(2);
  obs::Observability oa, ob;
  a.set_observability(oa.sink());
  b.set_observability(ob.sink());
  sensor::SyntheticSource sa(sensor::Profile::constant(20.0), sensor::Profile::constant(25.0),
                             ideal.analog_fs);
  sensor::SyntheticSource sb(sensor::Profile::constant(-30.0), sensor::Profile::constant(40.0),
                             ideal.analog_fs);
  std::array<core::GyroSystem::GroupMember, 2> group{
      {{&a, &sa, nullptr, {}}, {&b, &sb, nullptr, {}}}};
  for (int i = 0; i < 3; ++i) core::GyroSystem::run_group(group, 4001 / ideal.analog_fs);
  expect_sum(oa.tasks, "group member 0");
  expect_sum(ob.tasks, "group member 1");
}

/// Logs which channel each stimulus frame came from, into a log it shares
/// with the other channels' loggers (one worker: no concurrent writers).
class StimulusOrder final : public sensor::Probe {
 public:
  StimulusOrder(std::vector<int>* log, int id) : log_(log), id_(id) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::Stimulus; }
  void on_frame(const sensor::ProbeFrame&) override { log_->push_back(id_); }

 private:
  std::vector<int>* log_;
  int id_;
};

TEST(ChannelFarm, IdealChannelsAdvanceInLockstep) {
  // One worker, so the frame order shows the grouping: the four GyroIdeal
  // channels, observed (3) and with a flight recorder (2) or not, interleave
  // tick by tick; the baseline and the GyroFull channel each run their whole
  // advance alone.
  std::vector<int> log;
  std::vector<std::unique_ptr<StimulusOrder>> probes;
  std::vector<ChannelConfig> specs;
  for (int id = 0; id < 6; ++id) {
    probes.push_back(std::make_unique<StimulusOrder>(&log, id));
    ChannelConfig c;
    c.kind = id == 4   ? ChannelKind::Adxrs300
             : id == 5 ? ChannelKind::GyroFull
                       : ChannelKind::GyroIdeal;
    c.with_obs = id == 3;
    c.with_flight_recorder = id == 2;
    c.probe = probes.back().get();
    specs.push_back(c);
  }
  ChannelFarm farm(specs, FarmConfig{});
  constexpr long kTicks = 50;
  farm.advance(static_cast<double>(kTicks) / farm.channel(0).base_rate_hz());

  ASSERT_EQ(log.size(), static_cast<std::size_t>(6 * kTicks));
  for (long t = 0; t < kTicks; ++t)
    for (int id = 0; id < 4; ++id) ASSERT_EQ(log[static_cast<std::size_t>(4 * t + id)], id);
  for (int id = 4; id < 6; ++id)
    for (long t = 0; t < kTicks; ++t) ASSERT_EQ(log[static_cast<std::size_t>(id * kTicks + t)], id);
}

/// Records ChannelFarm::busy_width of its channel while the channel runs.
class WidthProbe final : public sensor::Probe {
 public:
  WidthProbe(const ChannelFarm* const* farm, std::size_t i) : farm_(farm), i_(i) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::Stimulus; }
  void on_frame(const sensor::ProbeFrame&) override { seen = (*farm_)->busy_width(i_); }
  std::size_t seen = 0;

 private:
  const ChannelFarm* const* farm_;
  std::size_t i_;
};

// A lane group's step is that many channels' work, and busy_width() says so
// while it runs, so a watchdog can scale its per-channel deadline; a lone
// channel, and any run() step, reads 1.
TEST(ChannelFarm, BusyWidthIsTheLaneGroupSize) {
  const ChannelFarm* farm_ptr = nullptr;
  std::vector<std::unique_ptr<WidthProbe>> probes;
  std::vector<ChannelConfig> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    probes.push_back(std::make_unique<WidthProbe>(&farm_ptr, i));
    ChannelConfig c = channel(i < 3 ? ChannelKind::GyroIdeal : ChannelKind::Adxrs300, 10.0, 25.0);
    c.probe = probes.back().get();
    specs.push_back(c);
  }
  ChannelFarm farm(specs, FarmConfig{});
  farm_ptr = &farm;
  farm.advance(16.0 / farm.channel(0).base_rate_hz());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(probes[i]->seen, i < 3 ? 3u : 1u) << i;
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  farm.run(all, [&](std::size_t i, ConditioningChannel&) { EXPECT_EQ(farm.busy_width(i), 1u); });
}

/// Throws from one tap point on one tick. From the post-MEMS tap, that is
/// between a group's analog stage and its DSP frame; from the stimulus tap,
/// before the frame's MEMS step, which a tick-by-tick run had taken.
class ThrowingProbe final : public sensor::Probe {
 public:
  /// With `mems`, it also wants the post-MEMS taps (and never throws from
  /// them), so its channel runs one-tick frames that tap after the step.
  ThrowingProbe(sensor::ProbePoint point, long at, bool mems = false)
      : point_(point), at_(at), mems_(mems) {}
  bool wants(sensor::ProbePoint p) const override {
    return p == point_ || (mems_ && p == sensor::ProbePoint::PostMems);
  }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (f.point == point_ && f.tick == at_) throw std::runtime_error("probe exploded");
  }

 private:
  sensor::ProbePoint point_;
  long at_;
  bool mems_;
};

/// A constant stimulus whose sample for one tick throws. Not final, so a
/// frame stages it through the default sample_block loop.
class ThrowingSource : public sensor::StimulusSource {
 public:
  ThrowingSource(double fs, long at)
      : inner_(sensor::Profile::constant(-20.0), sensor::Profile::constant(35.0), fs), at_(at) {}
  sensor::StimulusKind kind() const override { return inner_.kind(); }
  sensor::StimulusSample sample(long tick) override {
    if (tick == at_) throw std::runtime_error("source exploded");
    return inner_.sample(tick);
  }
  void serialize_state(StateArchive& ar) override { inner_.serialize_state(ar); }

 private:
  sensor::SyntheticSource inner_;
  long at_;
};

TEST(ChannelFarm, ThrowingGroupMembersFailAloneGroupMatesFinish) {
  // Lockstep groups on one worker with five members that throw: one from
  // its fault campaign mid-advance, one from its probe's post-MEMS tap on
  // the first conversion tick, before that tick's DSP frame, and in the
  // second advance two from their probes' stimulus taps and one from its
  // source, each in the middle of a frame on a tick that is no conversion.
  // One of the two tap throwers reads a push queue, whose cursor moves with
  // every sample read, so it must read no further than a tick-by-tick run.
  // Each is marked failed and left as a solo throwing advance leaves it,
  // its source included; the group-mates stream exactly like a farm without
  // the bombs. A member of a group of two at adc_div 4, whose probe wants
  // post-MEMS taps, runs in one-tick frames and sees one frame a tick, as
  // its solo twin does.
  constexpr long kFirst = 38400;  // ticks of the first advance, 20 ms
  constexpr long kQueued = kFirst + kFirst / 2;
  static_assert((kFirst + 1003) % 8 == 3 && (kFirst + 2005) % 8 == 5 &&
                (kFirst + 1501) % 8 == 5);
  ThrowingProbe mems_bomb(sensor::ProbePoint::PostMems, /*at=*/7);
  ThrowingProbe stim_bomb(sensor::ProbePoint::Stimulus, /*at=*/kFirst + 1003);
  ChannelConfig mems_thrower = channel(ChannelKind::GyroIdeal, 30.0, 25.0);
  mems_thrower.probe = &mems_bomb;
  ChannelConfig stim_thrower = channel(ChannelKind::GyroIdeal, -50.0, 40.0);
  stim_thrower.probe = &stim_bomb;
  ChannelConfig source_thrower = channel(ChannelKind::GyroIdeal, 0.0, 25.0);
  source_thrower.stimulus_factory = [](double fs) {
    return std::make_unique<ThrowingSource>(fs, kFirst + 2005);
  };
  FrameHash farm_mems, solo_mems;
  farm_mems.only = sensor::ProbePoint::PostMems;
  solo_mems.only = sensor::ProbePoint::PostMems;
  const auto div4 = [](core::GyroSystemConfig& g) { g.adc_div = 4; };
  ChannelConfig mems_tapped = channel(ChannelKind::GyroIdeal, 15.0, 10.0);
  mems_tapped.configure = div4;
  mems_tapped.probe = &farm_mems;
  ChannelConfig mems_mate = channel(ChannelKind::GyroIdeal, -15.0, 60.0);
  mems_mate.configure = div4;
  ThrowingProbe queue_bomb(sensor::ProbePoint::Stimulus, /*at=*/kFirst + 1501);
  ChannelConfig queue_thrower = channel(ChannelKind::GyroIdeal, 0.0, 25.0);
  queue_thrower.probe = &queue_bomb;
  queue_thrower.stimulus_factory = [](double) {
    sensor::QueueSource::Config qc;
    qc.capacity = kQueued;
    auto q = std::make_unique<sensor::QueueSource>(qc);
    for (long k = 0; k < kQueued; ++k)
      q->push({20.0 * std::sin(1e-3 * static_cast<double>(k)),
               25.0 + 1e-4 * static_cast<double>(k)});
    return q;
  };
  std::vector<ChannelConfig> specs = {channel(ChannelKind::GyroIdeal, 20.0, 25.0),
                                      throwing_config(/*inject_at=*/100),
                                      channel(ChannelKind::GyroIdeal, -35.0, 50.0),
                                      mems_thrower,
                                      channel(ChannelKind::GyroIdeal, 80.0, -10.0),
                                      stim_thrower,
                                      source_thrower,
                                      mems_tapped,
                                      mems_mate,
                                      queue_thrower};
  const std::vector<std::size_t> throwers = {1, 3, 5, 6, 9};
  const std::vector<std::size_t> mates = {0, 2, 4, 7, 8};
  constexpr std::size_t kTapped = 7;
  FarmConfig fc;
  fc.root_seed = 21;
  ChannelFarm farm(specs, fc);
  farm.advance(0.02);
  farm.advance(0.01);

  EXPECT_EQ(farm.failed_channels(), throwers.size());
  EXPECT_EQ(farm.channel_error(1), "campaign action exploded");
  EXPECT_EQ(farm.channel_error(3), "probe exploded");
  EXPECT_EQ(farm.channel_error(5), "probe exploded");
  EXPECT_EQ(farm.channel_error(6), "source exploded");
  EXPECT_EQ(farm.channel_error(9), "probe exploded");
  // The stimulus throwers' twins also tap post-MEMS, so they run one-tick
  // frames that tap after the step, as a tick-by-tick run did.
  ThrowingProbe twin_stim_bomb(sensor::ProbePoint::Stimulus, kFirst + 1003, /*mems=*/true);
  ThrowingProbe twin_queue_bomb(sensor::ProbePoint::Stimulus, kFirst + 1501, /*mems=*/true);
  for (const std::size_t i : throwers) {
    ASSERT_TRUE(farm.channel_failed(i));
    // The solo twin advances as the farm did until it throws.
    ChannelConfig twin = farm.channel(i).config();
    if (i == 5) twin.probe = &twin_stim_bomb;
    if (i == 9) twin.probe = &twin_queue_bomb;
    ConditioningChannel thrower(twin);
    bool threw = false;
    for (const double s : {0.02, 0.01}) {
      try {
        thrower.advance(std::llround(s * thrower.base_rate_hz()));
      } catch (const std::runtime_error&) {
        threw = true;
        break;
      }
    }
    EXPECT_TRUE(threw) << "channel " << i;
    EXPECT_EQ(farm.channel(i).ticks_advanced(), thrower.ticks_advanced());
    EXPECT_EQ(farm.channel(i).outputs().size(), thrower.outputs().size());
    EXPECT_EQ(farm.channel(i).gyro()->dsp_samples(), thrower.gyro()->dsp_samples());
    EXPECT_EQ(state_of(*farm.channel(i).gyro()), state_of(*thrower.gyro())) << "channel " << i;
    EXPECT_EQ(farm.channel(i).stimulus()->cursor(), thrower.stimulus()->cursor())
        << "channel " << i;
    EXPECT_EQ(farm.channel(i).stimulus()->underruns(), thrower.stimulus()->underruns())
        << "channel " << i;
  }
  EXPECT_EQ(farm.channel(9).stimulus()->cursor(), kFirst + 1501 + 1);

  ChannelConfig tapped_solo = farm.channel(kTapped).config();
  tapped_solo.probe = &solo_mems;
  ConditioningChannel tapped(tapped_solo);
  tapped.advance(kFirst);
  tapped.advance(kFirst / 2);
  EXPECT_EQ(farm_mems.frames, static_cast<std::uint64_t>(kFirst + kFirst / 2));
  EXPECT_EQ(farm_mems.frames, solo_mems.frames);
  EXPECT_EQ(farm_mems.hash, solo_mems.hash);
  EXPECT_EQ(farm.channel(kTapped).output_hash(), tapped.output_hash());

  specs[1].campaign_factory = nullptr;
  specs[3].probe = nullptr;
  specs[5].probe = nullptr;
  specs[6].stimulus_factory = nullptr;
  specs[kTapped].probe = nullptr;
  specs[9].probe = nullptr;
  ChannelFarm clean(specs, fc);
  clean.advance(0.02);
  clean.advance(0.01);
  for (const std::size_t i : mates) {
    EXPECT_FALSE(farm.channel_failed(i));
    EXPECT_EQ(farm.channel(i).output_hash(), clean.channel(i).output_hash()) << "channel " << i;
  }
}

}  // namespace
}  // namespace ascp::engine
