// NoiseCrew tests: runs whose analog noise the calling thread's two helpers
// draw ahead end bit for bit where runs that draw inline end — whole runs,
// lockstep groups, runs that throw mid-block and runs nested in another
// run's callback — and a thread starts at most two helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/gyro_system.hpp"
#include "core/noise_crew.hpp"
#include "platform/engine/channel_farm.hpp"
#include "safety/fault_injection.hpp"
#include "support/state_twin.hpp"

namespace ascp::core {
namespace {

using engine::ChannelConfig;
using engine::ChannelFarm;
using engine::ChannelKind;
using engine::ConditioningChannel;
using engine::FarmConfig;
using state_twin::state_of;

/// Runs `fn` on a thread of its own that draws every run's noise inline.
template <typename Fn>
void on_inline_thread(Fn&& fn) {
  std::thread t([&fn] {
    NoiseCrew::draw_inline_here();
    fn();
  });
  t.join();
}

/// Runs this thread's crew has drawn ahead (0 where it draws inline).
std::uint64_t crew_jobs() {
  const NoiseCrew* crew = NoiseCrew::here();
  return crew ? crew->jobs() : 0;
}

/// Advances `ch` by `ticks` in runs of 1, 7 and 63 ticks, each shorter than
/// a ring block, so every run draws inline.
void advance_in_short_runs(ConditioningChannel& ch, long ticks) {
  for (long k = 0; ticks > 0; ++k) {
    const long n = std::min(ticks, std::array<long, 3>{1, 7, 63}[k % 3]);
    ch.advance(n);
    ticks -= n;
  }
}

/// A Full channel whose temperature changes every tick, so the thermal
/// scale of every drawn-ahead deviate moves.
ChannelConfig full_channel() {
  ChannelConfig c;
  c.kind = ChannelKind::GyroFull;
  c.rate_profile = sensor::Profile::sine(80.0, 7.0);
  c.temp_profile = sensor::Profile([](double t) { return 25.0 + 60.0 * std::sin(40.0 * t); });
  return c;
}

std::vector<ChannelConfig> ideal_channels() {
  std::vector<ChannelConfig> specs(8);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].kind = ChannelKind::GyroIdeal;
    specs[i].rate_dps = -90.0 + 25.0 * static_cast<double>(i);
    specs[i].temp_c = -30.0 + 15.0 * static_cast<double>(i);
  }
  return specs;
}

/// Expects channel i of `a` and `b` to have streamed and to hold the same.
void expect_same_channel(ConditioningChannel& a, ConditioningChannel& b, const char* what) {
  EXPECT_EQ(a.ticks_advanced(), b.ticks_advanced()) << what;
  EXPECT_EQ(a.output_hash(), b.output_hash()) << what;
  EXPECT_EQ(state_of(*a.gyro()), state_of(*b.gyro())) << what;
}

TEST(NoiseCrew, HelperDrawnRunsMatchInlineRuns) {
  // On the test thread (a one-worker farm runs its groups there) the helpers
  // draw: a lone Full channel and an 8-member Ideal lockstep group. The
  // references draw inline: a two-worker farm's pool, and runs shorter than
  // a block.
  const long ticks = 192000;  // 0.1 s
  FarmConfig one;
  one.root_seed = 41;
  FarmConfig two = one;
  two.threads = 2;
  for (const std::vector<ChannelConfig>& specs :
       {std::vector<ChannelConfig>{full_channel(), full_channel()}, ideal_channels()}) {
    // The Full case builds two channels so the pool has two workers, and
    // compares the first; the helpers' farm advances only that one.
    const bool full = specs[0].kind == ChannelKind::GyroFull;
    ChannelFarm ahead(full ? std::vector<ChannelConfig>{specs[0]} : specs, one);
    const std::uint64_t jobs = crew_jobs();
    ahead.advance(0.1);
    if (NoiseCrew::here()) {
      EXPECT_GT(crew_jobs(), jobs) << "the helpers drew no run";
    }

    ChannelFarm pool(specs, two);
    pool.advance(0.1);
    for (std::size_t i = 0; i < ahead.size(); ++i) {
      ConditioningChannel runs(ahead.channel(i).config());
      advance_in_short_runs(runs, ticks);
      expect_same_channel(ahead.channel(i), pool.channel(i), "two-worker pool");
      expect_same_channel(ahead.channel(i), runs, "runs of 1, 7 and 63 ticks");
    }
  }
}

/// Throws from the PostAfe tap of tick `at`.
class ThrowingProbe final : public sensor::Probe {
 public:
  explicit ThrowingProbe(long at) : at_(at) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::PostAfe; }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (f.tick == at_) throw std::runtime_error("probe exploded");
  }

 private:
  long at_;
};

TEST(NoiseCrew, ThrowingRunRewindsToItsInlineTwin) {
  // A lone Full run throws mid-block, once from a fault action in the DSP
  // frame of sample 1001 (its streams read 8008 ticks, 8 into a block) and
  // once from a probe mid-frame at tick 4003 (4004 ticks, 36 into a block).
  // The helper-drawn run must end in the state of a twin drawn inline to the
  // same throw, and both must then stream alike.
  const auto rate = sensor::Profile::sine(60.0, 11.0);
  const auto temp = sensor::Profile([](double t) { return 10.0 + 50.0 * t; });
  for (const bool from_probe : {false, true}) {
    GyroSystem ahead(default_gyro_system(Fidelity::Full));
    GyroSystem twin(default_gyro_system(Fidelity::Full));
    ahead.power_on(77);
    twin.power_on(77);
    ThrowingProbe probe_a(4003), probe_b(4003);
    safety::FaultCampaign campaign_a, campaign_b;
    for (safety::FaultCampaign* c : {&campaign_a, &campaign_b})
      c->add({"explode", safety::FaultLayer::Dsp, 1001, -1, false, 0},
             [] { throw std::runtime_error("campaign action exploded"); });
    if (from_probe) {
      ahead.set_probe(&probe_a);
      twin.set_probe(&probe_b);
    } else {
      ahead.set_fault_campaign(&campaign_a);
      twin.set_fault_campaign(&campaign_b);
    }
    const char* what = from_probe ? "probe" : "fault action";

    const std::uint64_t jobs = crew_jobs();
    std::vector<double> out_a, out_b;
    EXPECT_THROW(ahead.run(rate, temp, 0.01, &out_a), std::runtime_error) << what;
    if (NoiseCrew::here()) {
      EXPECT_EQ(crew_jobs(), jobs + 1) << what;
    }
    on_inline_thread([&] { EXPECT_THROW(twin.run(rate, temp, 0.01, &out_b), std::runtime_error); });
    EXPECT_EQ(state_of(ahead), state_of(twin)) << what;
    ASSERT_EQ(out_a, out_b) << what;

    for (GyroSystem* s : {&ahead, &twin}) {
      s->set_probe(nullptr);
      s->set_fault_campaign(nullptr);
    }
    ahead.run(rate, temp, 0.02, &out_a);
    on_inline_thread([&] { twin.run(rate, temp, 0.02, &out_b); });
    ASSERT_EQ(out_a.size(), out_b.size()) << what;
    for (std::size_t i = 0; i < out_a.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out_a[i]), std::bit_cast<std::uint64_t>(out_b[i]))
          << what << ", output " << i;
    EXPECT_EQ(state_of(ahead), state_of(twin)) << what;
  }
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(NoiseCrew, OneCrewPerThreadAndNoneOnPoolWorkers) {
  // Sixteen Full channels advanced one after another on this thread share
  // its one crew of two helpers.
  const std::size_t before = thread_count();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ChannelConfig c = full_channel();
    c.seed = seed;
    ConditioningChannel ch(c);
    ch.advance(3840);
  }
  EXPECT_LE(thread_count(), before + 2);

  // A four-worker farm's workers draw inline: its runs start no thread.
  FarmConfig fc;
  fc.threads = 4;
  ChannelFarm farm(std::vector<ChannelConfig>(8, full_channel()), fc);
  const std::size_t pooled = thread_count();
  farm.advance(0.002);
  EXPECT_EQ(thread_count(), pooled);
  EXPECT_EQ(farm.failed_channels(), 0u);
}

/// Runs `inner` for 5 ms from the PostAdc tap of tick `at` of its system.
class NestingProbe final : public sensor::Probe {
 public:
  NestingProbe(GyroSystem& inner, long at) : inner_(inner), at_(at) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::PostAdc; }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (f.tick != at_) return;
    inner_.run(sensor::Profile::constant(45.0), sensor::Profile::constant(70.0), 0.005, &out);
  }
  std::vector<double> out;

 private:
  GyroSystem& inner_;
  long at_;
};

TEST(NoiseCrew, RunInsideAProbeCallbackDrawsInline) {
  // An Ideal run whose probe runs a Full system mid-run: the outer run has
  // the crew, so the nested one draws inline, and both match twins drawn
  // inline on a thread of their own.
  GyroSystem outer(default_gyro_system(Fidelity::Ideal));
  GyroSystem inner(default_gyro_system(Fidelity::Full));
  outer.power_on(5);
  inner.power_on(6);
  NestingProbe probe(inner, 1007);
  outer.set_probe(&probe);
  const auto rate = sensor::Profile::constant(-20.0), temp = sensor::Profile::constant(30.0);
  std::vector<double> out;
  const std::uint64_t jobs = crew_jobs();
  outer.run(rate, temp, 0.01, &out);
  if (NoiseCrew::here()) {
    EXPECT_EQ(crew_jobs(), jobs + 1) << "only the outer run used the crew";
  }
  ASSERT_FALSE(probe.out.empty());

  GyroSystem outer_twin(default_gyro_system(Fidelity::Ideal)),
      inner_twin(default_gyro_system(Fidelity::Full));
  outer_twin.power_on(5);
  inner_twin.power_on(6);
  std::vector<double> out_twin, inner_out_twin;
  on_inline_thread([&] {
    outer_twin.run(rate, temp, 0.01, &out_twin);
    inner_twin.run(sensor::Profile::constant(45.0), sensor::Profile::constant(70.0), 0.005,
                   &inner_out_twin);
  });
  EXPECT_EQ(out, out_twin);
  EXPECT_EQ(state_of(outer), state_of(outer_twin));
  EXPECT_EQ(probe.out, inner_out_twin);
  EXPECT_EQ(state_of(inner), state_of(inner_twin));
}

}  // namespace
}  // namespace ascp::core
