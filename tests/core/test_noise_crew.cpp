// NoiseCrew tests: runs whose analog noise the calling thread's two helpers
// draw ahead end bit for bit where runs that draw inline end — whole runs,
// lockstep groups, runs that throw mid-block or at a block's edge, runs
// nested in another run's callback and runs that hand back to inline draws
// because their helpers are starved — a Full run reads every stream but the
// PGAs' white deviates ahead, and a thread starts at most two helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

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

/// Runs `fn` on a thread of its own, with a crew of its own: a run that
/// handed back to inline draws elsewhere (StarvedRunHandsBackToItsInlineTwin)
/// leaves no cool-down here, so `fn`'s first run begins on the helpers.
template <typename Fn>
void on_crew_thread(Fn&& fn) {
  std::thread t([&fn] { fn(); });
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
    on_crew_thread([&] {
      ahead.advance(0.1);
      if (NoiseCrew::here()) {
        EXPECT_GT(crew_jobs(), 0u) << "the helpers drew no run";
      }
    });

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
  // A lone Full run, on a crew of its own, throws: from a fault action in
  // the DSP frame of sample 1001 (its streams read 8008 ticks, 8 into a
  // block), from a probe mid-frame at tick 4003 (4004 ticks, 36 into a
  // block), from the temperature profile at the start of tick 4480, the
  // first tick of block 70 (every cursor at its row's start), and from a
  // probe at the end of tick 4543, block 70's last (every cursor one past
  // its row's end). The helper-drawn run must end in the state of a twin
  // drawn inline to the same throw, and both must then stream alike.
  enum class Throw { FaultAction, MidBlock, FirstTickOfBlock, LastTickOfBlock };
  const auto rate = sensor::Profile::sine(60.0, 11.0);
  const auto temp = sensor::Profile([](double t) { return 10.0 + 50.0 * t; });
  for (const Throw how :
       {Throw::FaultAction, Throw::MidBlock, Throw::FirstTickOfBlock, Throw::LastTickOfBlock}) {
    GyroSystem ahead(default_gyro_system(Fidelity::Full));
    GyroSystem twin(default_gyro_system(Fidelity::Full));
    ahead.power_on(77);
    twin.power_on(77);
    const long probe_at = how == Throw::MidBlock          ? 4003
                          : how == Throw::LastTickOfBlock ? 70 * NoiseCrew::kBlock + 63
                                                          : -1;
    ThrowingProbe probe_a(probe_at), probe_b(probe_at);
    safety::FaultCampaign campaign_a, campaign_b;
    for (safety::FaultCampaign* c : {&campaign_a, &campaign_b})
      c->add({"explode", safety::FaultLayer::Dsp, 1001, -1, false, 0},
             [] { throw std::runtime_error("campaign action exploded"); });
    if (probe_at >= 0) {
      ahead.set_probe(&probe_a);
      twin.set_probe(&probe_b);
    } else if (how == Throw::FaultAction) {
      ahead.set_fault_campaign(&campaign_a);
      twin.set_fault_campaign(&campaign_b);
    }
    // Half a tick before tick 4480, so the tick's own time t = 4480·dt
    // throws and tick 4479's does not.
    const double t_throw = (70.0 * NoiseCrew::kBlock - 0.5) / ahead.config().analog_fs;
    const sensor::Profile throwing_temp([&temp, t_throw](double t) {
      if (t >= t_throw) throw std::runtime_error("temperature profile exploded");
      return temp.at(t);
    });
    const sensor::Profile& run_temp = how == Throw::FirstTickOfBlock ? throwing_temp : temp;
    const char* what = std::array<const char*, 4>{"fault action", "probe mid-block",
                                                  "a block's first tick",
                                                  "a block's last tick"}[static_cast<int>(how)];

    std::vector<double> out_a, out_b;
    on_crew_thread([&] {
      EXPECT_THROW(ahead.run(rate, run_temp, 0.01, &out_a), std::runtime_error) << what;
      if (NoiseCrew::here()) {
        EXPECT_EQ(crew_jobs(), 1u) << what;
      }
    });
    on_inline_thread(
        [&] { EXPECT_THROW(twin.run(rate, run_temp, 0.01, &out_b), std::runtime_error); });
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

/// Records, at the PostAfe tap of tick `at`, which of a Full system's noise
/// streams read ahead.
class CursorProbe final : public sensor::Probe {
 public:
  CursorProbe(GyroSystem& sys, long at) : sys_(sys), at_(at) {}
  bool wants(sensor::ProbePoint p) const override { return p == sensor::ProbePoint::PostAfe; }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (f.tick == at_) seen = attached(sys_);
  }

  /// Whether each stream has a cursor attached: both charge amps' white and
  /// flicker, both PGAs' white and flicker, the Brownian force.
  struct Attached {
    std::array<bool, 2> amp_white{}, amp_flicker{}, pga_white{}, pga_flicker{};
    bool brownian = false;
    bool any() const {
      for (std::size_t c = 0; c < 2; ++c)
        if (amp_white[c] || amp_flicker[c] || pga_white[c] || pga_flicker[c]) return true;
      return brownian;
    }
  };
  static Attached attached(GyroSystem& sys) {
    Attached a;
    const std::array<afe::NoiseSource*, 2> amps{&sys.champ_primary()->noise(),
                                                &sys.champ_sense()->noise()};
    const std::array<afe::NoiseSource*, 2> pgas{&sys.acq_primary()->amplifier().noise(),
                                                &sys.acq_sense()->amplifier().noise()};
    for (std::size_t c = 0; c < 2; ++c) {
      a.amp_white[c] = amps[c]->white().ahead != nullptr;
      a.amp_flicker[c] = amps[c]->flicker().ahead != nullptr;
      a.pga_white[c] = pgas[c]->white().ahead != nullptr;
      a.pga_flicker[c] = pgas[c]->flicker().ahead != nullptr;
    }
    a.brownian = sys.mems().brownian().ahead != nullptr;
    return a;
  }

  std::optional<Attached> seen;

 private:
  GyroSystem& sys_;
  long at_;
};

TEST(NoiseCrew, FullRunReadsEveryFlickerStreamAhead) {
  // A helper-drawn lone Full run reads both charge amps' white and flicker
  // streams, both PGAs' flicker streams and the Brownian force from the
  // ring; the PGAs' white deviates stay on the calling thread. The probe
  // looks in the middle of the run's first block, the one block a host busy
  // enough to starve the helpers cannot have handed back yet. After the run
  // every cursor is detached.
  on_crew_thread([] {
    const NoiseCrew* crew = NoiseCrew::here();
    if (!crew) GTEST_SKIP() << "this thread draws inline";
    GyroSystem sys(default_gyro_system(Fidelity::Full));
    sys.power_on(3);
    ASSERT_TRUE(sys.acq_primary()->amplifier().noise().has_flicker());
    ASSERT_TRUE(sys.champ_primary()->noise().has_flicker());
    CursorProbe probe(sys, NoiseCrew::kBlock / 2);
    sys.set_probe(&probe);
    std::vector<double> out;
    sys.run(sensor::Profile::constant(30.0), sensor::Profile::constant(40.0), 0.005, &out);
    ASSERT_EQ(crew->jobs(), 1u) << "the helpers drew no run";
    ASSERT_TRUE(probe.seen.has_value());
    const CursorProbe::Attached& mid = *probe.seen;
    for (std::size_t c = 0; c < 2; ++c) {
      const char* chain = c == 0 ? "primary" : "sense";
      EXPECT_TRUE(mid.amp_white[c]) << chain << " charge amp, white";
      EXPECT_TRUE(mid.amp_flicker[c]) << chain << " charge amp, flicker";
      EXPECT_TRUE(mid.pga_flicker[c]) << chain << " PGA, flicker";
      EXPECT_FALSE(mid.pga_white[c]) << chain << " PGA, white";
    }
    EXPECT_TRUE(mid.brownian);
    EXPECT_FALSE(CursorProbe::attached(sys).any()) << "a cursor outlived its run";
  });
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
  // An Ideal run, on a crew of its own, whose probe runs a Full system
  // mid-run: the outer run has the crew, so the nested one draws inline,
  // and both match twins drawn inline on a thread of their own.
  GyroSystem outer(default_gyro_system(Fidelity::Ideal));
  GyroSystem inner(default_gyro_system(Fidelity::Full));
  outer.power_on(5);
  inner.power_on(6);
  NestingProbe probe(inner, 1007);
  outer.set_probe(&probe);
  const auto rate = sensor::Profile::constant(-20.0), temp = sensor::Profile::constant(30.0);
  std::vector<double> out;
  on_crew_thread([&] {
    outer.run(rate, temp, 0.01, &out);
    if (NoiseCrew::here()) {
      EXPECT_EQ(crew_jobs(), 1u) << "only the outer run used the crew";
    }
  });
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

#ifdef __linux__
/// Confines the calling thread to `cpus`.
void confine(std::initializer_list<int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof set, &set), 0);
}

TEST(NoiseCrew, StarvedRunHandsBackToItsInlineTwin) {
  // A fresh thread may run on two CPUs, and a busy thread holds the second.
  // Its crew's helpers start with both CPUs, then the thread confines
  // itself to the first, so the helpers spread to the busy one and draw
  // only in its time slices: the run waits longer than it works, hands
  // back to inline draws mid-run, and must end bit for bit with a twin
  // drawn inline throughout.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";

  std::atomic<bool> stop{false};
  std::thread busy([&] {
    confine({cpus[1]});
    while (!stop.load(std::memory_order_relaxed)) {
    }
  });
  const auto rate = sensor::Profile::sine(90.0, 13.0);
  const auto temp = sensor::Profile([](double t) { return 20.0 + 30.0 * t; });
  GyroSystem ahead(default_gyro_system(Fidelity::Full));
  GyroSystem twin(default_gyro_system(Fidelity::Full));
  ahead.power_on(29);
  twin.power_on(29);
  std::vector<double> out_a, out_b;
  std::uint64_t jobs = 0, handbacks = 0;
  std::thread starved([&] {
    confine({cpus[0], cpus[1]});
    const NoiseCrew* crew = NoiseCrew::here();
    confine({cpus[0]});
    ahead.run(rate, temp, 0.02, &out_a);
    if (crew) {
      jobs = crew->jobs();
      handbacks = crew->handbacks();
    }
  });
  starved.join();
  stop.store(true);
  busy.join();
  on_inline_thread([&] { twin.run(rate, temp, 0.02, &out_b); });
  EXPECT_EQ(jobs, 1u);
  EXPECT_EQ(handbacks, 1u) << "the starved run did not hand back";
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out_a[i]), std::bit_cast<std::uint64_t>(out_b[i]))
        << "output " << i;
  EXPECT_EQ(state_of(ahead), state_of(twin));
}
#endif

}  // namespace
}  // namespace ascp::core
