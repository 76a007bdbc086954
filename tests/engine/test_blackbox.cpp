// Blackbox tests: the framed crash-image format (round-trip, distinct error
// messages for every corruption class, non-throwing inspect), the
// supervisor's dump-on-failure path, and the headline forensics invariant —
// a `.blackbox` image replays the wrecked instance's exact output hash,
// including when the embedded checkpoint is itself corrupt. Plus the obs
// bit-identity extension: a recorder-armed channel, solo or supervised at
// any thread count, streams bit-identically to a detached twin.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/state_archive.hpp"
#include "obs/observability.hpp"
#include "platform/engine/blackbox.hpp"
#include "platform/engine/fleet.hpp"
#include "safety/dtc.hpp"

namespace ascp::engine {
namespace {

constexpr double kTickSeconds = 0.002;

BlackboxImage sample_image() {
  BlackboxImage img;
  img.kind = static_cast<std::uint32_t>(ChannelKind::GyroIdeal);
  img.seed = 0xDEADBEEFCAFEull;
  img.channel_index = 3;
  img.fleet_tick = 17;
  img.reason = "injected crash";
  img.dtcs = 0x4000;
  img.restarts = 2;
  img.health = 1;
  img.rate_dps = 42.5;
  img.temp_c = 31.0;
  img.crash_ticks = 123456;
  img.crash_hash = 0x1122334455667788ull;
  img.crash_outputs = 120;
  img.checkpoint_tick = 12;
  img.checkpoint = {1, 2, 3, 4, 5};

  BlackboxFlightRecord r;
  r.t_sim = 0.5;
  r.kind = 1;
  r.name = "channel.outputs";
  r.a = 64.0;
  img.records.push_back(r);

  BlackboxSpan s;
  s.trace_id = 7;
  s.span_id = 9;
  s.parent_id = 8;
  s.name = "restart";
  s.category = 2;
  s.t_begin = 0.1;
  s.t_end = 0.2;
  s.k0 = "channel";
  s.v0 = 3.0;
  img.fleet_spans.push_back(s);

  img.counters.push_back({"fleet.restarts", 2.0});
  img.gauges.push_back({"queue.depth", 17.0});
  return img;
}

TEST(Blackbox, EncodeDecodeRoundTripsEveryField) {
  const BlackboxImage img = sample_image();
  const auto bytes = encode_blackbox(img);
  ASSERT_GT(bytes.size(), kBlackboxFrame.header_size());

  const BlackboxImage back = decode_blackbox(bytes);
  EXPECT_EQ(back.kind, img.kind);
  EXPECT_EQ(back.seed, img.seed);
  EXPECT_EQ(back.channel_index, 3u);
  EXPECT_EQ(back.fleet_tick, 17);
  EXPECT_EQ(back.reason, "injected crash");
  EXPECT_EQ(back.dtcs, 0x4000);
  EXPECT_EQ(back.restarts, 2);
  EXPECT_EQ(back.health, 1);
  EXPECT_DOUBLE_EQ(back.rate_dps, 42.5);
  EXPECT_DOUBLE_EQ(back.temp_c, 31.0);
  EXPECT_EQ(back.crash_ticks, 123456);
  EXPECT_EQ(back.crash_hash, img.crash_hash);
  EXPECT_EQ(back.crash_outputs, 120u);
  EXPECT_EQ(back.checkpoint_tick, 12);
  EXPECT_EQ(back.checkpoint, img.checkpoint);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].name, "channel.outputs");
  EXPECT_DOUBLE_EQ(back.records[0].a, 64.0);
  EXPECT_TRUE(back.channel_spans.empty());
  ASSERT_EQ(back.fleet_spans.size(), 1u);
  EXPECT_EQ(back.fleet_spans[0].name, "restart");
  EXPECT_EQ(back.fleet_spans[0].parent_id, 8u);
  EXPECT_EQ(back.fleet_spans[0].k0, "channel");
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "fleet.restarts");
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.gauges[0].value, 17.0);
}

TEST(Blackbox, InspectParsesHeaderWithoutThrowing) {
  const auto bytes = encode_blackbox(sample_image());
  frame::Header info;
  ASSERT_TRUE(frame::inspect(kBlackboxFrame, bytes, &info));
  EXPECT_EQ(info.version, kBlackboxFrame.version);
  EXPECT_EQ(info.meta.word, static_cast<std::uint32_t>(ChannelKind::GyroIdeal));
  EXPECT_EQ(info.length, bytes.size() - kBlackboxFrame.header_size());
  EXPECT_TRUE(info.crc_ok);

  // Bit-rot is visible through inspect without a throw.
  auto bad = bytes;
  bad[kBlackboxFrame.header_size() + bad.size() / 2] ^= 0x10;
  ASSERT_TRUE(frame::inspect(kBlackboxFrame, bad, &info));
  EXPECT_FALSE(info.crc_ok);

  // Too-short and wrong-magic streams are the only false cases.
  EXPECT_FALSE(frame::inspect(kBlackboxFrame, {1, 2, 3}, &info));
  auto wrong = bytes;
  wrong[0] = 'X';
  EXPECT_FALSE(frame::inspect(kBlackboxFrame, wrong, &info));
}

TEST(Blackbox, DistinctErrorsPerCorruptionClass) {
  const auto bytes = encode_blackbox(sample_image());

  const auto message = [](const std::vector<std::uint8_t>& b) -> std::string {
    try {
      decode_blackbox(b);
    } catch (const StateError& e) {
      return e.what();
    }
    return "";
  };

  // No header at all.
  EXPECT_NE(message({1, 2, 3}).find("blackbox truncated: no header"), std::string::npos);

  // Wrong magic — a checkpoint stream must not decode as a blackbox.
  auto wrong = bytes;
  wrong[3] = 'Z';
  EXPECT_NE(message(wrong).find("blackbox bad magic"), std::string::npos);

  // Future version.
  auto vfut = bytes;
  vfut[8] = 99;  // little-endian version field at offset 8
  EXPECT_NE(message(vfut).find("version 99 unsupported"), std::string::npos);
  EXPECT_NE(message(vfut).find("blackbox"), std::string::npos);

  // Truncated payload.
  auto trunc = bytes;
  trunc.resize(bytes.size() - 7);
  EXPECT_NE(message(trunc).find("blackbox truncated: payload shorter than declared"),
            std::string::npos);

  // Single bit flip anywhere in the payload → CRC mismatch.
  auto flip = bytes;
  flip[kBlackboxFrame.header_size() + flip.size() / 3] ^= 0x01;
  EXPECT_NE(message(flip).find("blackbox CRC mismatch: payload corrupted"),
            std::string::npos);

  // All five classes produce *blackbox* errors, never "checkpoint …".
  for (const auto& m :
       {message({1, 2, 3}), message(wrong), message(vfut), message(trunc), message(flip)})
    EXPECT_EQ(m.find("checkpoint"), std::string::npos) << m;
}

TEST(Blackbox, SupervisorDumpsOnExceptionAndReplayReproducesHash) {
  std::vector<FleetChannelSpec> specs(2);
  specs[0].config.kind = ChannelKind::GyroIdeal;
  specs[1].config.kind = ChannelKind::Adxrs300;
  std::atomic<int> crashes{0};
  specs[1].before_advance = [&crashes](long tick) {
    if (tick == 6 && crashes.fetch_add(1) == 0) throw std::runtime_error("injected crash");
  };

  FleetConfig fc;
  fc.root_seed = 77;
  fc.threads = 2;
  fc.tick_seconds = kTickSeconds;
  fc.checkpoint_interval = 3;
  fc.flight_recorders = true;
  obs::Observability obs;
  fc.metrics = &obs.metrics;
  fc.events = &obs.events;
  fc.spans = &obs.spans;
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> dumps;
  fc.blackbox_sink = [&dumps](std::size_t ch, const std::vector<std::uint8_t>& image) {
    dumps.emplace_back(ch, image);
  };
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(10);

  EXPECT_EQ(fleet.stats().restarts, 1);
  EXPECT_EQ(fleet.stats().blackbox_dumps, 1);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].first, 1u);

  const BlackboxImage img = decode_blackbox(dumps[0].second);
  EXPECT_EQ(img.kind, static_cast<std::uint32_t>(ChannelKind::Adxrs300));
  EXPECT_EQ(img.channel_index, 1u);
  EXPECT_EQ(img.reason, "injected crash");
  EXPECT_NE(img.dtcs & safety::kDtcEngineFault, 0);
  // The failed tick is counted before handle_failures runs, so the dump is
  // stamped with the tick after the crash tick.
  EXPECT_EQ(img.fleet_tick, 7);
  EXPECT_GT(img.crash_ticks, 0);
  EXPECT_FALSE(img.checkpoint.empty());  // last-good at tick 6 exists
  EXPECT_GT(img.records.size(), 0u);     // armed recorder ring travelled along
  EXPECT_GT(img.fleet_spans.size(), 0u); // causal context travelled along

  // The headline invariant: the image alone reproduces the failure state.
  const BlackboxReplay rep = replay_blackbox(img);
  EXPECT_TRUE(rep.checkpoint_used);
  EXPECT_FALSE(rep.checkpoint_corrupt);
  EXPECT_EQ(rep.replay_ticks, img.crash_ticks);
  EXPECT_EQ(rep.replay_hash, img.crash_hash);
  EXPECT_EQ(rep.replay_outputs, img.crash_outputs);
  EXPECT_TRUE(rep.hash_match);

  // The fleet spans narrate the incident lifecycle.
  bool saw_exception = false, saw_restart = false;
  obs.spans.for_each([&](const obs::Span& s) {
    if (std::string(s.name) == "channel_exception") saw_exception = true;
    if (std::string(s.name) == "restart") saw_restart = true;
  });
  EXPECT_TRUE(saw_exception);
  EXPECT_TRUE(saw_restart);
}

TEST(Blackbox, CorruptEmbeddedCheckpointDemotesToColdReplayStillBitExact) {
  std::vector<FleetChannelSpec> specs(1);
  specs[0].config.kind = ChannelKind::Gyrostar;
  std::atomic<int> crashes{0};
  specs[0].before_advance = [&crashes](long tick) {
    if (tick == 7 && crashes.fetch_add(1) == 0) throw std::runtime_error("crash");
  };

  FleetConfig fc;
  fc.root_seed = 31;
  fc.tick_seconds = kTickSeconds;
  fc.checkpoint_interval = 3;
  fc.flight_recorders = true;
  std::vector<std::vector<std::uint8_t>> dumps;
  fc.blackbox_sink = [&dumps](std::size_t, const std::vector<std::uint8_t>& image) {
    dumps.push_back(image);
  };
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(6);
  fleet.corrupt_last_checkpoint(0);  // sabotage BEFORE the crash dump happens
  fleet.run_ticks(4);

  ASSERT_EQ(dumps.size(), 1u);
  const BlackboxImage img = decode_blackbox(dumps[0]);
  EXPECT_FALSE(img.checkpoint.empty());  // carried verbatim, corrupt and all

  const BlackboxReplay rep = replay_blackbox(img);
  EXPECT_FALSE(rep.checkpoint_used);
  EXPECT_TRUE(rep.checkpoint_corrupt);  // detected exactly like the supervisor
  EXPECT_TRUE(rep.hash_match);          // cold replay still reproduces the hash
}

TEST(Blackbox, QuarantinedChannelLeavesReplayableImages) {
  std::vector<FleetChannelSpec> specs(1);
  specs[0].config.kind = ChannelKind::GyroIdeal;
  specs[0].before_advance = [](long tick) {
    if (tick >= 5) throw std::runtime_error("persistent crasher");
  };

  FleetConfig fc;
  fc.root_seed = 55;
  fc.tick_seconds = kTickSeconds;
  fc.checkpoint_interval = 2;
  fc.max_restarts = 2;
  fc.backoff_base_ticks = 1;
  fc.backoff_cap_ticks = 1;
  fc.flight_recorders = true;
  std::vector<std::vector<std::uint8_t>> dumps;
  fc.blackbox_sink = [&dumps](std::size_t, const std::vector<std::uint8_t>& image) {
    dumps.push_back(image);
  };
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(16);

  ASSERT_EQ(fleet.health(0), ChannelHealth::Quarantined);
  // One dump per restart_channel entry: max_restarts restarts + the final
  // quarantining failure.
  EXPECT_EQ(fleet.stats().blackbox_dumps, fc.max_restarts + 1);
  ASSERT_EQ(dumps.size(), static_cast<std::size_t>(fc.max_restarts) + 1);
  for (const auto& bytes : dumps) {
    const BlackboxImage img = decode_blackbox(bytes);
    const BlackboxReplay rep = replay_blackbox(img);
    EXPECT_TRUE(rep.hash_match) << "dump at fleet tick " << img.fleet_tick;
  }
  // The last image records the quarantine decision context.
  const BlackboxImage last = decode_blackbox(dumps.back());
  EXPECT_EQ(last.restarts, fc.max_restarts);
  EXPECT_EQ(last.reason, "persistent crasher");
}

TEST(Blackbox, RecorderArmedChannelIsBitIdenticalSoloAndUnderFarm) {
  // Obs-on/off hash equality extended to the recorder: detached, obs-only
  // and recorder-armed twins of the same seed stream identical hashes.
  ChannelConfig base;
  base.kind = ChannelKind::GyroIdeal;
  base.seed = 99;
  ChannelConfig with_obs = base;
  with_obs.with_obs = true;
  ChannelConfig with_rec = base;
  with_rec.with_flight_recorder = true;

  ConditioningChannel detached(base), obs_on(with_obs), rec_on(with_rec);
  const long ticks = std::llround(0.02 * detached.base_rate_hz());
  detached.advance(ticks);
  obs_on.advance(ticks);
  rec_on.advance(ticks);
  EXPECT_EQ(detached.output_hash(), obs_on.output_hash());
  EXPECT_EQ(detached.output_hash(), rec_on.output_hash());
  ASSERT_NE(rec_on.flight_recorder(), nullptr);
  EXPECT_GT(rec_on.flight_recorder()->total(), 0u);
  EXPECT_EQ(obs_on.flight_recorder(), nullptr);  // armed only when asked

  // Same equality through the supervised fleet at 1 vs 4 worker threads.
  const auto fleet_hashes = [](unsigned threads) {
    std::vector<FleetChannelSpec> specs(3);
    specs[0].config.kind = ChannelKind::GyroIdeal;
    specs[1].config.kind = ChannelKind::Adxrs300;
    specs[2].config.kind = ChannelKind::Gyrostar;
    FleetConfig fc;
    fc.root_seed = 12;
    fc.threads = threads;
    fc.tick_seconds = kTickSeconds;
    fc.flight_recorders = true;
    FleetSupervisor fleet(std::move(specs), fc);
    fleet.run_ticks(8);
    std::vector<std::uint64_t> h;
    for (std::size_t i = 0; i < fleet.size(); ++i) h.push_back(fleet.channel(i).output_hash());
    return h;
  };
  EXPECT_EQ(fleet_hashes(1), fleet_hashes(4));
}

/// The (point, tick, a, b) of every ProbeSample record at or after `from`.
std::vector<std::tuple<int, std::int64_t, double, double>> probe_samples(
    const obs::FlightRecorder& rec, std::int64_t from) {
  std::vector<std::tuple<int, std::int64_t, double, double>> out;
  rec.for_each([&](const obs::FlightRecord& r) {
    if (r.kind == obs::FlightKind::ProbeSample && r.tick >= from)
      out.emplace_back(r.category, r.tick, r.a, r.b);
  });
  return out;
}

TEST(Blackbox, RecorderStimulusStrideFollowsTheGlobalTickAcrossRestore) {
  // A channel snapshotted and restored into a fresh instance at an odd tick
  // keeps recording the stimulus on the same ticks as its straight twin.
  ChannelConfig cfg;
  cfg.kind = ChannelKind::GyroIdeal;
  cfg.seed = 31;
  cfg.with_flight_recorder = true;
  constexpr long kCut = 12345, kTotal = 30000;

  ConditioningChannel straight(cfg);
  straight.advance(kTotal);

  ConditioningChannel first(cfg);
  first.advance(kCut);
  ConditioningChannel resumed(cfg);
  resumed.restore(first.snapshot());
  resumed.advance(kTotal - kCut);
  ASSERT_EQ(resumed.output_hash(), straight.output_hash());

  const auto expected = probe_samples(*straight.flight_recorder(), kCut);
  const auto got = probe_samples(*resumed.flight_recorder(), kCut);
  ASSERT_GT(expected.size(), 10u);
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace ascp::engine
