// Record → replay proofs for the stimulus/probe seam, at whole-platform
// scope: a corpus scenario recorded through a StimulusRecorder probe and
// replayed through a RecordedSource must reproduce the decimated-output
// FNV-1a hash bit-exactly — solo, in a 4-thread farm, and across a
// mid-replay checkpoint. Probes themselves must be invisible to the output
// stream, and the checkpoint image must carry the stimulus summary at its
// documented fixed offsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "platform/engine/channel_farm.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "sensor/stimulus_source.hpp"

namespace ascp::engine {
namespace {

conformance::Scenario corpus_scenario(const char* name) {
  return conformance::load_scenario(std::string(ASCP_CORPUS_DIR) + "/" + name);
}

long scenario_ticks(const ChannelConfig& cfg, double seconds) {
  ConditioningChannel probe(cfg);
  return std::lround(seconds * probe.base_rate_hz());
}

/// Record the scenario's synthetic stimulus at the base rate (the bit-exact
/// setting) and return trace + the probed run's output hash.
std::shared_ptr<sensor::StimulusTrace> record_stimulus(const conformance::Scenario& s,
                                                       std::uint64_t* probed_hash = nullptr) {
  auto cfg = conformance::channel_config(s);
  const double base_rate = ConditioningChannel(cfg).base_rate_hz();
  sensor::StimulusRecorder recorder(base_rate);
  cfg.probe = &recorder;
  ConditioningChannel ch(cfg);
  ch.advance(std::lround(s.duration_s * base_rate));
  if (probed_hash) *probed_hash = ch.output_hash();
  return std::make_shared<sensor::StimulusTrace>(recorder.take());
}

ChannelConfig replay_config(const conformance::Scenario& s,
                            std::shared_ptr<sensor::StimulusTrace> trace) {
  auto cfg = conformance::channel_config(s);
  cfg.stimulus_factory = [trace = std::move(trace)](double base_rate_hz) {
    return std::make_unique<sensor::RecordedSource>(trace, base_rate_hz);
  };
  return cfg;
}

// ---- the headline invariant ------------------------------------------------

TEST(RecordReplay, CorpusScenarioReplaysBitExactSolo) {
  const auto s = corpus_scenario("vibration_shock.scenario");
  const ChannelConfig cfg = conformance::channel_config(s);
  const long total = scenario_ticks(cfg, s.duration_s);

  ConditioningChannel synthetic(cfg);
  synthetic.advance(total);

  std::uint64_t probed_hash = 0;
  auto trace = record_stimulus(s, &probed_hash);
  // Probe neutrality: recording must not change the stream.
  ASSERT_EQ(probed_hash, synthetic.output_hash());
  ASSERT_EQ(trace->samples.size(), static_cast<std::size_t>(total));

  ConditioningChannel replayed(replay_config(s, trace));
  EXPECT_EQ(replayed.stimulus()->kind(), sensor::StimulusKind::Recorded);
  replayed.advance(total);
  EXPECT_EQ(replayed.output_hash(), synthetic.output_hash());
  EXPECT_EQ(replayed.total_outputs(), synthetic.total_outputs());
  EXPECT_EQ(replayed.stimulus()->underruns(), 0u);
}

TEST(RecordReplay, CorpusScenarioReplaysBitExactInFourThreadFarm) {
  const auto s = corpus_scenario("diff_ideal_sine.scenario");
  const ChannelConfig cfg = conformance::channel_config(s);
  const long total = scenario_ticks(cfg, s.duration_s);

  ConditioningChannel synthetic(cfg);
  synthetic.advance(total);
  auto trace = record_stimulus(s);

  // Four replay channels of the same recording, advanced by a 4-thread farm:
  // each must land on the solo synthetic hash.
  std::vector<ChannelConfig> specs(4, replay_config(s, trace));
  FarmConfig fc;
  fc.reseed_channels = false;
  fc.threads = 4;
  ChannelFarm farm(specs, fc);
  farm.advance(s.duration_s);
  for (std::size_t i = 0; i < farm.size(); ++i)
    EXPECT_EQ(farm.channel(i).output_hash(), synthetic.output_hash()) << i;
}

// ---- mid-replay checkpoints ------------------------------------------------

TEST(RecordReplay, MidReplayCheckpointResumesBitExact) {
  const auto s = corpus_scenario("open_loop_batched.scenario");
  auto trace = record_stimulus(s);
  const ChannelConfig cfg = replay_config(s, trace);
  const long total = scenario_ticks(cfg, s.duration_s);
  const long split = total * 2 / 5;

  ConditioningChannel straight(cfg);
  straight.advance(total);

  ConditioningChannel first(cfg);
  first.advance(split);
  const auto cursor_at_split = first.stimulus()->cursor();
  EXPECT_GT(cursor_at_split, 0);
  const auto image = first.snapshot();

  ConditioningChannel resumed(cfg);
  resumed.restore(image);
  EXPECT_EQ(resumed.stimulus()->cursor(), cursor_at_split);
  resumed.advance(total - split);
  EXPECT_EQ(resumed.output_hash(), straight.output_hash());
  EXPECT_EQ(resumed.total_outputs(), straight.total_outputs());
}

TEST(RecordReplay, CheckpointRefusesWrongStimulusKind) {
  const auto s = corpus_scenario("open_loop_batched.scenario");
  auto trace = record_stimulus(s);
  ConditioningChannel recorded(replay_config(s, trace));
  recorded.advance(10000);
  const auto image = recorded.snapshot();

  // The same scenario with its synthetic stimulus is a different machine.
  ConditioningChannel synthetic(conformance::channel_config(s));
  EXPECT_THROW(synthetic.restore(image), StateError);
}

// ---- checkpoint image layout -----------------------------------------------

// ascp_tool reads the stimulus summary without building a channel; this
// pins the contract: CHAN payload offset 20 = stimulus kind (u32 LE),
// 24 = cursor (i64 LE), i.e. image offsets 48/52 past the 28-byte header.
TEST(RecordReplay, StimulusSummarySitsAtFixedImageOffsets) {
  const auto s = corpus_scenario("open_loop_batched.scenario");
  auto trace = record_stimulus(s);
  ConditioningChannel ch(replay_config(s, trace));
  ch.advance(12345);
  const auto image = ch.snapshot();

  const std::size_t header = kCheckpointFrame.header_size();
  ASSERT_GE(image.size(), header + 32);
  ASSERT_EQ(std::memcmp(image.data() + header, "CHAN", 4), 0);
  std::uint32_t kind = 0;
  std::uint64_t cursor = 0;
  for (int i = 0; i < 4; ++i)
    kind |= static_cast<std::uint32_t>(image[header + 20 + i]) << (8 * i);
  for (int i = 0; i < 8; ++i)
    cursor |= static_cast<std::uint64_t>(image[header + 24 + i]) << (8 * i);
  EXPECT_EQ(kind, static_cast<std::uint32_t>(sensor::StimulusKind::Recorded));
  EXPECT_EQ(static_cast<std::int64_t>(cursor), ch.stimulus()->cursor());
}

// ---- probe neutrality across every tap -------------------------------------

/// Greedy probe: wants every tap, folds all frames into a running hash so
/// the work is observable but feeds nothing back.
class AllTapsProbe final : public sensor::Probe {
 public:
  void on_frame(const sensor::ProbeFrame& f) override {
    ++frames_;
    digest_ ^= static_cast<std::uint64_t>(f.tick) * 1099511628211ull +
               static_cast<std::uint64_t>(f.point);
  }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t digest_ = 0;
};

TEST(ProbeNeutrality, AllTapsAttachedIsBitIdenticalToBareRun) {
  for (const char* name : {"vibration_shock.scenario", "open_loop_batched.scenario"}) {
    const auto s = corpus_scenario(name);
    const ChannelConfig bare_cfg = conformance::channel_config(s);
    const long total = scenario_ticks(bare_cfg, s.duration_s);

    ConditioningChannel bare(bare_cfg);
    bare.advance(total);

    AllTapsProbe probe;
    auto probed_cfg = conformance::channel_config(s);
    probed_cfg.probe = &probe;
    ConditioningChannel probed(probed_cfg);
    probed.advance(total);

    EXPECT_GT(probe.frames(), 0u) << name;
    EXPECT_EQ(probed.output_hash(), bare.output_hash()) << name;
    EXPECT_EQ(probed.total_outputs(), bare.total_outputs()) << name;
  }
}

// ---- flight recorder + span neutrality over the whole corpus ----------------

std::vector<std::string> all_corpus_files() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(ASCP_CORPUS_DIR))
    if (e.path().extension() == ".scenario") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

// PR 9's zero-perturbation proof at corpus breadth: every scenario, run with
// the flight recorder armed (which implies the full obs sink — events, spans,
// metrics, probe tee on the recorder ring), must hash identically to the bare
// run. The corpus spans both fidelities, open/closed loop, register writes,
// fault campaigns and ISS-driven runs, so this is the widest net available.
TEST(CorpusObsNeutrality, RecorderAndSpansArmedBitIdenticalSolo) {
  const auto files = all_corpus_files();
  ASSERT_GE(files.size(), 19u);
  for (const auto& f : files) {
    const auto s = conformance::load_scenario(f);
    const ChannelConfig bare_cfg = conformance::channel_config(s);
    const long total = scenario_ticks(bare_cfg, s.duration_s);

    ConditioningChannel bare(bare_cfg);
    bare.advance(total);

    auto armed_cfg = conformance::channel_config(s);
    armed_cfg.with_flight_recorder = true;
    ConditioningChannel armed(armed_cfg);
    armed.advance(total);

    ASSERT_NE(armed.flight_recorder(), nullptr) << f;
    EXPECT_GT(armed.flight_recorder()->total(), 0u) << f;  // ring actually fed
    EXPECT_EQ(armed.output_hash(), bare.output_hash()) << f;
    EXPECT_EQ(armed.total_outputs(), bare.total_outputs()) << f;
  }
}

// The same corpus as one 4-thread farm with every recorder armed: each
// channel must still land on its bare solo hash (no cross-channel or
// thread-count perturbation from the recording path).
TEST(CorpusObsNeutrality, RecorderArmedFourThreadFarmMatchesBareSoloHashes) {
  const auto files = all_corpus_files();
  std::vector<std::uint64_t> bare_hashes;
  std::vector<ChannelConfig> armed_specs;
  double max_duration = 0.0;
  for (const auto& f : files) {
    const auto s = conformance::load_scenario(f);
    max_duration = std::max(max_duration, s.duration_s);
    armed_specs.push_back(conformance::channel_config(s));
    armed_specs.back().with_flight_recorder = true;
  }
  ASSERT_FALSE(armed_specs.empty());
  // Common duration: profiles hold their last value past the scripted end.
  for (const auto& f : files) {
    const auto s = conformance::load_scenario(f);
    ConditioningChannel bare(conformance::channel_config(s));
    bare.advance(scenario_ticks(conformance::channel_config(s), max_duration));
    bare_hashes.push_back(bare.output_hash());
  }

  FarmConfig fc;
  fc.reseed_channels = false;  // corpus seeds are part of the scenarios
  fc.threads = 4;
  ChannelFarm farm(armed_specs, fc);
  farm.advance(max_duration);
  for (std::size_t i = 0; i < farm.size(); ++i) {
    EXPECT_EQ(farm.channel(i).output_hash(), bare_hashes[i]) << files[i];
    EXPECT_GT(farm.channel(i).flight_recorder()->total(), 0u) << files[i];
  }
}

// ---- queue-fed ingestion ----------------------------------------------------

TEST(QueueIngestion, UnderrunRaisesProbeEventAndHoldsLast) {
  ChannelConfig cfg;
  cfg.kind = ChannelKind::GyroIdeal;
  cfg.seed = 5;
  cfg.with_obs = true;
  cfg.stimulus_factory = [](double) {
    sensor::QueueSource::Config qc;
    qc.capacity = 1024;
    auto q = std::make_unique<sensor::QueueSource>(qc);
    for (int i = 0; i < 512; ++i) q->push({30.0, 25.0});
    return q;
  };
  ConditioningChannel ch(cfg);
  ch.advance(2048);  // 512 fed ticks, then 1536 underrun ticks
  auto* q = dynamic_cast<sensor::QueueSource*>(ch.stimulus());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->underruns(), 1536u);

  bool saw_underrun_event = false;
  for (const auto& e : ch.observability()->events.events())
    if (e.category == obs::EventCategory::Probe &&
        std::string_view(e.name) == "stimulus_underrun")
      saw_underrun_event = true;
  EXPECT_TRUE(saw_underrun_event);
}

}  // namespace
}  // namespace ascp::engine
