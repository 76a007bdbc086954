// Checkpoint/restore proofs: resume-at-tick-k must be bit-exact with a
// straight-through run for every scenario in the conformance corpus — the
// corpus spans both fidelities, open/closed loop, fixed-point datapaths,
// register writes, fault campaigns and firmware-driven (ISS) runs, so it is
// the broadest state-coverage net the repo has. The corruption tests pin the
// CRC frame's failure taxonomy (truncation vs bit-rot vs wrong target).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "platform/engine/channel_farm.hpp"
#include "platform/engine/conditioning_channel.hpp"

namespace ascp::engine {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(ASCP_CORPUS_DIR))
    if (e.path().extension() == ".scenario") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

std::string test_name(const testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  std::replace_if(stem.begin(), stem.end(), [](char c) { return !std::isalnum(c); }, '_');
  return stem;
}

long scenario_ticks(const ChannelConfig& cfg, double seconds) {
  ConditioningChannel probe(cfg);
  return std::lround(seconds * probe.base_rate_hz());
}

class CorpusCheckpoint : public testing::TestWithParam<std::string> {};

// The core bit-exactness proof: run to 40%, snapshot, restore into a fresh
// channel built from the same config, finish — the resumed run's stream
// fingerprint must equal the straight-through run's.
TEST_P(CorpusCheckpoint, ResumeAtKBitExactWithStraightRun) {
  const auto scenario = conformance::load_scenario(GetParam());
  const ChannelConfig cfg = conformance::channel_config(scenario);
  const long total = scenario_ticks(cfg, scenario.duration_s);
  const long split = total * 2 / 5;

  ConditioningChannel straight(cfg);
  straight.advance(total);

  ConditioningChannel first(cfg);
  first.advance(split);
  const std::vector<std::uint8_t> image = first.snapshot();

  ConditioningChannel resumed(cfg);
  resumed.restore(image);
  ASSERT_EQ(resumed.ticks_advanced(), split);
  ASSERT_EQ(resumed.output_hash(), first.output_hash());
  resumed.advance(total - split);

  EXPECT_EQ(resumed.total_outputs(), straight.total_outputs());
  EXPECT_EQ(resumed.output_hash(), straight.output_hash());
}

// Snapshot must not perturb the donor: the snapshotted channel finishing its
// own run must also match the straight-through stream.
TEST_P(CorpusCheckpoint, SnapshotIsReadOnly) {
  const auto scenario = conformance::load_scenario(GetParam());
  const ChannelConfig cfg = conformance::channel_config(scenario);
  const long total = scenario_ticks(cfg, scenario.duration_s);
  const long split = total * 2 / 5;

  ConditioningChannel straight(cfg);
  straight.advance(total);

  ConditioningChannel snapshotted(cfg);
  snapshotted.advance(split);
  (void)snapshotted.snapshot();
  snapshotted.advance(total - split);

  EXPECT_EQ(snapshotted.output_hash(), straight.output_hash());
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusCheckpoint, testing::ValuesIn(corpus_files()),
                         test_name);

// Farm-level proof: every corpus scenario as one channel of a multi-threaded
// farm, snapshotted mid-run and resumed in a second farm — per-channel
// hashes must match a farm that ran straight through.
TEST(FarmCheckpoint, WholeCorpusFarmResumeBitExact) {
  std::vector<ChannelConfig> specs;
  double max_duration = 0.0;
  for (const auto& f : corpus_files()) {
    const auto scenario = conformance::load_scenario(f);
    specs.push_back(conformance::channel_config(scenario));
    max_duration = std::max(max_duration, scenario.duration_s);
  }
  ASSERT_FALSE(specs.empty());
  // Common simulated duration (channel_config scenarios tolerate running
  // longer than scripted: profiles hold their last value).
  const double total_s = max_duration;
  const double split_s = 0.4 * total_s;

  FarmConfig fc;
  fc.reseed_channels = false;  // corpus seeds are part of the scenarios
  fc.threads = 4;

  ChannelFarm straight(specs, fc);
  straight.advance(total_s);

  ChannelFarm first(specs, fc);
  first.advance(split_s);
  std::vector<std::vector<std::uint8_t>> images;
  images.reserve(first.size());
  for (std::size_t i = 0; i < first.size(); ++i) images.push_back(first.channel(i).snapshot());

  ChannelFarm resumed(specs, fc);
  for (std::size_t i = 0; i < resumed.size(); ++i) resumed.channel(i).restore(images[i]);
  resumed.advance(total_s - split_s);

  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed.channel(i).output_hash(), straight.channel(i).output_hash()) << i;
    EXPECT_EQ(resumed.channel(i).total_outputs(), straight.channel(i).total_outputs()) << i;
  }
}

// An analog baseline fires each task on its own global tick counter:
// conditioning on ticks ≡ 7 (mod 8), the DAQ on ticks ≡ 1023 (mod 1024).
// Restored at a tick that is a multiple of neither, it must resume both
// cadences mid-period and finish bit-identical to a straight run.
TEST(BaselineCheckpoint, RestoreMidPeriodResumesTheCadence) {
  constexpr long kSplit = 5 * 1024 + 3;
  constexpr long kTotal = 40000;
  static_assert(kSplit % 8 != 0 && kSplit % 1024 != 0);
  for (const ChannelKind kind : {ChannelKind::Adxrs300, ChannelKind::Gyrostar}) {
    SCOPED_TRACE(kind == ChannelKind::Adxrs300 ? "Adxrs300" : "Gyrostar");
    ChannelConfig cfg;
    cfg.kind = kind;
    cfg.rate_dps = 40.0;
    cfg.seed = 5;

    ConditioningChannel straight(cfg);
    straight.advance(kTotal);

    ConditioningChannel first(cfg);
    first.advance(kSplit);
    const std::vector<std::uint8_t> image = first.snapshot();

    ConditioningChannel resumed(cfg);
    resumed.restore(image);
    ASSERT_EQ(resumed.ticks_advanced(), kSplit);
    resumed.advance(kTotal - kSplit);

    EXPECT_EQ(straight.total_outputs(), static_cast<std::uint64_t>(kTotal / 1024));
    EXPECT_EQ(resumed.total_outputs(), straight.total_outputs());
    EXPECT_EQ(resumed.output_hash(), straight.output_hash());
  }
}

// ---- corruption taxonomy ---------------------------------------------------

ChannelConfig cheap_config() {
  ChannelConfig cfg;
  cfg.kind = ChannelKind::Adxrs300;
  cfg.seed = 11;
  return cfg;
}

TEST(CheckpointFrame, TruncationDetected) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  auto image = ch.snapshot();

  ConditioningChannel target(cheap_config());
  auto no_header = image;
  no_header.resize(kCheckpointFrame.header_size() - 4);
  EXPECT_THROW(target.restore(no_header), StateError);

  auto short_payload = image;
  short_payload.resize(image.size() - 7);
  EXPECT_THROW(target.restore(short_payload), StateError);
}

TEST(CheckpointFrame, BitRotDetectedByCrc) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  auto image = ch.snapshot();
  image[kCheckpointFrame.header_size() + image.size() / 2] ^= 0x01;

  ConditioningChannel target(cheap_config());
  try {
    target.restore(image);
    FAIL() << "corrupted image restored";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(CheckpointFrame, WrongChannelKindRejected) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  const auto image = ch.snapshot();

  ChannelConfig other = cheap_config();
  other.kind = ChannelKind::Gyrostar;
  ConditioningChannel target(other);
  EXPECT_THROW(target.restore(image), StateError);
}

TEST(CheckpointFrame, InspectReportsHeaderAndCrc) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  auto image = ch.snapshot();

  frame::Header info;
  ASSERT_TRUE(frame::inspect(kCheckpointFrame, image, &info));
  EXPECT_EQ(info.version, kCheckpointFrame.version);
  EXPECT_EQ(info.meta.word, static_cast<std::uint32_t>(ChannelKind::Adxrs300));
  EXPECT_EQ(info.length, image.size() - kCheckpointFrame.header_size());
  EXPECT_TRUE(info.crc_ok);

  image.back() ^= 0xFF;
  ASSERT_TRUE(frame::inspect(kCheckpointFrame, image, &info));
  EXPECT_FALSE(info.crc_ok);

  std::vector<std::uint8_t> garbage(64, 0xAB);
  EXPECT_FALSE(frame::inspect(kCheckpointFrame, garbage, &info));
}

}  // namespace
}  // namespace ascp::engine
