// The stimulus seam in isolation: synthetic bit-identity with Profile, the
// `.strace` container's framing/error classes, RecordedSource's exact and
// interpolated replay paths, QueueSource's bounded ingestion, and the
// recorder probe. Whole-platform record → replay proofs live in
// engine/test_record_replay.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/state_archive.hpp"
#include "sensor/stimulus_source.hpp"

namespace ascp::sensor {
namespace {

// ---- SyntheticSource -------------------------------------------------------

TEST(SyntheticSource, MatchesProfileOnTickAxis) {
  const double fs = 1.92e6;
  SyntheticSource src(Profile::sine(30.0, 50.0), Profile::ramp(25.0, 85.0, 0.0, 1.0), fs);
  const auto rate = Profile::sine(30.0, 50.0);
  const auto temp = Profile::ramp(25.0, 85.0, 0.0, 1.0);
  for (long tick : {0L, 1L, 17L, 1920000L}) {
    const double t = static_cast<double>(tick) * (1.0 / fs);
    const StimulusSample s = src.sample(tick);
    EXPECT_EQ(s.rate_dps, rate.at(t)) << tick;
    EXPECT_EQ(s.temp_c, temp.at(t)) << tick;
  }
}

TEST(SyntheticSource, OriginShiftsTheTimeAxis) {
  const double fs = 1000.0;
  SyntheticSource shifted(Profile::step(10.0, 0.5), Profile::constant(25.0), fs,
                          /*origin_tick=*/500);
  // tick 500 is the shifted source's t = 0.
  EXPECT_EQ(shifted.sample(500).rate_dps, 0.0);
  EXPECT_EQ(shifted.sample(1000).rate_dps, 10.0);
}

// ---- .strace container -----------------------------------------------------

StimulusTrace demo_trace(std::size_t n = 8, double rate_hz = 1000.0) {
  StimulusTrace t;
  t.sample_rate_hz = rate_hz;
  for (std::size_t i = 0; i < n; ++i)
    t.samples.push_back({static_cast<double>(i) * 1.5, 25.0 + static_cast<double>(i)});
  return t;
}

TEST(Strace, EncodeDecodeRoundTripIsExact) {
  const StimulusTrace t = demo_trace();
  const StimulusTrace back = decode_strace(encode_strace(t));
  ASSERT_EQ(back.samples.size(), t.samples.size());
  EXPECT_EQ(back.sample_rate_hz, t.sample_rate_hz);
  EXPECT_EQ(back.interp, t.interp);
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    EXPECT_EQ(back.samples[i].rate_dps, t.samples[i].rate_dps);
    EXPECT_EQ(back.samples[i].temp_c, t.samples[i].temp_c);
  }
}

TEST(Strace, InspectReportsHeaderFields) {
  auto t = demo_trace(5, 250.0);
  t.interp = TraceInterp::Linear;
  const auto bytes = encode_strace(t);
  frame::Header info;
  ASSERT_TRUE(frame::inspect(kStraceFrame, bytes, &info));
  EXPECT_EQ(info.version, kStraceFrame.version);
  EXPECT_EQ(info.meta.word, 1u);
  EXPECT_EQ(std::bit_cast<double>(info.meta.wide), 250.0);
  EXPECT_EQ(info.length, 5u);
  EXPECT_TRUE(info.crc_ok);
}

// Each corruption class raises its own distinct error, mirroring the
// checkpoint container's failure taxonomy.
TEST(Strace, DistinctErrorsForTruncationMagicVersionAndBitRot) {
  const auto good = encode_strace(demo_trace());

  auto headerless = good;
  headerless.resize(kStraceFrame.header_size() - 1);
  EXPECT_THROW(decode_strace(headerless), StateError);

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_strace(bad_magic), StateError);
  EXPECT_FALSE(frame::inspect(kStraceFrame, bad_magic, nullptr));

  auto bad_version = good;
  bad_version[8] = 0x7F;
  EXPECT_THROW(decode_strace(bad_version), StateError);

  auto truncated = good;
  truncated.resize(good.size() - 7);
  EXPECT_THROW(decode_strace(truncated), StateError);

  auto corrupted = good;
  corrupted[kStraceFrame.header_size() + 3] ^= 0x10;
  EXPECT_THROW(decode_strace(corrupted), StateError);
  frame::Header info;
  ASSERT_TRUE(frame::inspect(kStraceFrame, corrupted, &info));
  EXPECT_FALSE(info.crc_ok);

  // And the messages are distinct (the chaos harness keys on them).
  std::string msgs[2];
  try { decode_strace(truncated); } catch (const StateError& e) { msgs[0] = e.what(); }
  try { decode_strace(corrupted); } catch (const StateError& e) { msgs[1] = e.what(); }
  EXPECT_NE(msgs[0], msgs[1]);
}

// The sample-rate word sits outside the CRC, so a frame with a valid CRC can
// still carry a rate that replay would turn into an index cast of 0 · Inf.
TEST(Strace, RejectsNonFiniteRateAndSamples) {
  for (const double rate : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 0.0, -1000.0}) {
    EXPECT_THROW(decode_strace(encode_strace(demo_trace(4, rate))), StateError) << rate;
  }
  for (const StimulusSample bad : {StimulusSample{std::numeric_limits<double>::quiet_NaN(), 25.0},
                                   StimulusSample{1.0, std::numeric_limits<double>::infinity()},
                                   StimulusSample{-std::numeric_limits<double>::infinity(), 25.0}}) {
    StimulusTrace t = demo_trace(4);
    t.samples[2] = bad;
    EXPECT_THROW(decode_strace(encode_strace(t)), StateError);
  }
  EXPECT_NO_THROW(decode_strace(encode_strace(demo_trace(4))));
}

TEST(Strace, SaveLoadFileRoundTrip) {
  const char* path = "strace_roundtrip_test.strace";
  const StimulusTrace t = demo_trace(12);
  ASSERT_NO_THROW(frame::write_file(path, encode_strace(t)));
  const StimulusTrace back = decode_strace(frame::read_file(path));
  EXPECT_EQ(back.samples.size(), t.samples.size());
  EXPECT_EQ(back.samples.back().rate_dps, t.samples.back().rate_dps);
  std::remove(path);
  EXPECT_THROW(frame::read_file(path), StateError);
}

// ---- RecordedSource --------------------------------------------------------

TEST(RecordedSource, ExactRateReplaysBitForBit) {
  auto trace = std::make_shared<StimulusTrace>(demo_trace(6, 1000.0));
  RecordedSource src(trace, /*tick_rate_hz=*/1000.0);
  for (long k = 0; k < 6; ++k) {
    EXPECT_EQ(src.sample(k).rate_dps, trace->samples[static_cast<std::size_t>(k)].rate_dps);
    EXPECT_EQ(src.cursor(), k);
  }
  EXPECT_EQ(src.underruns(), 0u);
  // Past the end: hold the last sample, count underruns.
  EXPECT_EQ(src.sample(6).rate_dps, trace->samples.back().rate_dps);
  EXPECT_EQ(src.underruns(), 1u);
}

TEST(RecordedSource, HoldInterpolationAtSlowerTraceRate) {
  // Trace at 500 Hz driven at 1 kHz: each recorded sample covers two ticks.
  auto trace = std::make_shared<StimulusTrace>(demo_trace(4, 500.0));
  RecordedSource src(trace, 1000.0);
  EXPECT_EQ(src.sample(0).rate_dps, trace->samples[0].rate_dps);
  EXPECT_EQ(src.sample(1).rate_dps, trace->samples[0].rate_dps);
  EXPECT_EQ(src.sample(2).rate_dps, trace->samples[1].rate_dps);
  EXPECT_EQ(src.sample(3).rate_dps, trace->samples[1].rate_dps);
}

TEST(RecordedSource, LinearInterpolationBlendsNeighbours) {
  auto t = demo_trace(4, 500.0);
  t.interp = TraceInterp::Linear;
  auto trace = std::make_shared<StimulusTrace>(std::move(t));
  RecordedSource src(trace, 1000.0);
  // Tick 1 sits exactly halfway between samples 0 and 1 (0.0 and 1.5 dps).
  EXPECT_DOUBLE_EQ(src.sample(1).rate_dps, 0.75);
}

TEST(RecordedSource, StartTickOffsetsReplay) {
  auto trace = std::make_shared<StimulusTrace>(demo_trace(6, 1000.0));
  RecordedSource src(trace, 1000.0, /*start_tick=*/100);
  EXPECT_EQ(src.sample(100).rate_dps, trace->samples[0].rate_dps);
  EXPECT_EQ(src.sample(103).rate_dps, trace->samples[3].rate_dps);
}

TEST(RecordedSource, RejectsEmptyTraceAndBadRates) {
  auto empty = std::make_shared<StimulusTrace>();
  empty->sample_rate_hz = 1000.0;
  EXPECT_THROW(RecordedSource(empty, 1000.0), StateError);
  auto no_rate = std::make_shared<StimulusTrace>(demo_trace(3, 0.0));
  EXPECT_THROW(RecordedSource(no_rate, 1000.0), StateError);
  auto inf_rate =
      std::make_shared<StimulusTrace>(demo_trace(3, std::numeric_limits<double>::infinity()));
  EXPECT_THROW(RecordedSource(inf_rate, 1000.0), StateError);
  auto nan_rate =
      std::make_shared<StimulusTrace>(demo_trace(3, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_THROW(RecordedSource(nan_rate, 1000.0), StateError);
  auto good = std::make_shared<StimulusTrace>(demo_trace(3, 1000.0));
  EXPECT_THROW(RecordedSource(good, std::numeric_limits<double>::infinity()), StateError);
  // Finite rates whose ratio overflows to +Inf.
  auto huge_rate = std::make_shared<StimulusTrace>(demo_trace(3, 1e300));
  EXPECT_THROW(RecordedSource(huge_rate, 1e-300), StateError);
}

TEST(RecordedSource, CheckpointRestoresCursorAndUnderruns) {
  auto trace = std::make_shared<StimulusTrace>(demo_trace(4, 1000.0));
  RecordedSource src(trace, 1000.0);
  src.sample(0);
  src.sample(1);
  src.sample(2);
  StateArchive saver = StateArchive::saver();
  src.serialize_state(saver);
  const auto bytes = saver.take();

  RecordedSource fresh(trace, 1000.0);
  StateArchive loader = StateArchive::loader(bytes);
  fresh.serialize_state(loader);
  EXPECT_EQ(fresh.cursor(), 2);
  EXPECT_EQ(fresh.underruns(), 0u);

  // A different trace is not a valid restore target.
  auto other = std::make_shared<StimulusTrace>(demo_trace(9, 1000.0));
  RecordedSource wrong(other, 1000.0);
  StateArchive loader2 = StateArchive::loader(bytes);
  EXPECT_THROW(wrong.serialize_state(loader2), StateError);
}

// ---- QueueSource -----------------------------------------------------------

TEST(QueueSource, DeliversPushedSamplesInOrder) {
  QueueSource src;
  ASSERT_TRUE(src.push({1.0, 20.0}));
  ASSERT_TRUE(src.push({2.0, 21.0}));
  EXPECT_EQ(src.pending(), 2u);
  EXPECT_EQ(src.sample(0).rate_dps, 1.0);
  EXPECT_EQ(src.sample(1).rate_dps, 2.0);
  EXPECT_EQ(src.pending(), 0u);
  EXPECT_EQ(src.underruns(), 0u);
}

TEST(QueueSource, BoundedCapacityRefusesOverflow) {
  QueueSource::Config cfg;
  cfg.capacity = 2;
  QueueSource src(cfg);
  EXPECT_TRUE(src.push({1.0, 25.0}));
  EXPECT_TRUE(src.push({2.0, 25.0}));
  EXPECT_FALSE(src.push({3.0, 25.0}));
  EXPECT_EQ(src.pending(), 2u);
}

// A NaN or ±Inf sample would reach the SAR converter's float-to-index cast;
// push() refuses it and leaves the queue as it was.
TEST(QueueSource, RefusesNonFiniteSamples) {
  QueueSource src;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(src.push({nan, 25.0}));
  EXPECT_FALSE(src.push({1.0, nan}));
  EXPECT_FALSE(src.push({inf, 25.0}));
  EXPECT_FALSE(src.push({1.0, -inf}));
  EXPECT_EQ(src.pending(), 0u);
  EXPECT_TRUE(src.push({2.0, 30.0}));
  EXPECT_EQ(src.pending(), 1u);
  const StimulusSample s = src.sample(0);
  EXPECT_EQ(s.rate_dps, 2.0);
  EXPECT_EQ(s.temp_c, 30.0);
}

TEST(QueueSource, UnderrunPoliciesHoldLastVsNull) {
  QueueSource hold;
  hold.push({7.0, 30.0});
  hold.sample(0);
  EXPECT_EQ(hold.sample(1).rate_dps, 7.0);  // HoldLast repeats
  EXPECT_EQ(hold.underruns(), 1u);

  QueueSource::Config cfg;
  cfg.underrun = UnderrunPolicy::Null;
  QueueSource null_src(cfg);
  null_src.push({7.0, 30.0});
  null_src.sample(0);
  const StimulusSample s = null_src.sample(1);
  EXPECT_EQ(s.rate_dps, 0.0);
  EXPECT_EQ(s.temp_c, 25.0);
}

TEST(QueueSource, CheckpointCarriesPendingSamples) {
  QueueSource src;
  src.push({1.0, 20.0});
  src.push({2.0, 21.0});
  src.push({3.0, 22.0});
  src.sample(0);  // consume one, leaving two pending
  StateArchive saver = StateArchive::saver();
  src.serialize_state(saver);
  const auto bytes = saver.take();

  QueueSource fresh;
  StateArchive loader = StateArchive::loader(bytes);
  fresh.serialize_state(loader);
  EXPECT_EQ(fresh.pending(), 2u);
  EXPECT_EQ(fresh.sample(1).rate_dps, 2.0);
  EXPECT_EQ(fresh.sample(2).rate_dps, 3.0);
}

// ---- probes ----------------------------------------------------------------

TEST(StimulusRecorder, CapturesOnlyStimulusFrames) {
  StimulusRecorder rec(1000.0);
  EXPECT_TRUE(rec.wants(ProbePoint::Stimulus));
  EXPECT_FALSE(rec.wants(ProbePoint::PostAdc));
  rec.on_frame({ProbePoint::Stimulus, 0, 3.0, 25.0});
  rec.on_frame({ProbePoint::Stimulus, 1, 4.0, 26.0});
  ASSERT_EQ(rec.trace().samples.size(), 2u);
  EXPECT_EQ(rec.trace().samples[1].rate_dps, 4.0);
  EXPECT_EQ(rec.trace().samples[1].temp_c, 26.0);
}

TEST(StimulusRecorder, DecimationKeepsEveryNth) {
  StimulusRecorder rec(500.0, /*decimate=*/2);
  for (long k = 0; k < 6; ++k)
    rec.on_frame({ProbePoint::Stimulus, k, static_cast<double>(k), 25.0});
  ASSERT_EQ(rec.trace().samples.size(), 3u);
  EXPECT_EQ(rec.trace().samples[2].rate_dps, 4.0);
}

TEST(ProbePoint, NamesAreStable) {
  EXPECT_STREQ(probe_point_name(ProbePoint::Stimulus), "stimulus");
  EXPECT_STREQ(probe_point_name(ProbePoint::DecimatedOutput), "decimated_output");
  EXPECT_STREQ(stimulus_kind_name(StimulusKind::Recorded), "recorded");
}

}  // namespace
}  // namespace ascp::sensor
