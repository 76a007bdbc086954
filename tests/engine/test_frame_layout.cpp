// Byte-layout pins for the three framed containers. Fixed inputs go through
// each owner's public encoder; the full header is compared with a byte
// literal and the whole image with its size and an FNV-1a-64 hash. Only the
// owners' encode/decode entry points are used, so the pins hold whatever
// codec sits underneath: a change to any literal here is an on-disk format
// change and needs a version bump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "platform/engine/blackbox.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "sensor/stimulus_source.hpp"

namespace ascp::engine {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  return fnv1a_bytes(kFnv1aBasis, bytes.data(), bytes.size());
}

std::vector<std::uint8_t> head(const std::vector<std::uint8_t>& image, std::size_t n) {
  return {image.begin(), image.begin() + static_cast<std::ptrdiff_t>(std::min(n, image.size()))};
}

ChannelConfig fixed_config(ChannelKind kind) {
  ChannelConfig cfg;
  cfg.kind = kind;
  cfg.seed = 11;
  return cfg;
}

std::vector<std::uint8_t> checkpoint_image(ChannelKind kind) {
  ConditioningChannel ch(fixed_config(kind));
  ch.advance(20000);
  return ch.snapshot();
}

sensor::StimulusTrace fixed_trace() {
  sensor::StimulusTrace t;
  t.sample_rate_hz = 48000.0;
  t.interp = sensor::TraceInterp::Linear;
  t.samples = {{1.5, 25.0}, {-2.25, 25.125}, {1e-3, -40.0}};
  return t;
}

BlackboxImage fixed_blackbox() {
  BlackboxImage img;
  img.kind = static_cast<std::uint32_t>(ChannelKind::Gyrostar);
  img.seed = 0x0123456789ABCDEFull;
  img.channel_index = 5;
  img.fleet_tick = 42;
  img.reason = "pinned";
  img.dtcs = 0x0101;
  img.restarts = 1;
  img.health = 2;
  img.crash_ticks = 9600;
  img.crash_hash = 0xFEDCBA9876543210ull;
  img.crash_outputs = 10;
  img.checkpoint_tick = 4800;
  img.checkpoint = {9, 8, 7};
  BlackboxFlightRecord r;
  r.t_sim = 0.25;
  r.name = "rec";
  img.records.push_back(r);
  BlackboxSpan s;
  s.span_id = 3;
  s.name = "span";
  img.channel_spans.push_back(s);
  img.counters.push_back({"c", 1.0});
  img.gauges.push_back({"g", -1.0});
  return img;
}

TEST(FrameLayout, CheckpointAdxrs300HeaderAndImage) {
  const auto image = checkpoint_image(ChannelKind::Adxrs300);
  const std::vector<std::uint8_t> header = {
      0x41, 0x53, 0x43, 0x50, 0x43, 0x4B, 0x50, 0x54, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x57, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x47, 0xA2, 0x6A, 0x6B};
  EXPECT_EQ(head(image, 28), header);
  EXPECT_EQ(image.size(), 627u);
  EXPECT_EQ(fnv1a(image), 0x256E372D70C62938ull);
}

TEST(FrameLayout, CheckpointGyroFullHeaderAndImage) {
  const auto image = checkpoint_image(ChannelKind::GyroFull);
  const std::vector<std::uint8_t> header = {
      0x41, 0x53, 0x43, 0x50, 0x43, 0x4B, 0x50, 0x54, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x2E, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x67, 0xB0, 0xBA, 0xCD};
  EXPECT_EQ(head(image, 28), header);
  EXPECT_EQ(image.size(), 4170u);
  EXPECT_EQ(fnv1a(image), 0x7AFABB4CEC8F3D72ull);
}

TEST(FrameLayout, StraceHeaderAndImage) {
  const auto image = sensor::encode_strace(fixed_trace());
  const std::vector<std::uint8_t> header = {
      0x41, 0x53, 0x43, 0x50, 0x53, 0x54, 0x52, 0x43, 0x01, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0xE7, 0x40,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3E, 0x11, 0x9E, 0xF3};
  EXPECT_EQ(head(image, 36), header);
  EXPECT_EQ(image.size(), 36u + 3 * 16);
  EXPECT_EQ(fnv1a(image), 0x878E04EB73D31B71ull);
}

TEST(FrameLayout, BlackboxHeaderAndImage) {
  const auto image = encode_blackbox(fixed_blackbox());
  const std::vector<std::uint8_t> header = {
      0x41, 0x53, 0x43, 0x50, 0x42, 0x42, 0x4F, 0x58, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x93, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF7, 0x84, 0xE1, 0x4B};
  EXPECT_EQ(head(image, 28), header);
  EXPECT_EQ(image.size(), 431u);
  EXPECT_EQ(fnv1a(image), 0xBF0DB74060E7873Cull);
}

// No reader accepts another container's image: each fails on the magic,
// with its own name in the message.
TEST(FrameLayout, EachReaderRejectsTheOtherFormatsMagic) {
  const auto ckpt = checkpoint_image(ChannelKind::Adxrs300);
  const auto strace = sensor::encode_strace(fixed_trace());
  const auto bbox = encode_blackbox(fixed_blackbox());
  const auto message = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const StateError& e) {
      return e.what();
    }
    return "accepted";
  };
  ConditioningChannel target(fixed_config(ChannelKind::Adxrs300));
  EXPECT_EQ(message([&] { target.restore(strace); }), "checkpoint bad magic");
  EXPECT_EQ(message([&] { target.restore(bbox); }), "checkpoint bad magic");
  EXPECT_EQ(message([&] { sensor::decode_strace(ckpt); }), "strace bad magic");
  EXPECT_EQ(message([&] { sensor::decode_strace(bbox); }), "strace bad magic");
  EXPECT_EQ(message([&] { decode_blackbox(ckpt); }), "blackbox bad magic");
  EXPECT_EQ(message([&] { decode_blackbox(strace); }), "blackbox bad magic");
}

}  // namespace
}  // namespace ascp::engine
