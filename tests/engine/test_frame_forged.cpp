// Forged length fields in real images: every reader must report truncation
// (StateError) and inspect must report a bad CRC, instead of forming
// header + length past 2^64 and reading beyond the buffer. ci.sh
// chaos-smoke runs these under ASAN.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "platform/engine/blackbox.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "sensor/stimulus_source.hpp"

namespace ascp::engine {
namespace {

/// Overwrite the u64 length field (the 12 bytes before the payload hold
/// length + CRC).
void forge_length(std::vector<std::uint8_t>& image, const frame::Format& f, std::uint64_t v) {
  const std::size_t at = f.header_size() - 12;
  for (int i = 0; i < 8; ++i) image[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void expect_rejected_by_inspect(const frame::Format& f, const std::vector<std::uint8_t>& image) {
  frame::Header h;
  ASSERT_TRUE(frame::inspect(f, image, &h));
  EXPECT_FALSE(h.crc_ok);
}

ChannelConfig cheap_config() {
  ChannelConfig cfg;
  cfg.kind = ChannelKind::Adxrs300;
  cfg.seed = 11;
  return cfg;
}

TEST(FrameForgedLength, CheckpointLengthNearTwoTo64) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  auto image = ch.snapshot();
  forge_length(image, kCheckpointFrame, ~0ull - 8);  // 2^64 − 9

  ConditioningChannel target(cheap_config());
  EXPECT_THROW(target.restore(image), StateError);
  expect_rejected_by_inspect(kCheckpointFrame, image);
}

TEST(FrameForgedLength, StraceSampleCountNearTwoTo60) {
  sensor::StimulusTrace t;
  t.sample_rate_hz = 1000.0;
  t.samples = {{1.0, 25.0}, {2.0, 26.0}};
  auto image = sensor::encode_strace(t);
  forge_length(image, sensor::kStraceFrame, (1ull << 60) - 1);  // ×16 ≈ 2^64

  EXPECT_THROW(sensor::decode_strace(image), StateError);
  expect_rejected_by_inspect(sensor::kStraceFrame, image);
}

TEST(FrameForgedLength, BlackboxLengthNearTwoTo64) {
  BlackboxImage img;
  img.reason = "forged";
  img.checkpoint = {1, 2, 3};
  auto image = encode_blackbox(img);
  forge_length(image, kBlackboxFrame, ~0ull - 8);  // 2^64 − 9

  EXPECT_THROW(decode_blackbox(image), StateError);
  expect_rejected_by_inspect(kBlackboxFrame, image);
}

}  // namespace
}  // namespace ascp::engine
