// Forged length fields in real images: every reader must report truncation
// (StateError) and inspect must report a bad CRC, instead of forming
// header + length past 2^64 and reading beyond the buffer. Forged element
// counts inside CRC-valid payloads must fail with the count error before
// they size an allocation, a forged 8051 memory size with an error naming
// the memory before an access indexes past it or divides by it, and a
// forged SAR phase or SRAM-trace register with its range error before it
// can overflow, divide by zero or desynchronize the DSP frame. ci.sh
// chaos-smoke runs these under ASAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/gyro_system.hpp"
#include "mcu/sram_ctrl.hpp"
#include "platform/engine/blackbox.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "safety/supervisor.hpp"
#include "sensor/stimulus_source.hpp"
#include "support/state_twin.hpp"

namespace ascp::engine {
namespace {

void set_le(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Overwrite the u64 length field (the 12 bytes before the payload hold
/// length + CRC).
void forge_length(std::vector<std::uint8_t>& image, const frame::Format& f, std::uint64_t v) {
  set_le(image, f.header_size() - 12, v, 8);
}

void expect_rejected_by_inspect(const frame::Format& f, const std::vector<std::uint8_t>& image) {
  frame::Header h;
  ASSERT_TRUE(frame::inspect(f, image, &h));
  EXPECT_FALSE(h.crc_ok);
}

/// Re-seal a payload edited in place, so only the payload decoder can object.
void refresh_crc(std::vector<std::uint8_t>& image, const frame::Format& f) {
  const std::size_t hs = f.header_size();
  set_le(image, hs - 4, frame::crc32(image.data() + hs, image.size() - hs), 4);
}

/// Offset of the first occurrence of `needle` in `image`.
std::size_t find_bytes(const std::vector<std::uint8_t>& image,
                       const std::vector<std::uint8_t>& needle) {
  const auto it = std::search(image.begin(), image.end(), needle.begin(), needle.end());
  EXPECT_NE(it, image.end());
  return static_cast<std::size_t>(it - image.begin());
}

template <typename F>
std::string error_of(F&& decode) {
  try {
    decode();
  } catch (const StateError& e) {
    return e.what();
  }
  return "decoded";
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

constexpr frame::Format kVectors{"TESTVECS", 1, "vectors", 4, 1};

template <typename T>
std::size_t decode_vector(const std::vector<std::uint8_t>& image) {
  const frame::Frame f = frame::decode(kVectors, image);
  StateArchive ar = StateArchive::loader(f.payload, f.size);
  std::vector<T> v;
  ar.value(v);
  return v.size();
}

// A count is checked against the bytes left at the element's encoded width:
// 8 for a double, and 1 for an optional<double>, which takes 1 or 9 bytes.
TEST(FrameForgedCount, ArchiveVectorCountsBoundedByEncodedSize) {
  std::vector<double> doubles(100, 1.5);
  auto image = frame::encode(kVectors, {}, [&](StateArchive& ar) { ar.value(doubles); });
  ASSERT_EQ(decode_vector<double>(image), 100u);
  set_le(image, kVectors.header_size(), 700, 8);
  refresh_crc(image, kVectors);
  EXPECT_EQ(error_of([&] { decode_vector<double>(image); }),
            "archive count 700 exceeds remaining bytes at offset 8");

  std::vector<std::optional<double>> empty(100);
  image = frame::encode(kVectors, {}, [&](StateArchive& ar) { ar.value(empty); });
  ASSERT_EQ(decode_vector<std::optional<double>>(image), 100u);
  set_le(image, kVectors.header_size(), 101, 8);
  refresh_crc(image, kVectors);
  EXPECT_EQ(error_of([&] { decode_vector<std::optional<double>>(image); }),
            "archive count 101 exceeds remaining bytes at offset 8");
}

BlackboxImage small_blackbox() {
  BlackboxImage img;
  img.reason = "forged-count";
  BlackboxSpan span;
  span.name = "channel.advance";
  img.channel_spans = {span};
  return img;
}

TEST(FrameForgedCount, BlackboxSpanCount) {
  auto image = encode_blackbox(small_blackbox());
  // BSPN tag, u32 section length, then the channel-span count.
  set_le(image, find_bytes(image, {'B', 'S', 'P', 'N'}) + 8, 100000, 8);
  refresh_crc(image, kBlackboxFrame);
  EXPECT_EQ(error_of([&] { decode_blackbox(image); }), "blackbox element count implausible");
}

TEST(FrameForgedCount, BlackboxStringLength) {
  auto image = encode_blackbox(small_blackbox());
  const std::string reason = "forged-count";
  set_le(image, find_bytes(image, {reason.begin(), reason.end()}) - 8, 1000, 8);
  refresh_crc(image, kBlackboxFrame);
  EXPECT_EQ(error_of([&] { decode_blackbox(image); }), "blackbox string length implausible");
}

TEST(FrameForgedCount, CheckpointPendingOutputCount) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  ASSERT_FALSE(ch.outputs().empty());
  auto image = ch.snapshot();
  // output_hash, total and dropped output counts, then the pending count.
  std::vector<std::uint8_t> hash(8);
  set_le(hash, 0, ch.output_hash(), 8);
  set_le(image, find_bytes(image, hash) + 24, 1u << 20, 8);
  refresh_crc(image, kCheckpointFrame);
  ConditioningChannel target(cheap_config());
  EXPECT_EQ(error_of([&] { target.restore(image); }),
            "checkpoint pending-queue count implausible");
}

TEST(FrameForgedCount, SupervisorShadowCount) {
  safety::SafetySupervisor saved(safety::SupervisorConfig{});
  StateArchive out = StateArchive::saver();
  saved.serialize_state(out);
  auto bytes = out.take();
  // Unattached, the supervisor shadows no registers: its last field is the
  // u32 shadow count, zero.
  ASSERT_EQ(std::vector<std::uint8_t>(bytes.end() - 4, bytes.end()),
            std::vector<std::uint8_t>(4, 0));
  set_le(bytes, bytes.size() - 4, 1u << 20, 4);
  safety::SafetySupervisor loaded(safety::SupervisorConfig{});
  StateArchive in = StateArchive::loader(bytes);
  EXPECT_EQ(error_of([&] { loaded.serialize_state(in); }),
            "checkpoint supervisor shadow count implausible");
}

// The primary SAR converter's phase counter (the last i32 of its state)
// forged to a value that disagrees with the image's tick counter, to −1,
// and to INT32_MAX, where the next step() would overflow.
TEST(FrameForgedPhase, GyroFullSarPhase) {
  ChannelConfig cfg;
  cfg.kind = ChannelKind::GyroFull;
  cfg.seed = 11;
  ConditioningChannel ch(cfg);
  ch.advance(20003);
  const auto acq_bytes = state_twin::state_of(*ch.gyro()->acq_primary());
  const auto clean = ch.snapshot();
  const std::size_t at = find_bytes(clean, acq_bytes) + acq_bytes.size() - 4;
  ASSERT_EQ(ch.gyro()->acq_primary()->phase(), 20003 % 8);

  const std::uint32_t forged_phases[] = {(20003 + 1) % 8, 0xFFFFFFFFu, 0x7FFFFFFFu};
  const std::string expected[] = {"checkpoint SAR phase disagrees with the tick counter",
                                  "checkpoint SAR phase out of range",
                                  "checkpoint SAR phase out of range"};
  for (int i = 0; i < 3; ++i) {
    auto image = clean;
    set_le(image, at, forged_phases[i], 4);
    refresh_crc(image, kCheckpointFrame);
    ConditioningChannel target(cfg);
    EXPECT_EQ(error_of([&] { target.restore(image); }), expected[i]) << "phase " << i;
  }
  ConditioningChannel target(cfg);
  target.restore(clean);
  EXPECT_EQ(target.ticks_advanced(), 20003);
}

/// A GyroIdeal channel's checkpoint and the image offsets of the 8051-side
/// fields the tests below forge. The McuSubsystem state closes the GSYS
/// section but for the analog-die registers, and GSYS closes the image, so
/// the fields are found from the end by the sizes of the states around them.
struct McuImage {
  ChannelConfig cfg;
  std::vector<std::uint8_t> image;
  std::size_t xdata_count, prog_count, eeprom_count, sram, external_count, lines_count;
};

McuImage mcu_image() {
  using state_twin::state_of;
  McuImage m;
  m.cfg.kind = ChannelKind::GyroIdeal;
  m.cfg.seed = 11;
  ConditioningChannel ch(m.cfg);
  ch.advance(20000);
  m.image = ch.snapshot();
  platform::McuSubsystem& p = ch.gyro()->platform();
  StateArchive afe = StateArchive::saver();
  ch.gyro()->afe_regs().serialize_values(afe);
  std::size_t at = m.image.size() - afe.take().size() - state_of(p).size();
  at += state_of(p.cpu()).size();
  m.xdata_count = at;
  m.prog_count = at + 8 + p.bus().ram_size() + 2;  // after the RAM and both bridge latches
  at += state_of(p.bus()).size() + state_of(p.host()).size() + 1;  // + SPI presence
  m.eeprom_count = at + state_of(*p.spi()).size();
  at = m.eeprom_count + state_of(*p.eeprom()).size() + 1 + state_of(*p.timer()).size() + 1 +
       state_of(*p.watchdog()).size() + 1;
  m.sram = at;
  m.external_count = at + state_of(*p.sram_trace()).size() + 1;
  m.lines_count = m.external_count + 8 + p.cache()->config().external_bytes;
  return m;
}

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width; i-- > 0;) v = v << 8 | bytes[at + i];
  return v;
}

// Each count-prefixed 8051 memory forged to hold no bytes, and the cache's
// line store likewise: every access indexes (or, for the external RAM and
// the EEPROM, wraps addresses by) the configured size, so a restore refuses
// any other count.
TEST(FrameForgedCount, McuMemorySizes) {
  const McuImage m = mcu_image();
  const struct {
    std::size_t at;
    std::uint64_t size;
    const char* error;
  } cases[] = {
      {m.xdata_count, 4096, "checkpoint XDATA RAM size 0 differs from the configured 4096"},
      {m.prog_count, 0x7F00, "checkpoint program RAM size 0 differs from the configured 32512"},
      {m.eeprom_count, 8192, "checkpoint EEPROM size 0 differs from the configured 8192"},
      {m.external_count, 128 * 1024,
       "checkpoint cache external RAM size 0 differs from the configured 131072"},
      {m.lines_count, 16 * 16,
       "checkpoint cache line store size 0 differs from the configured 256"},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(get_le(m.image, c.at, 8), c.size) << c.error;
    auto image = m.image;
    set_le(image, c.at, 0, 8);
    refresh_crc(image, kCheckpointFrame);
    ConditioningChannel target(m.cfg);
    EXPECT_EQ(error_of([&] { target.restore(image); }), c.error);
  }
  ConditioningChannel target(m.cfg);
  target.restore(m.image);
  EXPECT_EQ(target.ticks_advanced(), 20000);
}

// The SRAM trace's DECIM forged to 0 with the capture armed (the next
// decimated output would divide by zero in push()), COUNT past the buffer
// (snapshot() would read beyond it) and RDPTR at its end: no legitimate
// image holds these, because write_reg maps DECIM 0 to 1 and wraps RDPTR.
TEST(FrameForgedState, SramTraceRegisters) {
  const McuImage m = mcu_image();
  constexpr std::size_t kMem = mcu::SramController::kSamples * 2;
  const std::size_t count = m.sram + kMem, rdptr = count + 4, decim = count + 10,
                    armed = count + 16;
  ASSERT_EQ(get_le(m.image, decim, 2), 1u);
  ASSERT_EQ(get_le(m.image, armed, 1), 0u);

  struct Field {
    std::size_t at;
    int width;
    std::uint64_t value;
  };
  const auto restore_forged = [&](std::vector<Field> fields) {
    auto image = m.image;
    for (const Field& f : fields) set_le(image, f.at, f.value, f.width);
    refresh_crc(image, kCheckpointFrame);
    ConditioningChannel target(m.cfg);
    return error_of([&] { target.restore(image); });
  };
  constexpr std::uint64_t kSamples = mcu::SramController::kSamples;
  const std::string bad = "checkpoint SRAM trace state out of range";
  EXPECT_EQ(restore_forged({{decim, 2, 0}, {armed, 1, 1}}), bad);
  EXPECT_EQ(restore_forged({{count, 4, kSamples + 1}}), bad);
  EXPECT_EQ(restore_forged({{rdptr, 4, kSamples}}), bad);
  // A full buffer read from its last sample is legitimate.
  EXPECT_EQ(restore_forged({{count, 4, kSamples}, {rdptr, 4, kSamples - 1}}), "decoded");
}

}  // namespace
}  // namespace ascp::engine
