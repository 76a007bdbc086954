// Forged length fields in real images: every reader must report truncation
// (StateError) and inspect must report a bad CRC, instead of forming
// header + length past 2^64 and reading beyond the buffer. Forged element
// counts inside CRC-valid payloads must fail with the count error before
// they size an allocation, a forged 8051 memory size or saved length with
// an error naming the memory before an access indexes past it or divides by
// it (or, for a saved length that outruns the payload, the archive's
// truncation error), and a forged SAR phase or SRAM-trace register with its
// range error before it can overflow, divide by zero or desynchronize the
// DSP frame. An image of another version fails on its version word, and a
// restore leaves no byte of what a memory held past the image's saved
// length. ci.sh chaos-smoke runs these under ASAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/firmware_corpus.hpp"
#include "core/gyro_system.hpp"
#include "mcu/sram_ctrl.hpp"
#include "platform/engine/blackbox.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "platform/engine/fleet.hpp"
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

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width; i-- > 0;) v = v << 8 | bytes[at + i];
  return v;
}

/// A GyroIdeal channel's checkpoint and the image offsets of the 8051-side
/// fields the tests below forge. The McuSubsystem state closes the GSYS
/// section but for the analog-die registers, and GSYS closes the image, so
/// the fields are found from the end by the sizes of the states around them.
/// Each memory saves a u64 saved length and then that many values (after a
/// u64 count for the counted ones); the channel's 8051 never writes, so
/// every saved length is 0.
struct McuImage {
  ChannelConfig cfg;
  std::vector<std::uint8_t> image;
  std::size_t code_len, xdata_count, prog_count, eeprom_count, sram_len, sram_regs,
      external_count, lines_count;
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
  // The end of a saved length at `at` and the values behind it.
  const auto past_memory = [&](std::size_t at, std::size_t value_size) {
    return at + 8 + get_le(m.image, at, 8) * value_size;
  };
  std::size_t at = m.image.size() - afe.take().size() - state_of(p).size();
  m.code_len = at;  // the CPU state opens with its code memory
  at += state_of(p.cpu()).size();
  m.xdata_count = at;
  m.prog_count = past_memory(at + 8, 1) + 2;  // after the RAM and both bridge latches
  at += state_of(p.bus()).size() + state_of(p.host()).size() + 1;  // + SPI presence
  m.eeprom_count = at + state_of(*p.spi()).size();
  at = m.eeprom_count + state_of(*p.eeprom()).size() + 1 + state_of(*p.timer()).size() + 1 +
       state_of(*p.watchdog()).size() + 1;
  m.sram_len = at;
  m.sram_regs = past_memory(at, 2);
  m.external_count = at + state_of(*p.sram_trace()).size() + 1;
  m.lines_count = past_memory(m.external_count + 8, 1);
  return m;
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
  const std::size_t count = m.sram_regs, rdptr = count + 4, decim = count + 10,
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

// Each 8051 memory's saved length forged one past its size: a restore
// refuses it with an error naming the memory before it reads a value.
TEST(FrameForgedLength, McuMemorySavedLengthsPastTheirSize) {
  const McuImage m = mcu_image();
  const struct {
    std::size_t at;
    std::uint64_t size;
    const char* error;
  } cases[] = {
      {m.code_len, 65536, "checkpoint code saved length 65537 exceeds the configured 65536"},
      {m.xdata_count + 8, 4096,
       "checkpoint XDATA RAM saved length 4097 exceeds the configured 4096"},
      {m.prog_count + 8, 0x7F00,
       "checkpoint program RAM saved length 32513 exceeds the configured 32512"},
      {m.eeprom_count + 8, 8192,
       "checkpoint EEPROM saved length 8193 exceeds the configured 8192"},
      {m.sram_len, 32768,
       "checkpoint SRAM trace saved length 32769 exceeds the configured 32768"},
      {m.external_count + 8, 128 * 1024,
       "checkpoint cache external RAM saved length 131073 exceeds the configured 131072"},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(get_le(m.image, c.at, 8), 0u) << c.error;
    auto image = m.image;
    set_le(image, c.at, c.size + 1, 8);
    refresh_crc(image, kCheckpointFrame);
    ConditioningChannel target(m.cfg);
    EXPECT_EQ(error_of([&] { target.restore(image); }), c.error);
  }
}

// A saved length inside the memory's size whose values run past the payload
// fails with the archive's truncation error at the first value that does not
// fit, instead of reading beyond the image.
TEST(FrameForgedLength, McuMemorySavedLengthPastThePayload) {
  const McuImage m = mcu_image();
  const struct {
    std::size_t at;
    std::uint64_t length;
    const char* error_prefix;
  } cases[] = {
      {m.code_len, 65536, "archive truncated: need 65536 bytes at offset "},
      {m.sram_len, 32768, "archive truncated: need 2 bytes at offset "},
  };
  for (const auto& c : cases) {
    ASSERT_GT(c.length, m.image.size());
    auto image = m.image;
    set_le(image, c.at, c.length, 8);
    refresh_crc(image, kCheckpointFrame);
    ConditioningChannel target(m.cfg);
    const std::string error = error_of([&] { target.restore(image); });
    EXPECT_EQ(error.rfind(c.error_prefix, 0), 0u) << error;
  }
}

// A reader accepts only the version it writes. A v2 image, whose memories
// saved their whole size, fails on its version word (outside the CRC)
// before any payload is read.
TEST(FrameForgedVersion, CheckpointVersion2IsRefused) {
  ConditioningChannel ch(cheap_config());
  ch.advance(20000);
  auto image = ch.snapshot();
  ASSERT_EQ(get_le(image, 8, 4), 3u);
  set_le(image, 8, 2, 4);
  ConditioningChannel target(cheap_config());
  EXPECT_EQ(error_of([&] { target.restore(image); }), "checkpoint version 2 unsupported");
}

// A `.blackbox` carries its checkpoint as opaque bytes with their own
// version, so a crash image whose checkpoint is stamped v2 still decodes.
// Replay cannot restore that checkpoint and demotes to a cold replay from
// tick zero, as for a corrupt one, which still reproduces the crash.
TEST(FrameForgedVersion, BlackboxWithAVersion2CheckpointReplaysCold) {
  std::vector<FleetChannelSpec> specs(1);
  specs[0].config.kind = ChannelKind::GyroIdeal;
  std::atomic<int> crashes{0};
  specs[0].before_advance = [&crashes](long tick) {
    if (tick == 7 && crashes.fetch_add(1) == 0) throw std::runtime_error("crash");
  };
  FleetConfig fc;
  fc.root_seed = 31;
  fc.tick_seconds = 0.002;
  fc.checkpoint_interval = 3;
  fc.flight_recorders = true;
  std::vector<std::vector<std::uint8_t>> dumps;
  fc.blackbox_sink = [&dumps](std::size_t, const std::vector<std::uint8_t>& image) {
    dumps.push_back(image);
  };
  FleetSupervisor fleet(std::move(specs), fc);
  fleet.run_ticks(10);
  ASSERT_EQ(dumps.size(), 1u);

  auto image = dumps[0];
  const std::size_t version = find_bytes(image, {'A', 'S', 'C', 'P', 'C', 'K', 'P', 'T'}) + 8;
  ASSERT_EQ(get_le(image, version, 4), 3u);
  set_le(image, version, 2, 4);
  refresh_crc(image, kBlackboxFrame);

  const BlackboxImage img = decode_blackbox(image);
  ASSERT_FALSE(img.checkpoint.empty());
  const BlackboxReplay rep = replay_blackbox(img);
  EXPECT_FALSE(rep.checkpoint_used);
  EXPECT_TRUE(rep.checkpoint_corrupt);
  EXPECT_EQ(rep.replay_ticks, img.crash_ticks);
  EXPECT_TRUE(rep.hash_match);
}

// A restore into a channel whose code memory holds more firmware than the
// image saved: every address past the image's saved length reads the fill
// again, and the channel saves the image it was restored from.
TEST(CheckpointRestore, ShorterCodeImageLeavesFillPastItsLength) {
  ChannelConfig cfg;
  cfg.kind = ChannelKind::GyroIdeal;
  cfg.seed = 11;
  cfg.configure = [](core::GyroSystemConfig& c) { c.with_mcu = true; };
  cfg.customize = [](core::GyroSystem& g) {
    platform::McuSubsystem& p = g.platform();
    p.load_firmware(analysis::corpus::assemble_watchdog_kicker(p.config().map).image);
  };
  ChannelConfig longer = cfg;
  longer.customize = [](core::GyroSystem& g) {
    platform::McuSubsystem& p = g.platform();
    auto code = analysis::corpus::assemble_watchdog_kicker(p.config().map).image;
    code.resize(0xFF00, 0xA5);
    p.load_firmware(code);
  };
  ConditioningChannel source(cfg);
  source.advance(20000);
  const auto image = source.snapshot();

  ConditioningChannel target(longer);
  ASSERT_EQ(target.gyro()->platform().cpu().code_byte(0xFEFF), 0xA5);
  target.restore(image);
  const mcu::Core8051& want = source.gyro()->platform().cpu();
  const mcu::Core8051& got = target.gyro()->platform().cpu();
  for (std::uint32_t a = 0; a < 65536; ++a) {
    const auto at = static_cast<std::uint16_t>(a);
    ASSERT_EQ(got.code_byte(at), want.code_byte(at)) << "address " << a;
  }
  EXPECT_EQ(got.code_byte(0xFEFF), 0x00);
  EXPECT_EQ(target.snapshot(), image);
}

}  // namespace
}  // namespace ascp::engine
