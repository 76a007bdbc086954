// 8051 memories allocated at the first write. A memory saves the same bytes
// untouched as written with its own fill at every address, a restore whose
// values all equal the fill leaves it untouched, and a channel's checkpoint
// survives snapshot → restore → snapshot byte for byte whether its 8051 ran
// firmware or not. Each memory saves only up to its last non-fill value, so
// a channel's image carries its state, not 300 KiB of fill (CheckpointSize.*).
// FrameLayout.* pins the images themselves; the footprint binary pins what
// each write allocates.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/firmware_corpus.hpp"
#include "core/gyro_system.hpp"
#include "mcu/bus.hpp"
#include "mcu/cache_ctrl.hpp"
#include "mcu/core8051.hpp"
#include "mcu/fill_memory.hpp"
#include "mcu/spi.hpp"
#include "mcu/sram_ctrl.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "safety/cal_store.hpp"
#include "support/state_twin.hpp"

namespace ascp::mcu {
namespace {

using state_twin::state_of;

template <typename T>
std::vector<std::uint8_t> saved(FillMemory<T>& m) {
  StateArchive ar = StateArchive::saver();
  m.serialize(ar, "test memory");
  return ar.take();
}

template <typename T>
void load(FillMemory<T>& m, const std::vector<std::uint8_t>& bytes) {
  StateArchive ar = StateArchive::loader(bytes);
  m.serialize(ar, "test memory");
}

/// Saving, restoring and reading one memory type, size and fill.
template <typename T>
void check_memory(std::size_t size, T fill) {
  FillMemory<T> untouched(size, fill), written(size, fill);
  for (std::size_t i = 0; i < size; ++i) written.set(i, fill);
  ASSERT_TRUE(written.allocated());
  ASSERT_FALSE(untouched.allocated());
  const auto fill_bytes = saved(untouched);
  EXPECT_EQ(fill_bytes, std::vector<std::uint8_t>(8, 0));  // a u64 saved length of 0
  EXPECT_EQ(saved(written), fill_bytes);

  // All-fill bytes restore to an untouched memory, releasing any storage.
  load(written, fill_bytes);
  EXPECT_FALSE(written.allocated());
  EXPECT_EQ(written[size - 1], fill);

  // One other value allocates, at any position, and reads back.
  for (std::size_t at : {std::size_t{0}, size / 2, size - 1}) {
    FillMemory<T> src(size, fill), dst(size, fill);
    src.set(at, static_cast<T>(fill ^ 0x5A));
    load(dst, saved(src));
    ASSERT_TRUE(dst.allocated()) << at;
    EXPECT_EQ(dst[at], static_cast<T>(fill ^ 0x5A)) << at;
    EXPECT_EQ(dst[size - 1 - at], fill) << at;
    EXPECT_EQ(saved(dst), saved(src)) << at;
    EXPECT_EQ(saved(src).size(), 8 + (at + 1) * sizeof(T)) << at;  // up to the last other value
  }

  // A truncated image fails as the element-by-element read would.
  auto cut = fill_bytes;
  cut.pop_back();
  FillMemory<T> dst(size, fill);
  EXPECT_THROW(load(dst, cut), StateError);
}

TEST(FillMemory, UntouchedSavesAsWrittenWithItsFill) {
  check_memory<std::uint8_t>(65536, 0x00);      // code
  check_memory<std::uint8_t>(4096, 0x00);       // XDATA RAM
  check_memory<std::uint8_t>(0x7F00, 0x00);     // program RAM
  check_memory<std::uint16_t>(32768, 0x0000);   // SRAM trace
  check_memory<std::uint8_t>(128 * 1024, 0xFF); // cache external RAM
  check_memory<std::uint8_t>(8192, 0xFF);       // boot EEPROM
}

/// One value differing from the fill in its lowest or its highest bit, at
/// each of the first and last 17 addresses: the memory saves exactly up to
/// it, and restores it. The saved length skips whole fill-valued blocks from
/// the end and finishes inside the last one, so these addresses sit at both
/// ends of a block, inside one and, for a size below a block, in none.
template <typename T>
void check_saved_length_at_the_edges(std::size_t size, T fill) {
  const T high = static_cast<T>(T{1} << (8 * sizeof(T) - 1));
  for (std::size_t k = 0; k < 17; ++k) {
    for (std::size_t at : {k, size - 1 - k}) {
      for (T bit : {T{1}, high}) {
        FillMemory<T> src(size, fill), dst(size, fill);
        src.set(at, static_cast<T>(fill ^ bit));
        const auto bytes = saved(src);
        EXPECT_EQ(bytes.size(), 8 + (at + 1) * sizeof(T)) << "size " << size << " at " << at;
        load(dst, bytes);
        EXPECT_EQ(dst[at], static_cast<T>(fill ^ bit)) << "size " << size << " at " << at;
      }
    }
  }
}

TEST(FillMemory, SavedLengthEndsAtTheLastNonFillValue) {
  check_saved_length_at_the_edges<std::uint8_t>(65536, 0x00);    // code
  check_saved_length_at_the_edges<std::uint8_t>(1000, 0xFF);     // not a whole number of blocks
  check_saved_length_at_the_edges<std::uint8_t>(20, 0xFF);       // less than one block
  check_saved_length_at_the_edges<std::uint16_t>(32768, 0x0000); // SRAM trace
  check_saved_length_at_the_edges<std::uint16_t>(999, 0xFFFF);
  check_saved_length_at_the_edges<std::uint16_t>(20, 0x5A5A);
}

TEST(FillMemory, CountedFormRefusesAnotherSize) {
  FillMemory<std::uint8_t> m(16, 0xFF);
  StateArchive out = StateArchive::saver();
  m.serialize_counted(out, "test RAM");
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 8u + 8u);  // the u64 count of value(std::vector&), then a saved length 0
  FillMemory<std::uint8_t> other(32, 0xFF);
  StateArchive in = StateArchive::loader(bytes);
  try {
    other.serialize_counted(in, "test RAM");
    ADD_FAILURE() << "a 16-byte image restored into a 32-byte memory";
  } catch (const StateError& e) {
    EXPECT_STREQ(e.what(), "checkpoint test RAM size 16 differs from the configured 32");
  }
}

// Each component's state, untouched and with every address of its memory
// written with the fill, through the component's own write path.
TEST(FillMemory, EveryMcuMemorySavesTheSameWhenWrittenWithItsFill) {
  Core8051 core, core_w;
  for (std::uint32_t a = 0; a < 65536; ++a) core_w.poke_code(static_cast<std::uint16_t>(a), 0);
  EXPECT_EQ(state_of(core), state_of(core_w)) << "code";

  Core8051 mirror, mirror_w;
  BridgedBus bus, bus_w;
  bus.map_program_ram(0x8000, 0x7F00, &mirror);
  bus_w.map_program_ram(0x8000, 0x7F00, &mirror_w);
  for (std::uint32_t a = 0; a < bus_w.ram_size(); ++a) bus_w.write(static_cast<std::uint16_t>(a), 0);
  for (std::uint32_t i = 0; i < 0x7F00; ++i) bus_w.write(static_cast<std::uint16_t>(0x8000 + i), 0);
  EXPECT_EQ(state_of(bus), state_of(bus_w)) << "XDATA and program RAM";
  EXPECT_EQ(state_of(mirror), state_of(mirror_w)) << "program RAM mirrored into code";

  SramController sram, sram_w;
  sram_w.write_reg(0, 3);  // reset + arm
  for (std::size_t i = 0; i < SramController::kSamples; ++i) sram_w.push(0, 0);
  sram_w.write_reg(0, 2);  // reset: COUNT 0, disarmed, as never armed
  EXPECT_EQ(state_of(sram), state_of(sram_w)) << "SRAM trace";

  CacheController cache, cache_w;
  cache_w.load(0, std::vector<std::uint8_t>(cache_w.config().external_bytes, 0xFF));
  EXPECT_EQ(state_of(cache), state_of(cache_w)) << "cache external RAM";

  SpiEeprom eeprom, eeprom_w;
  eeprom_w.program(0, std::vector<std::uint8_t>(eeprom_w.size(), 0xFF));
  EXPECT_EQ(state_of(eeprom), state_of(eeprom_w)) << "EEPROM";
}

TEST(FillMemory, CheckpointRoundTripIsByteIdentical) {
  for (const bool firmware : {false, true}) {
    engine::ChannelConfig cfg;
    cfg.kind = engine::ChannelKind::GyroIdeal;
    cfg.seed = 11;
    if (firmware) {
      // The 8051 runs the watchdog kicker between outputs; the host writes
      // every other memory and arms a capture of chain node 0.
      cfg.configure = [](core::GyroSystemConfig& c) { c.with_mcu = true; };
      cfg.customize = [](core::GyroSystem& g) {
        platform::McuSubsystem& p = g.platform();
        p.load_firmware(analysis::corpus::assemble_watchdog_kicker(p.config().map).image);
        p.bus().write(0x0010, 0x5A);
        p.bus().write(p.config().map.prog_ram, 0x5A);
        p.sram_trace()->write_reg(0, 3);
        p.cache()->load(0x100, {1, 2, 3});
        p.eeprom()->program(0x200, {4, 5, 6});
      };
    }
    engine::ConditioningChannel ch(cfg);
    ch.advance(20000);
    if (firmware) {
      ASSERT_GT(ch.gyro()->platform().cpu().cycle_count(), 0) << "the 8051 ran";
      ASSERT_GT(ch.gyro()->platform().sram_trace()->count(), 0u) << "the capture stored";
    }
    const auto image = ch.snapshot();
    engine::ConditioningChannel restored(cfg);
    restored.restore(image);
    EXPECT_EQ(restored.snapshot(), image) << (firmware ? "with firmware" : "without firmware");
  }
}

/// A channel as a FleetSupervisor runs it in the ledger's fleet_mixed: a
/// bounded DropOldest queue and an armed flight recorder.
engine::ChannelConfig fleet_config(engine::ChannelKind kind) {
  engine::ChannelConfig cfg;
  cfg.kind = kind;
  cfg.seed = 11;
  cfg.queue_capacity = 4096;
  cfg.queue_policy = engine::QueuePolicy::DropOldest;
  cfg.with_flight_recorder = true;
  return cfg;
}

std::vector<std::uint8_t> snapshot_after_20000_ticks(const engine::ChannelConfig& cfg) {
  engine::ConditioningChannel ch(cfg);
  ch.advance(20000);
  return ch.snapshot();
}

/// The little-endian u64 saved length at `at` in a component's state: 0
/// where its memory opens the state, 8 behind a counted memory's count.
std::uint64_t saved_length_of(const std::vector<std::uint8_t>& state, std::size_t at = 0) {
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) v = v << 8 | state.at(at + i);
  return v;
}

// A channel whose 8051 runs no firmware writes none of its memories, so its
// image carries none of their 300 KiB of fill.
TEST(CheckpointSize, ChannelsWithoutFirmwareSaveAtMost8KiB) {
  EXPECT_LE(snapshot_after_20000_ticks(fleet_config(engine::ChannelKind::GyroIdeal)).size(),
            8u * 1024);
  EXPECT_LE(snapshot_after_20000_ticks(fleet_config(engine::ChannelKind::GyroFull)).size(),
            8u * 1024);
}

// Loaded firmware grows the image by its code length, not by 64 KiB: the
// code memory saves up to the firmware's last non-zero byte, and the
// kicker writes no other memory.
TEST(CheckpointSize, FirmwareAddsItsCodeLength) {
  engine::ChannelConfig bare = fleet_config(engine::ChannelKind::GyroIdeal);
  bare.configure = [](core::GyroSystemConfig& c) { c.with_mcu = true; };
  std::vector<std::uint8_t> firmware;
  engine::ChannelConfig kicker = bare;
  kicker.customize = [&firmware](core::GyroSystem& g) {
    platform::McuSubsystem& p = g.platform();
    firmware = analysis::corpus::assemble_watchdog_kicker(p.config().map).image;
    p.load_firmware(firmware);
  };
  const auto without = snapshot_after_20000_ticks(bare);
  const auto with = snapshot_after_20000_ticks(kicker);
  std::size_t code_length = firmware.size();
  while (code_length > 0 && firmware[code_length - 1] == 0) --code_length;
  ASSERT_GT(code_length, 0u);
  EXPECT_EQ(with.size(), without.size() + code_length);
}

// Every memory a firmware channel does write round-trips, up to its whole
// size: code after load_firmware, the EEPROM after a factory calibration
// stores its record, and an SRAM trace captured until full, whose last
// sample is not the fill (saved length = size).
TEST(CheckpointSize, WrittenMemoriesRoundTripByteIdentical) {
  engine::ChannelConfig cfg = fleet_config(engine::ChannelKind::GyroIdeal);
  cfg.configure = [](core::GyroSystemConfig& c) { c.with_mcu = true; };
  cfg.customize = [](core::GyroSystem& g) {
    platform::McuSubsystem& p = g.platform();
    p.load_firmware(analysis::corpus::assemble_watchdog_kicker(p.config().map).image);
    safety::store_calibration(*p.spi(), g.config().comp);
    SramController& sram = *p.sram_trace();
    sram.write_reg(0, 3);  // reset + arm, NODE 0
    for (std::uint32_t i = 0; i < SramController::kSamples; ++i)
      sram.push(0, static_cast<std::uint16_t>(i | 1));
  };
  engine::ConditioningChannel ch(cfg);
  ch.advance(20000);
  platform::McuSubsystem& p = ch.gyro()->platform();
  ASSERT_GT(p.cpu().cycle_count(), 0) << "the 8051 ran";
  ASSERT_TRUE(p.sram_trace()->full());
  EXPECT_EQ(saved_length_of(state_of(*p.sram_trace())), SramController::kSamples);
  EXPECT_GT(saved_length_of(state_of(*p.eeprom()), 8), 0u) << "the calibration record";
  EXPECT_GT(saved_length_of(state_of(p.cpu())), 0u) << "the firmware";

  const auto image = ch.snapshot();
  engine::ConditioningChannel restored(cfg);
  restored.restore(image);
  EXPECT_EQ(restored.snapshot(), image);
}

}  // namespace
}  // namespace ascp::mcu
