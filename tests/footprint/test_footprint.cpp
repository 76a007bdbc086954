// Footprint tests: what a channel and its observers allocate, and when.
//
// This binary replaces the global operator new/delete with a counting pair
// that tracks live and peak heap bytes and the number of allocations.
// No other test shares the binary, so the counting perturbs nothing else,
// and the tests run single-threaded. Every check compares two measurements
// taken in one process, so it holds whatever the toolchain's own
// allocation sizes are. Over-aligned allocations keep the library's
// aligned operator new and are not counted; nothing measured here uses one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/state_archive.hpp"
#include "core/noise_crew.hpp"
#include "obs/observability.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "platform/platform.hpp"

// ---- counting allocator -----------------------------------------------------
// Each block carries its size in a max-aligned header, so every form of
// delete (sized or not) can subtract what its new added.
namespace {
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::size_t g_live = 0;     ///< heap bytes currently allocated through new
std::size_t g_peak = 0;     ///< high-water mark of g_live since a test last set it
std::uint64_t g_allocs = 0; ///< calls to operator new since the process started
}  // namespace

void* operator new(std::size_t n) {
  auto* base = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (!base) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof n);
  ++g_allocs;
  g_live += n;
  g_peak = std::max(g_peak, g_live);
  return base + kHeader;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (!p) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t n;
  std::memcpy(&n, base, sizeof n);
  g_live -= n;
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ascp {
namespace {

/// Peak heap bytes, above what was live before, of building a channel of
/// `kind` and advancing it 1920 base ticks (1 ms). This thread's noise crew
/// is started first, so its one-time set-up is booked to no channel.
std::size_t channel_peak_bytes(engine::ChannelKind kind) {
  (void)core::NoiseCrew::here();
  const std::size_t base = g_live;
  g_peak = base;
  {
    engine::ChannelConfig cfg;
    cfg.kind = kind;
    engine::ConditioningChannel channel(cfg);
    channel.advance(1920);
  }
  return g_peak - base;
}

TEST(Footprint, IdealChannelNeverHoldsTheInlTables) {
  // Both fidelities build the same two 14-bit SAR converters. A Full channel
  // converts from its first DSP frame, so each converter holds at least the
  // 4 KiB INL page its codes reach, but only the pages they reach: fewer
  // bytes than the two whole tables. An Ideal channel never converts, so it
  // holds no page.
  const std::size_t full = channel_peak_bytes(engine::ChannelKind::GyroFull);
  const std::size_t ideal = channel_peak_bytes(engine::ChannelKind::GyroIdeal);
  const std::size_t page = 4096, tables = 2 * 16384 * sizeof(double);
  EXPECT_GE(full, ideal + 2 * page) << "Full " << full << " B, Ideal " << ideal << " B";
  EXPECT_LT(full, ideal + tables) << "Full " << full << " B, Ideal " << ideal << " B";
}

TEST(Footprint, PcHistogramAllocatedAtTheFirstInstruction) {
  platform::McuSubsystem mcu;
  mcu.load_firmware({0x00, 0x80, 0xFD});  // NOP; SJMP back to the NOP
  obs::Observability obs;
  mcu.cpu().set_profiler(&obs.mcu);
  // Before the core retires anything the histogram is empty: it reads as
  // all zeros, and reading or resetting it allocates nothing.
  const std::size_t before = g_live;
  EXPECT_EQ(obs.mcu.pc_count(0), 0u);
  EXPECT_EQ(obs.mcu.pc_count(0xFFFF), 0u);
  EXPECT_TRUE(obs.mcu.top_pcs(10).empty());
  obs.mcu.reset();
  EXPECT_EQ(g_live, before);

  mcu.cpu().step();
  const std::size_t after_first = g_live;
  EXPECT_GE(after_first - before, 65536 * sizeof(std::uint64_t));
  for (int i = 0; i < 100; ++i) mcu.cpu().step();
  EXPECT_EQ(g_live, after_first) << "later instructions must not allocate";

  EXPECT_EQ(obs.mcu.instructions(), 101u);
  EXPECT_EQ(obs.mcu.pc_count(0) + obs.mcu.pc_count(1), 101u);
  obs.mcu.reset();
  EXPECT_EQ(obs.mcu.pc_count(0), 0u);
  EXPECT_TRUE(obs.mcu.top_pcs(10).empty());
}

/// Bytes of the six 8051-side memories a McuSubsystem holds once each has
/// been written: code, XDATA RAM, program RAM, the SRAM trace, the cache's
/// external RAM and the boot EEPROM.
struct McuMemoryBytes {
  std::size_t code, xdata, prog, sram, external, eeprom;
  std::size_t total() const { return code + xdata + prog + sram + external + eeprom; }
};

McuMemoryBytes mcu_memory_bytes(platform::McuSubsystem& mcu) {
  return {65536,
          mcu.bus().ram_size(),
          mcu.bus().program_size(),
          mcu::SramController::kSamples * sizeof(std::uint16_t),
          mcu.cache()->config().external_bytes,
          mcu.eeprom()->size()};
}

TEST(Footprint, IdealChannelHoldsNoMcuMemories) {
  // A channel without firmware never writes its 8051 memories, so over its
  // whole life it holds less heap than they would take.
  platform::McuSubsystem mcu;
  const std::size_t memories = mcu_memory_bytes(mcu).total();
  const std::size_t ideal = channel_peak_bytes(engine::ChannelKind::GyroIdeal);
  EXPECT_LT(ideal, memories) << "Ideal " << ideal << " B, 8051 memories " << memories << " B";
}

TEST(Footprint, McuMemoriesAllocatedAtTheFirstWrite) {
  platform::McuSubsystem mcu;
  const McuMemoryBytes bytes = mcu_memory_bytes(mcu);
  const platform::BridgeMap& map = mcu.config().map;
  const std::uint8_t cdata = static_cast<std::uint8_t>(mcu.cache()->config().sfr_base + 3);
  mcu::SramController& sram = *mcu.sram_trace();
  mcu::SpiEeprom& eeprom = *mcu.eeprom();

  // Untouched memories read as their fill values, and neither reading them
  // nor saving the subsystem allocates anything but the archive's bytes.
  const std::size_t base = g_live;
  EXPECT_EQ(mcu.cpu().code_byte(0x1234), 0x00);
  EXPECT_EQ(mcu.bus().read(0x0010), 0x00);
  EXPECT_EQ(mcu.bus().read(static_cast<std::uint16_t>(map.prog_ram + 5)), 0x00);
  EXPECT_EQ(sram.read_reg(5), 0u);
  EXPECT_EQ(mcu.cpu().read_sfr(cdata), 0xFF);  // a miss fills a line from the external RAM
  EXPECT_EQ(eeprom.peek(0x0100), 0xFF);
  eeprom.select(true);
  for (std::uint8_t b : {0x03, 0x01, 0x00}) eeprom.transfer(b);  // READ from 0x0100
  EXPECT_EQ(eeprom.transfer(0), 0xFF);
  eeprom.select(false);
  EXPECT_EQ(g_live, base);
  StateArchive out = StateArchive::saver();
  mcu.serialize_state(out);
  const std::vector<std::uint8_t> untouched = out.take();
  EXPECT_EQ(g_live, base + untouched.capacity());

  // Each first write allocates its own memory and nothing else.
  std::size_t live = g_live;
  const auto growth = [&live] {
    const std::size_t grew = g_live - live;
    live = g_live;
    return grew;
  };
  // MOV DPTR,#prog_ram; MOV A,#5Ah; MOVX @DPTR,A; SJMP $
  mcu.load_firmware({0x90, static_cast<std::uint8_t>(map.prog_ram >> 8),
                     static_cast<std::uint8_t>(map.prog_ram & 0xFF), 0x74, 0x5A, 0xF0, 0x80,
                     0xFE});
  EXPECT_EQ(growth(), bytes.code) << "load_firmware";
  for (int i = 0; i < 3; ++i) mcu.cpu().step();
  EXPECT_EQ(growth(), bytes.prog) << "MOVX into program RAM";
  EXPECT_EQ(mcu.cpu().code_byte(map.prog_ram), 0x5A) << "program RAM mirrors into code";
  mcu.bus().write(0x0010, 0x5A);
  EXPECT_EQ(growth(), bytes.xdata) << "host write into XDATA RAM";
  sram.push(0, 1);        // not armed
  sram.write_reg(0, 3);   // reset + arm, NODE 0
  sram.push(1, 1);        // another node
  EXPECT_EQ(growth(), 0u) << "pushes that store nothing";
  EXPECT_TRUE(sram.push(0, 0x1234));
  EXPECT_EQ(growth(), bytes.sram) << "armed push";
  mcu.cpu().write_sfr(cdata, 0x42);
  EXPECT_EQ(growth(), bytes.external) << "CDATA write";
  eeprom.program(0x0100, {0x42});
  EXPECT_EQ(growth(), bytes.eeprom) << "EEPROM program()";
  EXPECT_EQ(g_live, base + untouched.capacity() + bytes.total());

  // A program-RAM write on a fresh subsystem allocates code too.
  {
    platform::McuSubsystem fresh;
    live = g_live;
    fresh.bus().write(map.prog_ram, 0x5A);
    EXPECT_EQ(growth(), bytes.prog + bytes.code) << "program RAM write mirrored into code";
  }

  // Restoring an image whose memories all hold their fill leaves them
  // untouched: a fresh subsystem allocates nothing, and a written one
  // releases what its writes allocated.
  {
    platform::McuSubsystem fresh;
    const std::size_t built = g_live;
    StateArchive in = StateArchive::loader(untouched);
    fresh.serialize_state(in);
    EXPECT_EQ(g_live, built) << "restore into a fresh subsystem";
  }
  StateArchive in = StateArchive::loader(untouched);
  mcu.serialize_state(in);
  EXPECT_EQ(g_live, base + untouched.capacity()) << "restore into a written subsystem";
  EXPECT_EQ(mcu.cpu().code_byte(0), 0x00);
  EXPECT_EQ(eeprom.peek(0x0100), 0xFF);
}

// The obs record path is cheap enough to leave armed on every channel: once
// its rings have wrapped, recording into them allocates nothing.
TEST(Footprint, ObsRecordPathAllocatesNothingOnceWrapped) {
  obs::FlightRecorder fr(2048);
  obs::EventLog log(1024);
  log.set_flight_recorder(&fr);
  obs::SpanLog spans(1024);
  obs::TaskProfiler tasks;
  tasks.set_base_rate(1000.0);
  tasks.set_span_log(&spans);
  const int task = tasks.register_task("analog", 1, 0);
  for (int i = 0; i < 4096; ++i) {  // wrap every ring
    fr.record_metric(0.0, "warm", 1.0);
    log.emit(0.0, obs::EventSeverity::Debug, obs::EventCategory::Engine, "warm");
    spans.complete("warm", obs::SpanCategory::Channel, 0.0, 0.0);
  }
  const std::uint64_t wrapped = fr.total();
  const auto allocations = [](auto&& record) {
    const std::uint64_t before = g_allocs;
    for (std::int64_t i = 0; i < 10000; ++i) record(static_cast<double>(i), i);
    return g_allocs - before;
  };
  EXPECT_EQ(allocations([&](double t, std::int64_t) {
              fr.record_event(t, 1, 8, "tick_failed", "stall detected", "channel", 3.0,
                              "elapsed_ms", 12.5);
            }),
            0u)
      << "FlightRecorder::record_event";
  EXPECT_EQ(allocations([&](double t, std::int64_t) {
              fr.record_metric(t, "channel.outputs", 64.0);
            }),
            0u)
      << "FlightRecorder::record_metric";
  EXPECT_EQ(allocations([&](double t, std::int64_t tick) {
              fr.record_probe(t, 4, tick, 0.25, -0.25);
            }),
            0u)
      << "FlightRecorder::record_probe";
  EXPECT_EQ(allocations([&](double t, std::int64_t) {
              log.emit(t, obs::EventSeverity::Info, obs::EventCategory::Engine, "restart", {},
                       {{"channel", 1.0}, {"backoff_ticks", 2.0}});
            }),
            0u)
      << "EventLog::emit teeing into the recorder";
  EXPECT_EQ(allocations([&](double t, std::int64_t) {
              spans.end(spans.begin("channel.advance", obs::SpanCategory::Channel, t), t + 1.0);
            }),
            0u)
      << "SpanLog::begin + end";
  const std::uint64_t firings = spans.count(obs::SpanCategory::Scheduler);
  EXPECT_EQ(allocations([&](double, std::int64_t tick) {
              tasks.record(task, static_cast<long>(tick), 1, 1e-7);
            }),
            0u)
      << "TaskProfiler::record into the span log";
  EXPECT_EQ(spans.count(obs::SpanCategory::Scheduler) - firings, 10000u)
      << "each timed firing committed its one span";
  EXPECT_EQ(fr.total() - wrapped, 4 * 10000u) << "each record and teed event was recorded";
}

}  // namespace
}  // namespace ascp
