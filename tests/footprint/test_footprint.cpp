// Footprint tests: what a channel and its observers allocate, and when.
//
// This binary replaces the global operator new/delete with a counting pair
// that tracks live and peak heap bytes, in the style of bench/perf_obs.cpp.
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

#include "obs/observability.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "platform/platform.hpp"

// ---- counting allocator -----------------------------------------------------
// Each block carries its size in a max-aligned header, so every form of
// delete (sized or not) can subtract what its new added.
namespace {
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::size_t g_live = 0;  ///< heap bytes currently allocated through new
std::size_t g_peak = 0;  ///< high-water mark of g_live since a test last set it
}  // namespace

void* operator new(std::size_t n) {
  auto* base = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (!base) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof n);
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
/// `kind` and advancing it 1920 base ticks (1 ms).
std::size_t channel_peak_bytes(engine::ChannelKind kind) {
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
  // converts from its first DSP frame, so it draws both INL tables; an Ideal
  // channel never converts, so it never allocates them.
  const std::size_t full = channel_peak_bytes(engine::ChannelKind::GyroFull);
  const std::size_t ideal = channel_peak_bytes(engine::ChannelKind::GyroIdeal);
  const std::size_t tables = 2 * 16384 * sizeof(double);
  EXPECT_GE(full, ideal + tables) << "Full " << full << " B, Ideal " << ideal << " B";
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

}  // namespace
}  // namespace ascp
