// Seeded mutation fuzz of the assembler, which reads outside input
// (platform_lint --asm FILE). Mutants of the boot and monitor ROM sources
// must assemble or throw AsmError: no other exception, no crash, no UB. Run
// under ASAN/UBSan by `scripts/ci.sh wcet`. The mutants come from a fixed
// seed, and a failure prints the mutant's index and source.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "common/rng.hpp"
#include "mcu/assembler.hpp"
#include "mcu/bootrom.hpp"
#include "mcu/monitor_rom.hpp"

namespace ascp::mcu {
namespace {

/// Lines at the assembler's edges: code at the top of the 64 K space, a DS
/// or EQU without its value, an EQU that redefines a name and a literal sum
/// past the range of a 64-bit integer.
const char* const kBoundary[] = {
    "ORG 0FFFEh", "ORG 0FFFFh", "DS", "DS 0FFFFh", "X EQU", "X EQU 0FFF0h", "ACC EQU 1",
    "MOV A,#0x7FFFFFFFFFFFFFFF+0x7FFFFFFFFFFFFFFF", "DW 0-0x7FFFFFFFFFFFFFFF-0x7FFFFFFFFFFFFFFF"};

/// Start of the line holding `at`.
std::size_t line_start(const std::string& s, std::size_t at) {
  const auto nl = s.rfind('\n', at);
  return nl == std::string::npos ? 0 : nl + 1;
}

/// One to four edits: bit flips, truncations, deletions, a source line
/// spliced in elsewhere, or a boundary line inserted.
std::string mutate(std::string src, Rng& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.next_u64() % n); };
  for (std::size_t edits = 1 + pick(4); edits > 0 && !src.empty(); --edits) {
    const std::size_t at = pick(src.size());
    switch (pick(5)) {
      case 0: src[at] = static_cast<char>(src[at] ^ (1 << pick(8))); break;
      case 1: src.resize(at); break;
      case 2: src.erase(at, 1 + pick(16)); break;
      case 3: {
        const std::size_t from = line_start(src, pick(src.size()));
        const std::size_t to = src.find('\n', from);
        const std::string line = src.substr(from, to == std::string::npos ? to : to - from + 1);
        src.insert(line_start(src, at), line);
        break;
      }
      default:
        src.insert(line_start(src, at), std::string(kBoundary[pick(std::size(kBoundary))]) + "\n");
    }
  }
  return src;
}

TEST(AsmFuzz, MutatedRomSourcesAssembleOrThrowAsmError) {
  const std::string sources[] = {MonitorRom::source(), BootRom::source()};
  Rng rng(2026);
  int assembled = 0, rejected = 0;
  const int kMutants = 3000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string src = mutate(sources[i % 2], rng);
    Assembler as;
    // The boot ROM's platform symbols, as BootRom::image() defines them.
    as.define("PROGRAM", 0x8000);
    as.define("SPIDATA", 0xFF00);
    as.define("SPICTRL", 0xFF02);
    try {
      const AsmResult r = as.assemble(src);
      ++assembled;
      ASSERT_LE(r.image.size(), 0x10000u) << "mutant " << i;
      for (const auto& [addr, annot] : r.loop_annots)
        ASSERT_LT(addr, r.image.size()) << "mutant " << i;
    } catch (const AsmError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << " instead of AsmError:\n"
                    << src;
    }
  }
  // Both outcomes must be common, or the mutator has stopped exploring.
  EXPECT_GT(assembled, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 20);
}

}  // namespace
}  // namespace ascp::mcu
