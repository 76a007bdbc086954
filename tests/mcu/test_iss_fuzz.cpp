// ISS fuzz: randomized legal instruction sequences against architectural
// invariants, plus the assembler → disassembler → assembler round-trip.
// Sequence generation is seeded, so a failure reproduces from the test name
// and seed printed in the assertion message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mcu/assembler.hpp"
#include "mcu/core8051.hpp"
#include "mcu/disassembler.hpp"
#include "mcu/monitor_rom.hpp"

namespace ascp::mcu {
namespace {

std::string hex8(std::uint8_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02X", v);
  return buf;
}

bool parity_of(std::uint8_t v) {
  bool p = false;
  for (int i = 0; i < 8; ++i) p ^= (v >> i) & 1;
  return p;
}

/// One random straight-line instruction (no branches, no MOVX/MOVC — those
/// need attached buses / code layout; covered by the dedicated ISA tests).
/// Direct operands stay in scratch iram (0x30..0x5F) so the generated code
/// never tramples SP, PSW or the register banks by accident.
std::string random_insn(Rng& rng) {
  auto scratch = [&] { return hex8(static_cast<std::uint8_t>(0x30 + rng.next_u64() % 0x30)); };
  auto imm = [&] {
    return std::string("#").append(hex8(static_cast<std::uint8_t>(rng.next_u64() & 0xFF)));
  };
  auto rn = [&] { return std::string("R").append(std::to_string(rng.next_u64() % 8)); };
  const char* alu[] = {"ADD", "ADDC", "SUBB", "ORL", "ANL", "XRL"};
  switch (rng.next_u64() % 14) {
    case 0: return std::string(alu[rng.next_u64() % 6]) + " A, " + imm();
    case 1: return std::string(alu[rng.next_u64() % 6]) + " A, " + scratch();
    case 2: return std::string(alu[rng.next_u64() % 6]) + " A, " + rn();
    case 3: return "MOV A, " + imm();
    case 4: return "MOV " + rn() + ", " + imm();
    case 5: return "MOV " + scratch() + ", A";
    case 6: return "MOV A, " + scratch();
    case 7: return "INC " + (rng.next_u64() % 2 ? std::string("A") : rn());
    case 8: return "DEC " + (rng.next_u64() % 2 ? std::string("A") : rn());
    case 9: return rng.next_u64() % 2 ? "RL A" : "RR A";
    case 10: return rng.next_u64() % 2 ? "RLC A" : "RRC A";
    case 11: return rng.next_u64() % 2 ? "SWAP A" : "CPL A";
    case 12: return rng.next_u64() % 2 ? "CLR C" : "SETB C";
    case 13: return "XCH A, " + scratch();
  }
  return "NOP";
}

TEST(IssFuzz, ParityFlagTracksAccumulatorThroughRandomAluSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x5151);
    std::string src = "ORG 0x0000\n";
    const int kInsns = 200;
    for (int i = 0; i < kInsns; ++i) src += random_insn(rng) + "\n";
    src += "done: SJMP done\n";

    Core8051 cpu;
    cpu.load_program(Assembler().assemble(src).image);
    for (int i = 0; i < kInsns && !cpu.halted(); ++i) {
      const int cycles = cpu.step();
      ASSERT_GE(cycles, 1) << "seed " << seed << " insn " << i;
      // PSW.0 is hardware-generated from ACC (recomputed on PSW reads).
      ASSERT_EQ(cpu.read_sfr(sfr::PSW) & 1, parity_of(cpu.acc()) ? 1 : 0)
          << "seed " << seed << " insn " << i << " acc=" << int(cpu.acc());
    }
  }
}

TEST(IssFuzz, StackBalancedPushPopSequencesRestoreSpAndData) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0xACE1);
    // Random nest depth of PUSH/POP around random ALU filler: SP must come
    // back to its starting value and the popped bytes must match.
    const int depth = 1 + static_cast<int>(rng.next_u64() % 8);
    std::string src = "ORG 0x0000\n";
    std::vector<std::uint8_t> vals;
    for (int i = 0; i < depth; ++i) {
      const auto v = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
      vals.push_back(v);
      src += "MOV A, #" + hex8(v) + "\nPUSH ACC\n";
      src += random_insn(rng) + "\n";
    }
    std::string check;
    for (int i = depth - 1; i >= 0; --i)
      check += "POP " + hex8(static_cast<std::uint8_t>(0x60 + i)) + "\n";
    src += check;
    src += "done: SJMP done\n";

    Core8051 cpu;
    cpu.load_program(Assembler().assemble(src).image);
    const std::uint8_t sp0 = cpu.read_sfr(sfr::SP);
    for (int guard = 0; guard < 4000 && !cpu.halted(); ++guard) cpu.step();
    ASSERT_TRUE(cpu.halted()) << "seed " << seed;
    EXPECT_EQ(cpu.read_sfr(sfr::SP), sp0) << "seed " << seed;
    for (int i = 0; i < depth; ++i)
      EXPECT_EQ(cpu.iram(static_cast<std::uint8_t>(0x60 + i)), vals[static_cast<std::size_t>(i)])
          << "seed " << seed << " slot " << i;
  }
}

TEST(IssFuzz, RandomProgramsRoundTripThroughDisassembler) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 0xD15A);
    std::string src = "ORG 0x0000\n";
    for (int i = 0; i < 120; ++i) src += random_insn(rng) + "\n";
    const auto image = Assembler().assemble(src).image;

    const std::string listing =
        disassemble_range(image, 0, static_cast<std::uint16_t>(image.size()));
    const auto again = Assembler().assemble(listing).image;
    ASSERT_EQ(again, image) << "seed " << seed << "\n" << listing;
  }
}

TEST(IssFuzz, MonitorRomRoundTripsThroughDisassembler) {
  // Real firmware exercises the branchy half of the table: LCALL/AJMP/SJMP,
  // CJNE/DJNZ/JB with live targets, MOVX traffic, DPTR setup.
  const auto image = MonitorRom::image();
  const std::string listing =
      disassemble_range(image, 0, static_cast<std::uint16_t>(image.size()));
  const auto again = Assembler().assemble(listing).image;
  ASSERT_EQ(again.size(), image.size());
  ASSERT_EQ(again, image);
}

TEST(IssFuzz, EveryDefinedOpcodeDecodesAndRoundTrips) {
  // Single-instruction images for all 256 opcodes under three operand
  // patterns. {0x34, 0x00} is an iram bit (0x26.4) and offset 0. The other
  // two name SFRs and bits (ACC.0, SCON.1) and branch backwards, mostly past
  // 0x0000, so targets wrap to the top of the 64 K code space as the PC does.
  const std::uint8_t patterns[][2] = {{0x34, 0x00}, {0xE0, 0xFE}, {0x99, 0x80}};
  for (const auto& operands : patterns) {
    for (int op = 0; op < 256; ++op) {
      std::vector<std::uint8_t> image = {static_cast<std::uint8_t>(op), operands[0],
                                         operands[1]};
      const auto insn = disassemble_one(image, 0);
      ASSERT_GE(insn.size, 1);
      ASSERT_LE(insn.size, 3);
      image.resize(static_cast<std::size_t>(insn.size));
      std::vector<std::uint8_t> again;
      EXPECT_NO_THROW(again = Assembler().assemble("ORG 0x0000\n" + insn.text + "\n").image)
          << insn.text;
      EXPECT_EQ(again, image) << "opcode " << hex8(static_cast<std::uint8_t>(op)) << " -> "
                              << insn.text;
    }
  }
}

}  // namespace
}  // namespace ascp::mcu
