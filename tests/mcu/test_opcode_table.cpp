// The MCS-51 opcode table against the ISS: every opcode's decoded length,
// flow kind and resolved target must agree with where core8051::step()
// leaves the PC, its write flags with what step() writes, and the decoder's
// text must be the disassembler listing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mcu/bus.hpp"
#include "mcu/core8051.hpp"
#include "mcu/disassembler.hpp"
#include "mcu/opcode_table.hpp"

namespace ascp::mcu {
namespace {

TEST(OpcodeTable, DecodeAgreesWithIss) {
  // Every opcode at the reset vector, mid-page, and at the 2 KB page edge
  // where AJMP/ACALL take their page from the address after the instruction.
  for (const std::uint16_t at : {0x0000, 0x0123, 0x07FE}) {
    for (int op = 0; op < 256; ++op) {
      const std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(op), 0x42, 0x03};
      Core8051 core;
      BridgedBus bus(4096);
      core.set_xdata_bus(&bus);
      core.load_program(bytes, at);
      core.set_pc(at);
      core.step();
      const auto in = decode(bytes, at, at);
      const auto fall_through = static_cast<std::uint16_t>(at + in.length);
      const auto pushed = static_cast<std::uint16_t>(core.iram(9) << 8 | core.iram(8));
      bool ok = true;
      switch (in.flow) {
        case Flow::Seq: ok = core.pc() == fall_through; break;
        case Flow::Jump: ok = core.pc() == in.target; break;
        case Flow::Call: ok = core.pc() == in.target && pushed == fall_through; break;
        case Flow::CondJump: ok = core.pc() == in.target || core.pc() == fall_through; break;
        default: break;  // RET, RETI and JMP @A+DPTR go where the stack or A+DPTR says
      }
      EXPECT_TRUE(ok) << "opcode 0x" << std::hex << op << " at 0x" << at << ": ISS pc 0x"
                      << core.pc() << ", decoded length " << std::dec << in.length
                      << ", target 0x" << std::hex << in.target;
    }
  }
}

/// An SFR only this device implements; it counts the core's writes to it
/// and reads back all ones, so JBC finds its bit set and clears it.
class SfrWriteSpy : public SfrDevice {
 public:
  static constexpr std::uint8_t kAddr = 0xC0;
  int writes = 0;
  bool owns(std::uint8_t addr) const override { return addr == kAddr; }
  std::uint8_t read(std::uint8_t) override { return 0xFF; }
  void write(std::uint8_t, std::uint8_t) override { ++writes; }
};

TEST(OpcodeTable, WritesAgreeWithIss) {
  // The firmware analyzer's SFR-write checks, the DPTR tracking and the
  // WCET counter and SBUF queries read the table's write flags. With both
  // operand bytes naming the spy's SFR (as a direct address, and as bit 0
  // of it), one ISS step must write it exactly when the table says so, and
  // change R0..R7 only where the table says the instruction writes Rn.
  constexpr std::uint8_t kRegFill = 0x5A;
  for (int op = 0; op < 256; ++op) {
    const std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(op), SfrWriteSpy::kAddr,
                                             SfrWriteSpy::kAddr};
    Core8051 core;
    BridgedBus bus(4096);
    SfrWriteSpy spy;
    core.set_xdata_bus(&bus);
    core.attach_sfr_device(&spy);
    core.load_program(bytes);
    for (std::uint8_t r = 0; r < 8; ++r) core.set_iram(r, kRegFill);
    core.step();
    const Insn in = decode(bytes, 0, 0);
    const auto bit = in.written(Opd::Bit);
    const int expected = (in.written(Opd::Direct) == SfrWriteSpy::kAddr ? 1 : 0) +
                         (bit && (*bit & 0xF8) == SfrWriteSpy::kAddr ? 1 : 0);
    EXPECT_EQ(spy.writes, expected) << "opcode 0x" << std::hex << op << " " << in.text();
    for (std::uint8_t r = 0; r < 8; ++r)
      EXPECT_EQ(core.iram(r) != kRegFill, in.written(Opd::Rn) == r)
          << "opcode 0x" << std::hex << op << " " << in.text() << ", R" << int{r};
  }
}

TEST(OpcodeTable, DecoderTextIsTheListing) {
  // The firmware analyzer's findings and the re-assemblable listing print
  // the same text, under every operand pattern the round-trip test uses.
  const std::uint8_t patterns[][2] = {{0x34, 0x00}, {0xE0, 0xFE}, {0x99, 0x80}};
  for (const auto& operands : patterns) {
    for (int op = 0; op < 256; ++op) {
      const std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(op), operands[0],
                                               operands[1]};
      const Insn in = decode(bytes, 0, 0);
      const DisasmInsn listed = disassemble_one(bytes, 0);
      EXPECT_EQ(in.text(), listed.text) << "opcode 0x" << std::hex << op;
      EXPECT_EQ(in.length, listed.size) << "opcode 0x" << std::hex << op;
      EXPECT_FALSE(in.truncated) << "opcode 0x" << std::hex << op;
    }
  }
}

TEST(OpcodeTable, BytesPastTheImageReadAsZeroAndTruncate) {
  const std::vector<std::uint8_t> ljmp = {0x02, 0x12};  // LJMP missing its low byte
  const Insn in = decode(ljmp, 0x0100, 0x0100);
  EXPECT_TRUE(in.truncated);
  EXPECT_EQ(in.length, 3);
  EXPECT_EQ(in.target, 0x1200);
  EXPECT_EQ(in.text(), "LJMP 0x1200");
}

}  // namespace
}  // namespace ascp::mcu
