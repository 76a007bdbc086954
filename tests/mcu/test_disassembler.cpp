// Pins the disassembler listing: the FNV-1a of every opcode's
// disassemble_one text and size, at the reset vector and at the 2 KB page
// edge, for each operand pattern the round-trip test feeds the assembler.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "mcu/disassembler.hpp"

namespace ascp::mcu {
namespace {

std::uint64_t listing_hash(std::uint8_t b1, std::uint8_t b2) {
  std::string listing;
  for (const std::uint16_t at : {0x0000, 0x07FE}) {
    for (int op = 0; op < 256; ++op) {
      std::vector<std::uint8_t> image(0x0801, 0);
      image[at] = static_cast<std::uint8_t>(op);
      image[at + 1u] = b1;
      image[at + 2u] = b2;
      const DisasmInsn insn = disassemble_one(image, at);
      listing += std::to_string(insn.size) + " " + insn.text + "\n";
    }
  }
  return fnv1a_bytes(kFnv1aBasis, reinterpret_cast<const std::uint8_t*>(listing.data()),
                     listing.size());
}

TEST(OpcodeTable, ListingPinned) {
  EXPECT_EQ(listing_hash(0x34, 0x00), 16875218097995778359ull);
  EXPECT_EQ(listing_hash(0xE0, 0xFE), 6715238727988883496ull);
  EXPECT_EQ(listing_hash(0x99, 0x80), 13226091028585108405ull);
}

}  // namespace
}  // namespace ascp::mcu
