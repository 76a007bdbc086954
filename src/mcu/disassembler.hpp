// disassembler.hpp — MCS-51 disassembler (inverse of Assembler).
//
// Decodes code images back into assembler-ready source: every line it emits
// re-assembles to the exact bytes it was decoded from, which is what the
// conformance fuzzer's assemble → disassemble → assemble round-trip checks.
// The lines are the text of the opcode-table decoder (opcode_table.hpp), so
// the listing, the firmware analyzer's findings and platform_top's hot
// spots print the same thing. Branch targets are printed as absolute
// addresses that wrap at 64 K like the PC (the assembler re-derives the
// relative/paged encodings), the one undefined opcode (0xA5) round-trips as
// a DB directive, and operands use plain hex so no symbol table is needed.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace ascp::mcu {

struct DisasmInsn {
  std::uint16_t addr = 0;  ///< address the instruction was decoded at
  int size = 1;            ///< encoded length in bytes (1..3)
  std::string text;        ///< assembler-ready line, e.g. "MOV A, #0x3F"
};

/// Decode one instruction at `addr`. Reads past the end of `code` yield 0
/// (matching the ISS's zero-initialized code store).
DisasmInsn disassemble_one(std::span<const std::uint8_t> code, std::uint16_t addr);

/// Disassemble [begin, end) into re-assemblable source, one instruction per
/// line, starting with an ORG directive. An instruction straddling `end` is
/// flushed as DB lines so the output always covers exactly [begin, end).
std::string disassemble_range(std::span<const std::uint8_t> code, std::uint16_t begin,
                              std::uint16_t end);

}  // namespace ascp::mcu
