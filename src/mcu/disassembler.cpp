#include "mcu/disassembler.hpp"

#include <cstdio>

#include "mcu/opcode_table.hpp"

namespace ascp::mcu {

namespace {

std::string hex8(std::uint8_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02X", v);
  return buf;
}

std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%04X", v);
  return buf;
}

}  // namespace

DisasmInsn disassemble_one(std::span<const std::uint8_t> code, std::uint16_t addr) {
  const Insn in = decode(code, 0, addr);
  return DisasmInsn{addr, in.length, in.text()};
}

std::string disassemble_range(std::span<const std::uint8_t> code, std::uint16_t begin,
                              std::uint16_t end) {
  std::string out = "ORG " + hex16(begin) + "\n";
  std::uint32_t addr = begin;
  while (addr < end) {
    const DisasmInsn insn = disassemble_one(code, static_cast<std::uint16_t>(addr));
    if (addr + static_cast<std::uint32_t>(insn.size) > end) {
      // Trailing partial instruction (e.g. data appended to code): keep the
      // byte-for-byte contract by flushing what's left as data.
      for (; addr < end; ++addr)
        out += "DB " + hex8(addr < code.size() ? code[addr] : 0) + "\n";
      break;
    }
    out += insn.text + "\n";
    addr += static_cast<std::uint32_t>(insn.size);
  }
  return out;
}

}  // namespace ascp::mcu
