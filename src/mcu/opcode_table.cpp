#include "mcu/opcode_table.hpp"

#include <array>
#include <cstdio>
#include <iterator>

namespace ascp::mcu {
namespace {

using enum Opd;
using enum Flow;
constexpr Access R = kRead, W = kWrite, RW = kReadWrite;

// Operands default to read-only; the access is spelled out where the
// instruction writes.
constexpr Form kForms[] = {
    {0x00, "NOP", 1, Seq},
    {0x01, "AJMP", 2, Jump, {{Addr11}}},
    {0x02, "LJMP", 2, Jump, {{Addr16}}},
    {0x03, "RR", 1, Seq, {{A, RW}}},
    {0x04, "INC", 1, Seq, {{A, RW}}},
    {0x05, "INC", 1, Seq, {{Direct, RW}}},
    {0x06, "INC", 1, Seq, {{AtRi, RW}}},
    {0x08, "INC", 1, Seq, {{Rn, RW}}},
    {0x10, "JBC", 2, CondJump, {{Bit, RW}, {Rel}}},
    {0x11, "ACALL", 2, Call, {{Addr11}}},
    {0x12, "LCALL", 2, Call, {{Addr16}}},
    {0x13, "RRC", 1, Seq, {{A, RW}}},
    {0x14, "DEC", 1, Seq, {{A, RW}}},
    {0x15, "DEC", 1, Seq, {{Direct, RW}}},
    {0x16, "DEC", 1, Seq, {{AtRi, RW}}},
    {0x18, "DEC", 1, Seq, {{Rn, RW}}},
    {0x20, "JB", 2, CondJump, {{Bit}, {Rel}}},
    {0x22, "RET", 2, Ret},
    {0x23, "RL", 1, Seq, {{A, RW}}},
    {0x24, "ADD", 1, Seq, {{A, RW}, {Imm8}}},
    {0x25, "ADD", 1, Seq, {{A, RW}, {Direct}}},
    {0x26, "ADD", 1, Seq, {{A, RW}, {AtRi}}},
    {0x28, "ADD", 1, Seq, {{A, RW}, {Rn}}},
    {0x30, "JNB", 2, CondJump, {{Bit}, {Rel}}},
    {0x32, "RETI", 2, Reti},
    {0x33, "RLC", 1, Seq, {{A, RW}}},
    {0x34, "ADDC", 1, Seq, {{A, RW}, {Imm8}}},
    {0x35, "ADDC", 1, Seq, {{A, RW}, {Direct}}},
    {0x36, "ADDC", 1, Seq, {{A, RW}, {AtRi}}},
    {0x38, "ADDC", 1, Seq, {{A, RW}, {Rn}}},
    {0x40, "JC", 2, CondJump, {{Rel}}},
    {0x42, "ORL", 1, Seq, {{Direct, RW}, {A}}},
    {0x43, "ORL", 2, Seq, {{Direct, RW}, {Imm8}}},
    {0x44, "ORL", 1, Seq, {{A, RW}, {Imm8}}},
    {0x45, "ORL", 1, Seq, {{A, RW}, {Direct}}},
    {0x46, "ORL", 1, Seq, {{A, RW}, {AtRi}}},
    {0x48, "ORL", 1, Seq, {{A, RW}, {Rn}}},
    {0x50, "JNC", 2, CondJump, {{Rel}}},
    {0x52, "ANL", 1, Seq, {{Direct, RW}, {A}}},
    {0x53, "ANL", 2, Seq, {{Direct, RW}, {Imm8}}},
    {0x54, "ANL", 1, Seq, {{A, RW}, {Imm8}}},
    {0x55, "ANL", 1, Seq, {{A, RW}, {Direct}}},
    {0x56, "ANL", 1, Seq, {{A, RW}, {AtRi}}},
    {0x58, "ANL", 1, Seq, {{A, RW}, {Rn}}},
    {0x60, "JZ", 2, CondJump, {{Rel}}},
    {0x62, "XRL", 1, Seq, {{Direct, RW}, {A}}},
    {0x63, "XRL", 2, Seq, {{Direct, RW}, {Imm8}}},
    {0x64, "XRL", 1, Seq, {{A, RW}, {Imm8}}},
    {0x65, "XRL", 1, Seq, {{A, RW}, {Direct}}},
    {0x66, "XRL", 1, Seq, {{A, RW}, {AtRi}}},
    {0x68, "XRL", 1, Seq, {{A, RW}, {Rn}}},
    {0x70, "JNZ", 2, CondJump, {{Rel}}},
    {0x72, "ORL", 2, Seq, {{C, RW}, {Bit}}},
    {0x73, "JMP", 2, IndirectJump, {{AtAPlusDptr}}},
    {0x74, "MOV", 1, Seq, {{A, W}, {Imm8}}},
    {0x75, "MOV", 2, Seq, {{Direct, W}, {Imm8}}},
    {0x76, "MOV", 1, Seq, {{AtRi, W}, {Imm8}}},
    {0x78, "MOV", 1, Seq, {{Rn, W}, {Imm8}}},
    {0x80, "SJMP", 2, Jump, {{Rel}}},
    {0x82, "ANL", 2, Seq, {{C, RW}, {Bit}}},
    {0x83, "MOVC", 2, Seq, {{A, W}, {AtAPlusPc}}},
    {0x84, "DIV", 4, Seq, {{AB, RW}}},
    {0x85, "MOV", 2, Seq, {{Direct, W, 2}, {Direct, R, 1}}},
    {0x86, "MOV", 2, Seq, {{Direct, W}, {AtRi}}},
    {0x88, "MOV", 2, Seq, {{Direct, W}, {Rn}}},
    {0x90, "MOV", 2, Seq, {{Dptr, W}, {Imm16}}},
    {0x92, "MOV", 2, Seq, {{Bit, W}, {C}}},
    {0x93, "MOVC", 2, Seq, {{A, W}, {AtAPlusDptr}}},
    {0x94, "SUBB", 1, Seq, {{A, RW}, {Imm8}}},
    {0x95, "SUBB", 1, Seq, {{A, RW}, {Direct}}},
    {0x96, "SUBB", 1, Seq, {{A, RW}, {AtRi}}},
    {0x98, "SUBB", 1, Seq, {{A, RW}, {Rn}}},
    {0xA0, "ORL", 2, Seq, {{C, RW}, {NotBit}}},
    {0xA2, "MOV", 1, Seq, {{C, W}, {Bit}}},
    {0xA3, "INC", 2, Seq, {{Dptr, RW}}},
    {0xA4, "MUL", 4, Seq, {{AB, RW}}},
    {0xA6, "MOV", 2, Seq, {{AtRi, W}, {Direct}}},
    {0xA8, "MOV", 2, Seq, {{Rn, W}, {Direct}}},
    {0xB0, "ANL", 2, Seq, {{C, RW}, {NotBit}}},
    {0xB2, "CPL", 1, Seq, {{Bit, RW}}},
    {0xB3, "CPL", 1, Seq, {{C, RW}}},
    {0xB4, "CJNE", 2, CondJump, {{A}, {Imm8}, {Rel}}},
    {0xB5, "CJNE", 2, CondJump, {{A}, {Direct}, {Rel}}},
    {0xB6, "CJNE", 2, CondJump, {{AtRi}, {Imm8}, {Rel}}},
    {0xB8, "CJNE", 2, CondJump, {{Rn}, {Imm8}, {Rel}}},
    {0xC0, "PUSH", 2, Seq, {{Direct}}},
    {0xC2, "CLR", 1, Seq, {{Bit, W}}},
    {0xC3, "CLR", 1, Seq, {{C, W}}},
    {0xC4, "SWAP", 1, Seq, {{A, RW}}},
    {0xC5, "XCH", 1, Seq, {{A, RW}, {Direct, RW}}},
    {0xC6, "XCH", 1, Seq, {{A, RW}, {AtRi, RW}}},
    {0xC8, "XCH", 1, Seq, {{A, RW}, {Rn, RW}}},
    {0xD0, "POP", 2, Seq, {{Direct, W}}},
    {0xD2, "SETB", 1, Seq, {{Bit, W}}},
    {0xD3, "SETB", 1, Seq, {{C, W}}},
    {0xD4, "DA", 1, Seq, {{A, RW}}},
    {0xD5, "DJNZ", 2, CondJump, {{Direct, RW}, {Rel}}},
    {0xD6, "XCHD", 1, Seq, {{A, RW}, {AtRi, RW}}},
    {0xD8, "DJNZ", 2, CondJump, {{Rn, RW}, {Rel}}},
    {0xE0, "MOVX", 2, Seq, {{A, W}, {AtDptr}}},
    {0xE2, "MOVX", 2, Seq, {{A, W}, {AtRi}}},
    {0xE4, "CLR", 1, Seq, {{A, W}}},
    {0xE5, "MOV", 1, Seq, {{A, W}, {Direct}}},
    {0xE6, "MOV", 1, Seq, {{A, W}, {AtRi}}},
    {0xE8, "MOV", 1, Seq, {{A, W}, {Rn}}},
    {0xF0, "MOVX", 2, Seq, {{AtDptr, W}, {A}}},
    {0xF2, "MOVX", 2, Seq, {{AtRi, W}, {A}}},
    {0xF4, "CPL", 1, Seq, {{A, RW}}},
    {0xF5, "MOV", 1, Seq, {{Direct, W}, {A}}},
    {0xF6, "MOV", 1, Seq, {{AtRi, W}, {A}}},
    {0xF8, "MOV", 1, Seq, {{Rn, W}, {A}}},
};

constexpr bool every_opcode_but_a5_defined_once() {
  int defined[256] = {};
  for (const Form& form : kForms)
    for (int k = 0; k < form.variants(); ++k) ++defined[form.variant(k)];
  for (int op = 0; op < 256; ++op)
    if (defined[op] != (op == 0xA5 ? 0 : 1)) return false;
  return true;
}
static_assert(every_opcode_but_a5_defined_once());

constexpr std::array<OpcodeInfo, 256> build_table() {
  std::array<OpcodeInfo, 256> table{};
  table[0xA5].mnemonic = "DB 0xA5";  // undefined: a 1-cycle, 1-byte NOP on the ISS
  for (const Form& form : kForms)
    for (int k = 0; k < form.variants(); ++k) table[form.variant(k)] = form.info;
  return table;
}

constexpr std::array<OpcodeInfo, 256> kTable = build_table();

/// spelling(), indexed by Opd.
constexpr const char* kSpelling[] = {
    "A", "AB", "C", "DPTR", "@DPTR", "@A+DPTR", "@A+PC",  // the fixed shapes
    "Rn", "@Ri", "#data", "#data16", "direct", "bit", "/bit", "rel", "addr11", "addr16"};
static_assert(std::size(kSpelling) == static_cast<std::size_t>(Addr16) + 1);

std::string format(const char* fmt, unsigned v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

/// Operand value: its encoded byte, or the register number for Rn/@Ri.
std::uint8_t value_of(const Insn& in, const Operand& o) {
  if (o.shape == Rn) return in.opcode() & 7;
  if (o.shape == AtRi) return in.opcode() & 1;
  return in.bytes[o.at];
}

std::string operand_text(const Insn& in, const Operand& o) {
  const unsigned v = value_of(in, o);
  switch (o.shape) {
    case Rn: return format("R%u", v);
    case AtRi: return format("@R%u", v);
    case Imm8: return format("#0x%02X", v);
    case Imm16: return format("#0x%04X", v << 8 | in.bytes[o.at + 1]);
    case Direct: case Bit: return format("0x%02X", v);
    case NotBit: return format("/0x%02X", v);
    case Rel: case Addr11: case Addr16: return format("0x%04X", in.target);
    default: return spelling(o.shape);  // a fixed shape
  }
}

}  // namespace

const char* spelling(Opd shape) { return kSpelling[static_cast<int>(shape)]; }

std::span<const Form> forms() { return kForms; }

const OpcodeInfo& opcode_info(std::uint8_t opcode) { return kTable[opcode]; }

Insn decode(std::span<const std::uint8_t> code, std::uint16_t base, std::uint16_t addr) {
  Insn in;
  in.addr = addr;
  const auto fetch = [&](int i) {
    const auto off = static_cast<std::uint16_t>(addr + i - base);
    if (off < code.size())
      in.bytes[i] = code[off];
    else
      in.truncated = true;
  };
  fetch(0);
  const OpcodeInfo& info = in.info();
  in.length = info.length();
  for (int i = 1; i < static_cast<int>(std::size(in.bytes)); ++i)
    if (i < in.length) fetch(i);

  in.flow = info.flow;
  const auto next = static_cast<std::uint16_t>(addr + in.length);
  for (const Operand& o : info.operands()) {
    const std::uint8_t b = in.bytes[o.at];
    switch (o.shape) {
      case Rel: in.target = static_cast<std::uint16_t>(next + static_cast<std::int8_t>(b)); break;
      case Addr11:
        in.target = static_cast<std::uint16_t>((next & 0xF800) | (in.opcode() & 0xE0) << 3 | b);
        break;
      case Addr16: in.target = static_cast<std::uint16_t>(b << 8 | in.bytes[o.at + 1]); break;
      default: break;
    }
  }
  return in;
}

std::string Insn::text() const {
  std::string s = info().mnemonic;
  const char* sep = " ";
  for (const Operand& o : info().operands()) {
    s += sep;
    s += operand_text(*this, o);
    sep = ", ";
  }
  return s;
}

std::optional<std::uint8_t> Insn::written(Opd shape) const {
  for (const Operand& o : info().operands())
    if (o.shape == shape && (o.access & kWrite)) return value_of(*this, o);
  return std::nullopt;
}

int Insn::accesses(Opd shape, std::uint8_t value) const {
  int n = 0;
  for (const Operand& o : info().operands())
    if (o.shape == shape && value_of(*this, o) == value)
      n += (o.access & kRead ? 1 : 0) + (o.access & kWrite ? 1 : 0);
  return n;
}

}  // namespace ascp::mcu
