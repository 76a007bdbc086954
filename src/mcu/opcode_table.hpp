// opcode_table.hpp — the MCS-51 opcode table and the one instruction decoder.
//
// What the assembler, the disassembler, the firmware analyzer and the WCET
// model know about an 8051 opcode lives in one constexpr 256-entry table
// (opcode_table.cpp), built from one row per instruction form: the
// mnemonic, the operand shapes in text order with the encoded byte each
// comes from, whether each operand is read, written or both, the machine
// cycles and the control-flow kind. Instruction length follows from the
// operand shapes. The assembler (assembler.hpp) encodes from the rows
// (forms()). The decoder below serves the disassembler listing
// (disassembler.hpp), the CFG builder and operand queries of the firmware
// analyzer (analysis/cfg, firmware_lint), the WCET cost model
// (analysis/timing_lint) and platform_top's hot-spot listing. Core8051 does
// not use the table: the ISS stays an independent implementation, and
// exhaustive tests compare the two for all 256 opcodes
// (OpcodeTable.DecodeAgreesWithIss, OpcodeTable.WritesAgreeWithIss,
// CycleTable.AgreesWithIssForAllOpcodes, CycleTable.CacheAccessesAgreeWithIss).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

namespace ascp::mcu {

/// Control-flow effect of one instruction.
enum class Flow : std::uint8_t {
  Seq,           ///< falls through only
  Jump,          ///< unconditional, resolved target (LJMP/AJMP/SJMP)
  CondJump,      ///< resolved target + fall-through
  Call,          ///< resolved target + fall-through (returns)
  Ret,           ///< RET
  Reti,          ///< RETI
  IndirectJump,  ///< JMP @A+DPTR — target not statically resolved
};

/// Operand shape, as written in assembler text.
enum class Opd : std::uint8_t {
  A, AB, C, Dptr, AtDptr, AtAPlusDptr, AtAPlusPc,  ///< fixed: no operand byte
  Rn,      ///< R0..R7, numbered by the opcode's low three bits
  AtRi,    ///< @R0/@R1, numbered by the opcode's bit 0
  Imm8,    ///< #data
  Imm16,   ///< #data16, high byte first
  Direct,  ///< iram 0x00-0x7F or SFR 0x80-0xFF
  Bit,     ///< bit address
  NotBit,  ///< /bit, the complemented source of ANL/ORL C
  Rel,     ///< signed displacement from the next instruction
  Addr11,  ///< AJMP/ACALL: low 8 bits; bits 10..8 are the opcode's top bits
  Addr16,  ///< LJMP/LCALL, high byte first
};

/// How assembler text spells `shape`: the operand itself for the seven
/// fixed shapes (A, AB, C, DPTR, @DPTR, @A+DPTR, @A+PC), the data book's
/// placeholder for the rest (Rn, @Ri, #data, direct, bit, rel, ...).
const char* spelling(Opd shape);

/// Operand bytes a shape encodes.
constexpr int width(Opd shape) {
  switch (shape) {
    case Opd::Imm16: case Opd::Addr16: return 2;
    case Opd::Imm8: case Opd::Direct: case Opd::Bit: case Opd::NotBit: case Opd::Rel:
    case Opd::Addr11: return 1;
    default: return 0;
  }
}

/// How an instruction uses an operand.
enum Access : std::uint8_t { kRead = 1, kWrite = 2, kReadWrite = 3 };

struct Operand {
  Opd shape = Opd::A;
  Access access = kRead;
  /// Encoded byte the operand comes from (its first byte for 16-bit
  /// shapes); 0 for shapes without an operand byte.
  std::uint8_t at = 0;
};

struct OpcodeInfo {
  const char* mnemonic = "";  ///< "DB 0xA5" for the one undefined opcode
  Operand slots[3] = {};
  int n_operands = 0;
  int cycles = 1;  ///< machine cycles, fixed per opcode on this core
  Flow flow = Flow::Seq;

  /// Operands in text order.
  constexpr std::span<const Operand> operands() const {
    return {slots, static_cast<std::size_t>(n_operands)};
  }
  /// Encoded bytes: the opcode and each operand's.
  constexpr int length() const {
    int n = 1;
    for (const Operand& o : operands()) n += width(o.shape);
    return n;
  }
};

/// One instruction form: a row of the table. Operands take their encoded
/// bytes in text order unless `at` says otherwise (MOV dir,dir encodes its
/// source first).
struct Form {
  std::uint8_t opcode;  ///< the first opcode the row covers
  OpcodeInfo info;

  constexpr Form(std::uint8_t op, const char* mnemonic, int cycles, Flow flow,
                 std::initializer_list<Operand> operands = {})
      : opcode(op), info{mnemonic, {}, 0, cycles, flow} {
    int next = 1;
    for (Operand o : operands) {
      if (width(o.shape) > 0 && o.at == 0) o.at = static_cast<std::uint8_t>(next);
      next += width(o.shape);
      info.slots[info.n_operands++] = o;
    }
  }

  /// The row covers opcodes variant(0) to variant(variants() - 1): Rn rows
  /// number R0..R7 in the low three bits, @Ri rows @R0/@R1 in bit 0 and
  /// AJMP/ACALL rows the 2 KB page in bits 7..5.
  constexpr int variants() const {
    return has(Opd::AtRi) ? 2 : has(Opd::Rn) || has(Opd::Addr11) ? 8 : 1;
  }
  constexpr std::uint8_t variant(int k) const {
    return static_cast<std::uint8_t>(opcode + k * (has(Opd::Addr11) ? 0x20 : 1));
  }
  constexpr bool has(Opd shape) const {
    for (const Operand& o : info.operands())
      if (o.shape == shape) return true;
    return false;
  }
};

/// The table's rows, one per instruction form.
std::span<const Form> forms();

/// The table entry for `opcode`.
const OpcodeInfo& opcode_info(std::uint8_t opcode);

/// One decoded instruction.
struct Insn {
  std::uint16_t addr = 0;
  std::uint8_t bytes[3] = {0, 0, 0};  ///< opcode + operand bytes
  int length = 1;                     ///< 1..3
  Flow flow = Flow::Seq;
  std::uint16_t target = 0;  ///< valid for Jump/CondJump/Call
  bool truncated = false;    ///< instruction runs past the end of the image

  std::uint8_t opcode() const { return bytes[0]; }
  const OpcodeInfo& info() const { return opcode_info(bytes[0]); }
  int cycles() const { return info().cycles; }
  /// Assembler-ready text, e.g. "MOV DPTR, #0x4002" or "JNB 0x99, 0x0012".
  std::string text() const;
  /// The operand of `shape` the instruction writes, if any: its address for
  /// Direct and Bit, its register number for Rn.
  std::optional<std::uint8_t> written(Opd shape) const;
  /// Accesses to the `shape` operand with address (or register number)
  /// `value`: one per read and one per write, so read-modify-write forms
  /// such as INC dir count two.
  int accesses(Opd shape, std::uint8_t value) const;
};

/// Decode the instruction at absolute address `addr` of `code`, an image
/// loaded at `base`. Branch targets are absolute and wrap at 64 K as the PC
/// does. Bytes past the image read as 0 and set `truncated`.
Insn decode(std::span<const std::uint8_t> code, std::uint16_t base, std::uint16_t addr);

}  // namespace ascp::mcu
