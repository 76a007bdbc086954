// assembler.hpp — two-pass MCS-51 assembler.
//
// The paper's software deliverable is 8051 firmware (boot loader, monitor,
// communication routines). To make that firmware first-class in this
// reproduction, programs are written in assembly source, assembled by this
// class and executed on the ISS — no hand-maintained byte arrays.
//
// Supported: the full MCS-51 mnemonic set, labels, EQU, ORG, DB, DW, DS,
// numeric literals (decimal, 0x…/…h hex, …b binary, 'c' char), +/- constant
// expressions taken modulo 2^16, predefined SFR and SFR-bit symbols, and
// dotted bit syntax (P1.3, ACC.7, 20h.0).
//
// Instructions are encoded from the rows of the MCS-51 opcode table
// (opcode_table.hpp): an instruction's operands must match one form of its
// mnemonic, written as a fixed name (A, C, DPTR, @A+DPTR, ...), Rn, @Ri,
// #expr, /bit or a bare expression, and anything else is an AsmError that
// lists the mnemonic's forms. There is no generic JMP or CALL: JMP is only
// JMP @A+DPTR, and a jump to a label is SJMP, AJMP or LJMP. The image stops
// at 64 K: an item may end at 0x10000 but not past it. EQU cannot redefine
// a name that is already a label, an EQU, a define() or a predefined SFR.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ascp::mcu {

struct Form;

/// Error with source line context.
class AsmError : public std::runtime_error {
 public:
  AsmError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message), line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Loop annotation attached to a back-edge instruction via an assembler
/// comment. `;@loop-bound N` asserts the loop whose back edge is on that
/// line executes its body at most N times per entry; `;@loop-wait` marks an
/// external-event poll loop (UART RI/TI, hardware status) whose spinning is
/// excluded from busy-time WCET and accounted as I/O wait instead. A comment
/// starting with `;@loop-` that matches neither form is an AsmError, as is
/// an annotation that does not bind to an instruction.
struct LoopAnnot {
  long bound = 0;     ///< max body executions per loop entry (0 with wait)
  bool wait = false;  ///< external-event wait loop
};

struct AsmResult {
  std::vector<std::uint8_t> image;           ///< code image from address 0
  std::uint16_t entry = 0;                   ///< ORG of the first emitted byte
  std::map<std::string, std::uint16_t> symbols;  ///< resolved label/EQU values
  std::map<std::uint16_t, LoopAnnot> loop_annots;  ///< back-edge address -> annotation
};

class Assembler {
 public:
  Assembler();

  /// Assemble a full source text. Throws AsmError on any syntax problem.
  AsmResult assemble(std::string_view source);

  /// Define an external symbol before assembly (e.g. platform register
  /// addresses shared between C++ and firmware).
  void define(const std::string& name, std::uint16_t value);

 private:
  struct Line {
    int number;
    std::string label;
    std::string mnemonic;
    std::vector<std::string> operands;
    int annot = 0;         ///< 0 none, 1 ;@loop-bound, 2 ;@loop-wait
    long annot_bound = 0;  ///< iterations for annot == 1
  };

  std::map<std::string, std::uint16_t> symbols_;
  std::map<std::string, std::uint8_t> bit_symbols_;

  static std::vector<Line> parse(std::string_view source);
  /// The table row whose mnemonic and operand shapes `line` matches; throws
  /// an AsmError listing the mnemonic's forms when no row does.
  static const Form& form_of(const Line& line);
  /// The bytes of `line`, encoded by its row `form`, placed at `addr`.
  std::vector<std::uint8_t> encode(const Line& line, const Form& form, std::uint16_t addr) const;

  std::uint16_t eval(const std::string& expr, int line) const;
  std::uint8_t eval_bit(const std::string& expr, int line) const;
};

}  // namespace ascp::mcu
