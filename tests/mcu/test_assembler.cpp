#include <gtest/gtest.h>

#include "mcu/assembler.hpp"

namespace ascp::mcu {
namespace {

std::vector<std::uint8_t> bytes(const std::string& src) {
  Assembler as;
  return as.assemble(src).image;
}

TEST(Assembler, EncodesBasicMoves) {
  EXPECT_EQ(bytes("MOV A,#55h"), (std::vector<std::uint8_t>{0x74, 0x55}));
  EXPECT_EQ(bytes("MOV R3,#7"), (std::vector<std::uint8_t>{0x7B, 0x07}));
  EXPECT_EQ(bytes("MOV A,R5"), (std::vector<std::uint8_t>{0xED}));
  EXPECT_EQ(bytes("MOV A,@R1"), (std::vector<std::uint8_t>{0xE7}));
  EXPECT_EQ(bytes("MOV 40h,A"), (std::vector<std::uint8_t>{0xF5, 0x40}));
}

TEST(Assembler, MovDirectDirectSourceFirst) {
  EXPECT_EQ(bytes("MOV 31h,30h"), (std::vector<std::uint8_t>{0x85, 0x30, 0x31}));
}

TEST(Assembler, MovDptrImmediate16) {
  EXPECT_EQ(bytes("MOV DPTR,#1234h"), (std::vector<std::uint8_t>{0x90, 0x12, 0x34}));
}

TEST(Assembler, SfrSymbolsResolve) {
  EXPECT_EQ(bytes("MOV ACC,#1"), (std::vector<std::uint8_t>{0x75, 0xE0, 0x01}));
  EXPECT_EQ(bytes("MOV A,P1"), (std::vector<std::uint8_t>{0xE5, 0x90}));
}

TEST(Assembler, BitSymbolsAndDottedBits) {
  EXPECT_EQ(bytes("SETB TR1"), (std::vector<std::uint8_t>{0xD2, 0x8E}));
  EXPECT_EQ(bytes("CLR RI"), (std::vector<std::uint8_t>{0xC2, 0x98}));
  EXPECT_EQ(bytes("SETB P1.3"), (std::vector<std::uint8_t>{0xD2, 0x93}));
  EXPECT_EQ(bytes("SETB 20h.5"), (std::vector<std::uint8_t>{0xD2, 0x05}));
  EXPECT_EQ(bytes("SETB ACC.7"), (std::vector<std::uint8_t>{0xD2, 0xE7}));
}

TEST(Assembler, NumericLiteralForms) {
  EXPECT_EQ(bytes("MOV A,#0x2A"), (std::vector<std::uint8_t>{0x74, 0x2A}));
  EXPECT_EQ(bytes("MOV A,#2Ah"), (std::vector<std::uint8_t>{0x74, 0x2A}));
  EXPECT_EQ(bytes("MOV A,#42"), (std::vector<std::uint8_t>{0x74, 42}));
  EXPECT_EQ(bytes("MOV A,#101b"), (std::vector<std::uint8_t>{0x74, 5}));
  EXPECT_EQ(bytes("MOV A,#'Z'"), (std::vector<std::uint8_t>{0x74, 'Z'}));
}

TEST(Assembler, ConstantExpressions) {
  EXPECT_EQ(bytes("MOV A,#10h+2"), (std::vector<std::uint8_t>{0x74, 0x12}));
  EXPECT_EQ(bytes("BASE EQU 40h \n MOV A,BASE+1"), (std::vector<std::uint8_t>{0xE5, 0x41}));
}

TEST(Assembler, LabelsAndBranches) {
  // SJMP back to start: offset -2 from the end of the 2-byte instruction.
  EXPECT_EQ(bytes("start: SJMP start"), (std::vector<std::uint8_t>{0x80, 0xFE}));
}

TEST(Assembler, ForwardReferencesResolve) {
  const auto img = bytes(R"(
    SJMP fwd
    NOP
fwd: NOP
  )");
  EXPECT_EQ(img[1], 0x01);  // skip one byte
}

TEST(Assembler, OrgPlacesCode) {
  Assembler as;
  const auto result = as.assemble(R"(
    ORG 10h
    NOP
  )");
  ASSERT_EQ(result.image.size(), 0x11u);
  EXPECT_EQ(result.entry, 0x10);
  EXPECT_EQ(result.image[0x10], 0x00);
}

TEST(Assembler, DbDwDs) {
  const auto img = bytes(R"(
    DB 1,2,0FFh,'A'
    DW 1234h
    DS 3
    DB 9
  )");
  EXPECT_EQ(img, (std::vector<std::uint8_t>{1, 2, 0xFF, 'A', 0x12, 0x34, 0, 0, 0, 9}));
}

TEST(Assembler, CommentsIgnored) {
  EXPECT_EQ(bytes("NOP ; trailing comment\n; full-line comment\nNOP"),
            (std::vector<std::uint8_t>{0x00, 0x00}));
}

TEST(Assembler, CharLiteralCasePreserved) {
  // Mnemonics and symbols fold to upper case; character literals must not.
  EXPECT_EQ(bytes("mov a,#'w'"), (std::vector<std::uint8_t>{0x74, 'w'}));
  EXPECT_EQ(bytes("MOV A,#'W'"), (std::vector<std::uint8_t>{0x74, 'W'}));
}

TEST(Assembler, CharLiteralSemicolonNotComment) {
  EXPECT_EQ(bytes("MOV A,#';'"), (std::vector<std::uint8_t>{0x74, ';'}));
}

TEST(Assembler, ArithmeticEncodings) {
  EXPECT_EQ(bytes("ADD A,R0"), (std::vector<std::uint8_t>{0x28}));
  EXPECT_EQ(bytes("ADDC A,#1"), (std::vector<std::uint8_t>{0x34, 0x01}));
  EXPECT_EQ(bytes("SUBB A,40h"), (std::vector<std::uint8_t>{0x95, 0x40}));
  EXPECT_EQ(bytes("INC @R0"), (std::vector<std::uint8_t>{0x06}));
  EXPECT_EQ(bytes("DEC R7"), (std::vector<std::uint8_t>{0x1F}));
  EXPECT_EQ(bytes("INC DPTR"), (std::vector<std::uint8_t>{0xA3}));
}

TEST(Assembler, LogicEncodings) {
  EXPECT_EQ(bytes("ORL 40h,#0Fh"), (std::vector<std::uint8_t>{0x43, 0x40, 0x0F}));
  EXPECT_EQ(bytes("ANL 40h,A"), (std::vector<std::uint8_t>{0x52, 0x40}));
  EXPECT_EQ(bytes("XRL A,R2"), (std::vector<std::uint8_t>{0x6A}));
  EXPECT_EQ(bytes("ORL C,/20h.0"), (std::vector<std::uint8_t>{0xA0, 0x00}));
  EXPECT_EQ(bytes("ANL C,TF0"), (std::vector<std::uint8_t>{0x82, 0x8D}));
}

TEST(Assembler, MovxMovcEncodings) {
  EXPECT_EQ(bytes("MOVX A,@DPTR"), (std::vector<std::uint8_t>{0xE0}));
  EXPECT_EQ(bytes("MOVX @DPTR,A"), (std::vector<std::uint8_t>{0xF0}));
  EXPECT_EQ(bytes("MOVX A,@R0"), (std::vector<std::uint8_t>{0xE2}));
  EXPECT_EQ(bytes("MOVX @R1,A"), (std::vector<std::uint8_t>{0xF3}));
  EXPECT_EQ(bytes("MOVC A,@A+DPTR"), (std::vector<std::uint8_t>{0x93}));
  EXPECT_EQ(bytes("MOVC A,@A+PC"), (std::vector<std::uint8_t>{0x83}));
}

TEST(Assembler, CjneAndDjnzEncodings) {
  // CJNE A,#5,$+3 → rel 0 (branch to next instruction).
  const auto img = bytes("x: CJNE A,#5,x");
  EXPECT_EQ(img, (std::vector<std::uint8_t>{0xB4, 0x05, 0xFD}));
  EXPECT_EQ(bytes("y: DJNZ R2,y"), (std::vector<std::uint8_t>{0xDA, 0xFE}));
  EXPECT_EQ(bytes("z: DJNZ 30h,z"), (std::vector<std::uint8_t>{0xD5, 0x30, 0xFD}));
}

TEST(Assembler, LongAndAbsoluteJumps) {
  EXPECT_EQ(bytes("LJMP 1234h"), (std::vector<std::uint8_t>{0x02, 0x12, 0x34}));
  EXPECT_EQ(bytes("LCALL 0ABCDh"), (std::vector<std::uint8_t>{0x12, 0xAB, 0xCD}));
  // AJMP within page 0: opcode = (a10..a8)<<5 | 0x01.
  const auto img = bytes("ORG 100h \n AJMP 123h");
  EXPECT_EQ(img[0x100], 0x21);
  EXPECT_EQ(img[0x101], 0x23);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  Assembler as;
  try {
    as.assemble("NOP\nBOGUS A,B\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Assembler, UndefinedSymbolThrows) {
  Assembler as;
  EXPECT_THROW(as.assemble("MOV A,NOPE"), AsmError);
}

TEST(Assembler, DuplicateLabelThrows) {
  Assembler as;
  EXPECT_THROW(as.assemble("x: NOP\nx: NOP"), AsmError);
}

TEST(Assembler, BranchOutOfRangeThrows) {
  Assembler as;
  EXPECT_THROW(as.assemble("SJMP far \n ORG 200h \n far: NOP"), AsmError);
}

TEST(Assembler, RelativeBranchWrapsAt64KButStaysBounded) {
  // The displacement is taken modulo 2^16, as the PC wraps: from 0x0000,
  // 0xFFE2 is 32 bytes back. A target really 200 bytes ahead still throws.
  EXPECT_EQ(bytes("SJMP 0FFE2h"), (std::vector<std::uint8_t>{0x80, 0xE0}));
  try {
    bytes("SJMP 0CAh");
    FAIL() << "SJMP +200 assembled";
  } catch (const AsmError& e) {
    EXPECT_STREQ(e.what(), "line 1: relative branch out of range (200)");
  }
}

TEST(Assembler, AjmpCrossPageThrows) {
  Assembler as;
  EXPECT_THROW(as.assemble("AJMP 0F00h"), AsmError);  // target in another 2K page
}

TEST(Assembler, ExternalDefinesVisible) {
  Assembler as;
  as.define("MYREG", 0x1234);
  const auto img = as.assemble("MOV DPTR,#MYREG").image;
  EXPECT_EQ(img, (std::vector<std::uint8_t>{0x90, 0x12, 0x34}));
}

TEST(Assembler, EquDefinesSymbol) {
  Assembler as;
  const auto result = as.assemble("LEDPORT EQU 90h \n MOV LEDPORT,#0FFh");
  EXPECT_EQ(result.image, (std::vector<std::uint8_t>{0x75, 0x90, 0xFF}));
}

TEST(Assembler, UndefinedLabelReportsLineAndSymbol) {
  Assembler as;
  try {
    as.assemble("NOP\nNOP\n        LJMP nowhere\n");
    FAIL() << "undefined label must throw";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'NOWHERE'"), std::string::npos);
  }
}

TEST(Assembler, ForwardReferenceToDefinedLabelStillWorks) {
  Assembler as;
  const auto r = as.assemble("LJMP later\nNOP\nlater: NOP\n");
  EXPECT_EQ(r.image[0], 0x02);  // LJMP resolved through pass 2
  EXPECT_EQ(r.symbols.at("LATER"), 4u);
}

TEST(Assembler, MalformedLiteralsAreDiagnosedNotTruncated) {
  // These all used to parse as their numeric prefix (std::stol stops at the
  // first bad character) or escape as raw std::invalid_argument.
  for (const char* src : {"MOV A,#12Q4", "MOV A,#0x", "MOV A,#0x12G",
                          "MOV A,#5XH", "MOV DPTR,#0FFZ0h"}) {
    Assembler as;
    try {
      as.assemble(src);
      FAIL() << src << " must be rejected";
    } catch (const AsmError& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << src;
      EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos) << src;
    }
  }
}

TEST(Assembler, MalformedBitIndexIsDiagnosed) {
  Assembler as;
  EXPECT_THROW(as.assemble("SETB ACC.X"), AsmError);
  EXPECT_THROW(as.assemble("SETB ACC.9"), AsmError);
  Assembler ok;
  EXPECT_EQ(ok.assemble("SETB ACC.7").image,
            (std::vector<std::uint8_t>{0xD2, 0xE7}));
}

TEST(Assembler, PushPopXchEncodings) {
  EXPECT_EQ(bytes("PUSH ACC"), (std::vector<std::uint8_t>{0xC0, 0xE0}));
  EXPECT_EQ(bytes("POP PSW"), (std::vector<std::uint8_t>{0xD0, 0xD0}));
  EXPECT_EQ(bytes("XCH A,R3"), (std::vector<std::uint8_t>{0xCB}));
  EXPECT_EQ(bytes("XCH A,40h"), (std::vector<std::uint8_t>{0xC5, 0x40}));
  EXPECT_EQ(bytes("XCHD A,@R1"), (std::vector<std::uint8_t>{0xD7}));
}

/// The line of the AsmError `src` throws, or 0 if it assembles.
int error_line(const std::string& src) {
  try {
    Assembler().assemble(src);
  } catch (const AsmError& e) {
    return e.line();
  }
  return 0;
}

TEST(Assembler, RejectsOperandsNoFormTakes) {
  // Each of these used to assemble to bytes the author did not write: a
  // generic "JMP label" became JMP @A+DPTR, operands were dropped, and
  // XCHD and MOVC ignored the registers they were given.
  for (const char* src :
       {"JMP done\ndone: NOP", "RR R0", "NOP 5", "RET 7", "DA B", "MUL", "XCHD A,R0",
        "XCHD R1,@R0", "MOVC B,@A+DPTR", "DEC DPTR", "SETB A", "MOV R0,R1"})
    EXPECT_EQ(error_line(src), 1) << src;
  try {
    bytes("movc b,@a+dptr");
    FAIL() << "MOVC B,@A+DPTR assembled";
  } catch (const AsmError& e) {
    EXPECT_STREQ(e.what(),
                 "line 1: 'MOVC B, @A+DPTR' matches no MOVC form "
                 "(MOVC A, @A+PC | MOVC A, @A+DPTR)");
  }
}

TEST(Assembler, CodeEndingAt64KFillsTheImage) {
  // The last byte of the code space is 0xFFFF; an item may end right there.
  const auto nop = bytes("ORG 0FFFFh\nNOP");
  ASSERT_EQ(nop.size(), 0x10000u);
  EXPECT_EQ(nop[0xFFFF], 0x00);
  const auto mov = bytes("ORG 0FFFEh\nMOV A,#1");
  ASSERT_EQ(mov.size(), 0x10000u);
  EXPECT_EQ(mov[0xFFFE], 0x74);
  EXPECT_EQ(mov[0xFFFF], 0x01);
}

TEST(Assembler, CodePast64KThrows) {
  EXPECT_EQ(error_line("ORG 0FFFFh\nLJMP 0"), 2);
  EXPECT_EQ(error_line("ORG 0FFF0h\nDS 20h"), 2);
  EXPECT_EQ(error_line("ORG 0FFFFh\nNOP\nNOP"), 3);
}

TEST(Assembler, EquCannotRedefineAName) {
  // A redefined EQU used to move an ORG between the two passes.
  EXPECT_EQ(error_line("X EQU 5\nORG X\nNOP\nX EQU 0FFF0h"), 4);
  EXPECT_EQ(error_line("L: NOP\nL EQU 3"), 2);
  EXPECT_EQ(error_line("ACC EQU 5"), 1);
  Assembler as;
  as.define("BASE", 0x40);
  try {
    as.assemble("BASE EQU 50h");
    FAIL() << "EQU redefined a define()";
  } catch (const AsmError& e) {
    EXPECT_STREQ(e.what(), "line 1: duplicate symbol 'BASE'");
  }
}

TEST(Assembler, DsWithoutSizeThrowsAsmError) {
  EXPECT_EQ(error_line("DS"), 1);
  EXPECT_EQ(error_line("NOP\nDS 1,2"), 2);
}

TEST(Assembler, LiteralSumsWrapModulo64K) {
  // Terms are summed modulo 2^16, so a sum past the range of a long is
  // still defined: (2^63 - 1) * 2 = 2^64 - 2 = 0xFFFE (mod 2^16).
  EXPECT_EQ(bytes("MOV A,#0x7FFFFFFFFFFFFFFF+0x7FFFFFFFFFFFFFFF"),
            (std::vector<std::uint8_t>{0x74, 0xFE}));
  EXPECT_EQ(bytes("MOV DPTR,#0-0x7FFFFFFFFFFFFFFF-2"),
            (std::vector<std::uint8_t>{0x90, 0xFF, 0xFF}));
}

}  // namespace
}  // namespace ascp::mcu
