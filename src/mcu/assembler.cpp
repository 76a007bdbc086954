#include "mcu/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

namespace ascp::mcu {

namespace {

std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

/// Case-fold an operand without touching character literals ('w' stays 'w').
std::string upper_outside_quotes(std::string_view s) {
  std::string out(s);
  bool in_char = false;
  for (char& c : out) {
    if (c == '\'') in_char = !in_char;
    if (!in_char) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return std::string(s.substr(begin, end - begin + 1));
}

bool is_reg(const std::string& op, int& n) {
  if (op.size() == 2 && op[0] == 'R' && op[1] >= '0' && op[1] <= '7') {
    n = op[1] - '0';
    return true;
  }
  return false;
}

bool is_ind(const std::string& op, int& n) {
  if (op.size() == 3 && op[0] == '@' && op[1] == 'R' && (op[2] == '0' || op[2] == '1')) {
    n = op[2] - '0';
    return true;
  }
  return false;
}

bool is_imm(const std::string& op) { return !op.empty() && op[0] == '#'; }

}  // namespace

Assembler::Assembler() {
  // Standard SFR byte symbols.
  const std::pair<const char*, std::uint16_t> sfrs[] = {
      {"P0", 0x80},  {"SP", 0x81},   {"DPL", 0x82},  {"DPH", 0x83}, {"PCON", 0x87},
      {"TCON", 0x88}, {"TMOD", 0x89}, {"TL0", 0x8A}, {"TL1", 0x8B}, {"TH0", 0x8C},
      {"TH1", 0x8D}, {"P1", 0x90},   {"SCON", 0x98}, {"SBUF", 0x99}, {"P2", 0xA0},
      {"IE", 0xA8},  {"P3", 0xB0},   {"IP", 0xB8},   {"PSW", 0xD0}, {"ACC", 0xE0},
      {"B", 0xF0}};
  for (const auto& [name, value] : sfrs) symbols_[name] = value;

  // Standard bit symbols.
  const std::pair<const char*, std::uint8_t> bits[] = {
      {"IT0", 0x88}, {"IE0", 0x89}, {"IT1", 0x8A}, {"IE1", 0x8B},
      {"TR0", 0x8C}, {"TF0", 0x8D}, {"TR1", 0x8E}, {"TF1", 0x8F},
      {"RI", 0x98},  {"TI", 0x99},  {"RB8", 0x9A}, {"TB8", 0x9B},
      {"REN", 0x9C}, {"SM2", 0x9D}, {"SM1", 0x9E}, {"SM0", 0x9F},
      {"EX0", 0xA8}, {"ET0", 0xA9}, {"EX1", 0xAA}, {"ET1", 0xAB},
      {"ES", 0xAC},  {"EA", 0xAF},
      {"CY", 0xD7},  {"AC", 0xD6},  {"F0", 0xD5},  {"RS1", 0xD4},
      {"RS0", 0xD3}, {"OV", 0xD2}};
  for (const auto& [name, value] : bits) bit_symbols_[name] = value;
}

void Assembler::define(const std::string& name, std::uint16_t value) {
  symbols_[upper(name)] = value;
}

std::vector<Assembler::Line> Assembler::parse(std::string_view source) {
  std::vector<Line> lines;
  int number = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const auto eol = source.find('\n', pos);
    std::string raw(source.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                                     : eol - pos));
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
    ++number;

    // Strip comments (respecting character literals like #';'), keeping the
    // comment text so ;@loop-… annotations survive parsing.
    std::string text, comment;
    bool in_char = false;
    std::size_t cut = raw.size();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      if (c == '\'') in_char = !in_char;
      if (c == ';' && !in_char) {
        cut = i;
        break;
      }
      text += c;
    }
    if (cut < raw.size()) comment = trim(raw.substr(cut + 1));
    text = trim(text);

    Line line;
    line.number = number;

    // Loop annotations: ";@loop-bound N" / ";@loop-wait". Anything else
    // beginning with "@loop-" is a typo the analyzer must not silently skip.
    // A second ';' ends the annotation and starts an ordinary comment.
    if (const auto annot_end = comment.find(';'); annot_end != std::string::npos)
      if (comment.rfind("@loop-", 0) == 0) comment = trim(comment.substr(0, annot_end));
    if (comment.rfind("@loop-", 0) == 0) {
      if (comment.rfind("@loop-wait", 0) == 0 &&
          trim(comment.substr(10)).empty()) {
        line.annot = 2;
      } else if (comment.rfind("@loop-bound", 0) == 0) {
        const std::string arg = trim(comment.substr(11));
        char* end = nullptr;
        const long n = std::strtol(arg.c_str(), &end, 10);
        if (arg.empty() || end == nullptr || *end != '\0' || n < 1)
          throw AsmError(number,
                         "malformed ;@loop-bound annotation: expected a positive "
                         "iteration count, got '" + arg + "'");
        line.annot = 1;
        line.annot_bound = n;
      } else {
        throw AsmError(number, "unknown loop annotation ';" + comment +
                                   "' (expected ;@loop-bound N or ;@loop-wait)");
      }
    }

    if (text.empty()) {
      if (line.annot != 0) lines.push_back(line);  // binds to the next insn
      continue;
    }

    // Labels (several may share one line: "ok: done: SJMP done").
    for (;;) {
      const auto colon = text.find(':');
      if (colon == std::string::npos) break;
      const std::string head = trim(text.substr(0, colon));
      // Only treat as a label if the head is a bare identifier.
      const bool ident = !head.empty() && std::all_of(head.begin(), head.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
      });
      if (!ident || std::isdigit(static_cast<unsigned char>(head[0]))) break;
      if (!line.label.empty()) {
        // Emit the previous label as its own empty line so both resolve.
        Line extra;
        extra.number = number;
        extra.label = line.label;
        lines.push_back(extra);
      }
      line.label = upper(head);
      text = trim(text.substr(colon + 1));
    }

    if (!text.empty()) {
      const auto space = text.find_first_of(" \t");
      line.mnemonic = upper(trim(text.substr(0, space)));
      if (space != std::string::npos) {
        std::string rest = trim(text.substr(space));
        // EQU appears after the symbol name: "FOO EQU 5".
        const std::string rest_u = upper(rest);
        if (rest_u.rfind("EQU ", 0) == 0 || rest_u == "EQU") {
          line.label = line.mnemonic;  // the "mnemonic" was actually the name
          line.mnemonic = "EQU";
          rest = trim(rest.substr(3));
        }
        // Split operands on commas (respecting char literals).
        std::string cur;
        bool in_char2 = false;
        for (char c : rest) {
          if (c == '\'') in_char2 = !in_char2;
          if (c == ',' && !in_char2) {
            line.operands.push_back(upper_outside_quotes(trim(cur)));
            cur.clear();
          } else {
            cur += c;
          }
        }
        if (!trim(cur).empty()) line.operands.push_back(upper_outside_quotes(trim(cur)));
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

std::uint16_t Assembler::eval(const std::string& expr, int line) const {
  // Sum of +/- separated terms; each term is a literal or symbol.
  std::size_t i = 0;
  long total = 0;
  int sign = 1;
  bool any = false;

  // Strict literal parse: the whole body must be consumed, so "12Q4" or
  // "0x12G" is a diagnostic instead of a silently truncated value.
  auto parse_literal = [&](const std::string& digits, int base,
                           const std::string& term) -> long {
    std::size_t used = 0;
    long v = 0;
    try {
      v = std::stol(digits, &used, base);
    } catch (const std::exception&) {
      throw AsmError(line, "malformed numeric literal '" + term + "'");
    }
    if (used != digits.size())
      throw AsmError(line, "malformed numeric literal '" + term + "' (stray '" +
                               digits.substr(used) + "')");
    return v;
  };

  auto parse_term = [&](std::size_t& idx) -> long {
    std::string term;
    while (idx < expr.size() && expr[idx] != '+' && expr[idx] != '-') term += expr[idx++];
    term = trim(term);
    if (term.empty()) throw AsmError(line, "empty term in expression '" + expr + "'");
    // Character literal.
    if (term.size() == 3 && term.front() == '\'' && term.back() == '\'')
      return static_cast<unsigned char>(term[1]);
    // Dollar = current address is handled by the caller (not supported here).
    // Hex 0x…
    if (term.size() >= 2 && term[0] == '0' && term[1] == 'X')
      return parse_literal(term.substr(2), 16, term);
    // Suffix forms: …H hex, …B binary (must start with a digit).
    if (std::isdigit(static_cast<unsigned char>(term[0]))) {
      if (term.back() == 'H') return parse_literal(term.substr(0, term.size() - 1), 16, term);
      if (term.back() == 'B' && term.find_first_not_of("01B") == std::string::npos)
        return parse_literal(term.substr(0, term.size() - 1), 2, term);
      return parse_literal(term, 10, term);
    }
    const auto it = symbols_.find(term);
    if (it == symbols_.end())
      throw AsmError(line, "undefined symbol '" + term + "' (no matching label, EQU or define)");
    return it->second;
  };

  while (i < expr.size()) {
    if (expr[i] == '+') {
      sign = 1;
      ++i;
      continue;
    }
    if (expr[i] == '-') {
      sign = -1;
      ++i;
      continue;
    }
    total += sign * parse_term(i);
    sign = 1;
    any = true;
  }
  if (!any) throw AsmError(line, "empty expression");
  return static_cast<std::uint16_t>(total & 0xFFFF);
}

std::uint8_t Assembler::eval8(const std::string& expr, int line) const {
  return static_cast<std::uint8_t>(eval(expr, line) & 0xFF);
}

std::uint8_t Assembler::eval_bit(const std::string& expr, int line) const {
  const auto it = bit_symbols_.find(expr);
  if (it != bit_symbols_.end()) return it->second;
  // Dotted syntax: BYTE.N
  const auto dot = expr.rfind('.');
  if (dot != std::string::npos) {
    const std::uint16_t byte = eval(expr.substr(0, dot), line);
    const std::string bitstr = expr.substr(dot + 1);
    if (bitstr.empty() || bitstr.find_first_not_of("0123456789") != std::string::npos)
      throw AsmError(line, "malformed bit index in '" + expr + "'");
    const int bit = bitstr.size() == 1 ? bitstr[0] - '0' : 8;  // multi-digit > 7
    if (bit > 7) throw AsmError(line, "bit index out of range in '" + expr + "'");
    if (byte >= 0x80) {
      if (byte % 8 != 0) throw AsmError(line, "SFR not bit-addressable: '" + expr + "'");
      return static_cast<std::uint8_t>(byte + bit);
    }
    if (byte < 0x20 || byte > 0x2F)
      throw AsmError(line, "iram byte not bit-addressable: '" + expr + "'");
    return static_cast<std::uint8_t>((byte - 0x20) * 8 + bit);
  }
  return static_cast<std::uint8_t>(eval(expr, line) & 0xFF);
}

int Assembler::instruction_size(const Line& l) const {
  const std::string& m = l.mnemonic;
  const auto& ops = l.operands;
  int n = 0;

  auto op_is = [&](std::size_t i, const char* s) { return i < ops.size() && ops[i] == s; };

  if (m == "NOP" || m == "RET" || m == "RETI") return 1;
  if (m == "AJMP" || m == "ACALL") return 2;
  if (m == "LJMP" || m == "LCALL") return 3;
  if (m == "SJMP") return 2;
  if (m == "JMP") return 1;  // JMP @A+DPTR
  if (m == "JC" || m == "JNC" || m == "JZ" || m == "JNZ") return 2;
  if (m == "JB" || m == "JNB" || m == "JBC") return 3;
  if (m == "RR" || m == "RRC" || m == "RL" || m == "RLC" || m == "SWAP" || m == "DA") return 1;
  if (m == "MUL" || m == "DIV") return 1;
  if (m == "XCHD") return 1;
  if (m == "INC" || m == "DEC") {
    if (op_is(0, "A") || op_is(0, "DPTR")) return 1;
    if (!ops.empty() && (is_reg(ops[0], n) || is_ind(ops[0], n))) return 1;
    return 2;  // direct
  }
  if (m == "ADD" || m == "ADDC" || m == "SUBB") {
    // ADD A,src
    if (ops.size() == 2 && (is_reg(ops[1], n) || is_ind(ops[1], n))) return 1;
    return 2;  // #imm or direct
  }
  if (m == "ORL" || m == "ANL" || m == "XRL") {
    if (ops.size() == 2 && ops[0] == "A") {
      if (is_reg(ops[1], n) || is_ind(ops[1], n)) return 1;
      return 2;
    }
    if (ops.size() == 2 && ops[0] == "C") return 2;  // ORL/ANL C,bit
    // dir,A = 2 bytes; dir,#imm = 3 bytes
    if (ops.size() == 2 && ops[1] == "A") return 2;
    return 3;
  }
  if (m == "MOV") {
    if (ops.size() != 2) throw AsmError(l.number, "MOV needs two operands");
    const std::string& d = ops[0];
    const std::string& s = ops[1];
    if (d == "DPTR") return 3;
    if (d == "C" || s == "C") return 2;  // MOV C,bit / MOV bit,C
    if (d == "A") {
      if (is_reg(s, n) || is_ind(s, n)) return 1;
      return 2;  // #imm or direct
    }
    if (is_reg(d, n)) {
      if (s == "A") return 1;
      return 2;  // #imm or direct
    }
    if (is_ind(d, n)) {
      if (s == "A") return 1;
      return 2;
    }
    // direct destination
    if (s == "A") return 2;
    if (is_reg(s, n) || is_ind(s, n)) return 2;
    return 3;  // dir,dir or dir,#imm
  }
  if (m == "MOVC") return 1;
  if (m == "MOVX") return 1;
  if (m == "PUSH" || m == "POP") return 2;
  if (m == "XCH") {
    if (ops.size() == 2 && (is_reg(ops[1], n) || is_ind(ops[1], n))) return 1;
    return 2;
  }
  if (m == "CJNE") return 3;
  if (m == "DJNZ") {
    if (!ops.empty() && is_reg(ops[0], n)) return 2;
    return 3;
  }
  if (m == "CLR" || m == "SETB" || m == "CPL") {
    if (op_is(0, "A") || op_is(0, "C")) return 1;
    return 2;  // bit
  }
  throw AsmError(l.number, "unknown mnemonic '" + m + "'");
}

void Assembler::encode(const Line& l, std::uint16_t addr, std::vector<std::uint8_t>& out) const {
  const std::string& m = l.mnemonic;
  const auto& ops = l.operands;
  const int ln = l.number;
  int n = 0;

  auto emit = [&](int b) { out.push_back(static_cast<std::uint8_t>(b & 0xFF)); };
  auto need = [&](std::size_t count) {
    if (ops.size() != count)
      throw AsmError(ln, m + " expects " + std::to_string(count) + " operand(s)");
  };
  auto rel_to = [&](const std::string& target, std::uint16_t end_addr) {
    // The PC is 16 bits wide, so a branch from 0x0000 back to 0xFFE2 is -32.
    const int delta =
        static_cast<std::int16_t>(static_cast<std::uint16_t>(eval(target, ln) - end_addr));
    if (delta < -128 || delta > 127)
      throw AsmError(ln, "relative branch out of range (" + std::to_string(delta) + ")");
    return delta & 0xFF;
  };
  auto imm_of = [&](const std::string& op) { return eval8(op.substr(1), ln); };

  if (m == "NOP") { emit(0x00); return; }
  if (m == "RET") { emit(0x22); return; }
  if (m == "RETI") { emit(0x32); return; }

  if (m == "LJMP") { need(1); const auto t = eval(ops[0], ln); emit(0x02); emit(t >> 8); emit(t); return; }
  if (m == "LCALL") { need(1); const auto t = eval(ops[0], ln); emit(0x12); emit(t >> 8); emit(t); return; }
  if (m == "AJMP" || m == "ACALL") {
    need(1);
    const auto t = eval(ops[0], ln);
    const std::uint16_t end_addr = static_cast<std::uint16_t>(addr + 2);
    if ((t & 0xF800) != (end_addr & 0xF800))
      throw AsmError(ln, m + " target outside the current 2K page");
    emit(((t >> 3) & 0xE0) | (m == "AJMP" ? 0x01 : 0x11));
    emit(t & 0xFF);
    return;
  }
  if (m == "SJMP") { need(1); emit(0x80); emit(rel_to(ops[0], addr + 2)); return; }
  if (m == "JMP") { emit(0x73); return; }
  if (m == "JC") { need(1); emit(0x40); emit(rel_to(ops[0], addr + 2)); return; }
  if (m == "JNC") { need(1); emit(0x50); emit(rel_to(ops[0], addr + 2)); return; }
  if (m == "JZ") { need(1); emit(0x60); emit(rel_to(ops[0], addr + 2)); return; }
  if (m == "JNZ") { need(1); emit(0x70); emit(rel_to(ops[0], addr + 2)); return; }
  if (m == "JB" || m == "JNB" || m == "JBC") {
    need(2);
    emit(m == "JB" ? 0x20 : (m == "JNB" ? 0x30 : 0x10));
    emit(eval_bit(ops[0], ln));
    emit(rel_to(ops[1], addr + 3));
    return;
  }

  if (m == "RR") { emit(0x03); return; }
  if (m == "RRC") { emit(0x13); return; }
  if (m == "RL") { emit(0x23); return; }
  if (m == "RLC") { emit(0x33); return; }
  if (m == "SWAP") { emit(0xC4); return; }
  if (m == "DA") { emit(0xD4); return; }
  if (m == "MUL") { emit(0xA4); return; }
  if (m == "DIV") { emit(0x84); return; }
  if (m == "XCHD") { need(2); is_ind(ops[1], n); emit(0xD6 | n); return; }

  if (m == "INC" || m == "DEC") {
    need(1);
    const int base = m == "INC" ? 0x04 : 0x14;
    if (ops[0] == "A") { emit(base); return; }
    if (m == "INC" && ops[0] == "DPTR") { emit(0xA3); return; }
    if (is_reg(ops[0], n)) { emit(base + 4 + n); return; }
    if (is_ind(ops[0], n)) { emit(base + 2 + n); return; }
    emit(base + 1);
    emit(eval8(ops[0], ln));
    return;
  }

  if (m == "ADD" || m == "ADDC" || m == "SUBB") {
    need(2);
    if (ops[0] != "A") throw AsmError(ln, m + " destination must be A");
    const int base = m == "ADD" ? 0x24 : (m == "ADDC" ? 0x34 : 0x94);
    if (is_imm(ops[1])) { emit(base); emit(imm_of(ops[1])); return; }
    if (is_reg(ops[1], n)) { emit(base + 4 + n); return; }
    if (is_ind(ops[1], n)) { emit(base + 2 + n); return; }
    emit(base + 1);
    emit(eval8(ops[1], ln));
    return;
  }

  if (m == "ORL" || m == "ANL" || m == "XRL") {
    need(2);
    const int base = m == "ORL" ? 0x40 : (m == "ANL" ? 0x50 : 0x60);
    if (ops[0] == "C") {
      if (m == "XRL") throw AsmError(ln, "XRL C,bit does not exist");
      const bool inverted = !ops[1].empty() && ops[1][0] == '/';
      const std::string bit = inverted ? trim(ops[1].substr(1)) : ops[1];
      emit(m == "ORL" ? (inverted ? 0xA0 : 0x72) : (inverted ? 0xB0 : 0x82));
      emit(eval_bit(bit, ln));
      return;
    }
    if (ops[0] == "A") {
      if (is_imm(ops[1])) { emit(base + 4); emit(imm_of(ops[1])); return; }
      if (is_reg(ops[1], n)) { emit(base + 8 + n); return; }
      if (is_ind(ops[1], n)) { emit(base + 6 + n); return; }
      emit(base + 5);
      emit(eval8(ops[1], ln));
      return;
    }
    // direct destination
    if (ops[1] == "A") { emit(base + 2); emit(eval8(ops[0], ln)); return; }
    if (is_imm(ops[1])) { emit(base + 3); emit(eval8(ops[0], ln)); emit(imm_of(ops[1])); return; }
    throw AsmError(ln, "bad operands for " + m);
  }

  if (m == "CLR" || m == "SETB" || m == "CPL") {
    need(1);
    if (ops[0] == "A") {
      if (m == "CLR") { emit(0xE4); return; }
      if (m == "CPL") { emit(0xF4); return; }
      throw AsmError(ln, "SETB A does not exist");
    }
    if (ops[0] == "C") {
      emit(m == "CLR" ? 0xC3 : (m == "SETB" ? 0xD3 : 0xB3));
      return;
    }
    emit(m == "CLR" ? 0xC2 : (m == "SETB" ? 0xD2 : 0xB2));
    emit(eval_bit(ops[0], ln));
    return;
  }

  if (m == "MOV") {
    need(2);
    const std::string& d = ops[0];
    const std::string& s = ops[1];
    if (d == "DPTR") {
      if (!is_imm(s)) throw AsmError(ln, "MOV DPTR needs immediate");
      const auto v = eval(s.substr(1), ln);
      emit(0x90); emit(v >> 8); emit(v);
      return;
    }
    if (d == "C") { emit(0xA2); emit(eval_bit(s, ln)); return; }
    if (s == "C") { emit(0x92); emit(eval_bit(d, ln)); return; }
    if (d == "A") {
      if (is_imm(s)) { emit(0x74); emit(imm_of(s)); return; }
      if (is_reg(s, n)) { emit(0xE8 + n); return; }
      if (is_ind(s, n)) { emit(0xE6 + n); return; }
      emit(0xE5); emit(eval8(s, ln));
      return;
    }
    if (is_reg(d, n)) {
      if (s == "A") { emit(0xF8 + n); return; }
      if (is_imm(s)) { emit(0x78 + n); emit(imm_of(s)); return; }
      emit(0xA8 + n); emit(eval8(s, ln));
      return;
    }
    if (is_ind(d, n)) {
      if (s == "A") { emit(0xF6 + n); return; }
      if (is_imm(s)) { emit(0x76 + n); emit(imm_of(s)); return; }
      emit(0xA6 + n); emit(eval8(s, ln));
      return;
    }
    // direct destination
    if (s == "A") { emit(0xF5); emit(eval8(d, ln)); return; }
    if (is_reg(s, n)) { emit(0x88 + n); emit(eval8(d, ln)); return; }
    if (is_ind(s, n)) { emit(0x86 + n); emit(eval8(d, ln)); return; }
    if (is_imm(s)) { emit(0x75); emit(eval8(d, ln)); emit(imm_of(s)); return; }
    // MOV dir,dir: source byte first.
    emit(0x85); emit(eval8(s, ln)); emit(eval8(d, ln));
    return;
  }

  if (m == "MOVC") {
    need(2);
    if (ops[1] == "@A+DPTR") { emit(0x93); return; }
    if (ops[1] == "@A+PC") { emit(0x83); return; }
    throw AsmError(ln, "MOVC source must be @A+DPTR or @A+PC");
  }
  if (m == "MOVX") {
    need(2);
    if (ops[0] == "A") {
      if (ops[1] == "@DPTR") { emit(0xE0); return; }
      if (is_ind(ops[1], n)) { emit(0xE2 + n); return; }
    } else if (ops[1] == "A") {
      if (ops[0] == "@DPTR") { emit(0xF0); return; }
      if (is_ind(ops[0], n)) { emit(0xF2 + n); return; }
    }
    throw AsmError(ln, "bad MOVX operands");
  }

  if (m == "PUSH") { need(1); emit(0xC0); emit(eval8(ops[0], ln)); return; }
  if (m == "POP") { need(1); emit(0xD0); emit(eval8(ops[0], ln)); return; }

  if (m == "XCH") {
    need(2);
    if (ops[0] != "A") throw AsmError(ln, "XCH destination must be A");
    if (is_reg(ops[1], n)) { emit(0xC8 + n); return; }
    if (is_ind(ops[1], n)) { emit(0xC6 + n); return; }
    emit(0xC5); emit(eval8(ops[1], ln));
    return;
  }

  if (m == "CJNE") {
    need(3);
    const std::uint16_t end_addr = static_cast<std::uint16_t>(addr + 3);
    if (ops[0] == "A") {
      if (is_imm(ops[1])) { emit(0xB4); emit(imm_of(ops[1])); }
      else { emit(0xB5); emit(eval8(ops[1], ln)); }
      emit(rel_to(ops[2], end_addr));
      return;
    }
    if (!is_imm(ops[1])) throw AsmError(ln, "CJNE Rn/@Ri needs immediate comparand");
    if (is_reg(ops[0], n)) { emit(0xB8 + n); }
    else if (is_ind(ops[0], n)) { emit(0xB6 + n); }
    else throw AsmError(ln, "bad CJNE operands");
    emit(imm_of(ops[1]));
    emit(rel_to(ops[2], end_addr));
    return;
  }

  if (m == "DJNZ") {
    need(2);
    if (is_reg(ops[0], n)) {
      emit(0xD8 + n);
      emit(rel_to(ops[1], addr + 2));
      return;
    }
    emit(0xD5);
    emit(eval8(ops[0], ln));
    emit(rel_to(ops[1], addr + 3));
    return;
  }

  throw AsmError(ln, "unknown mnemonic '" + m + "'");
}

AsmResult Assembler::assemble(std::string_view source) {
  const auto lines = parse(source);

  // Pass 1: resolve label addresses and EQUs; compute total extent.
  std::uint16_t addr = 0;
  std::uint16_t lowest = 0xFFFF, highest = 0;
  bool emitted = false;
  for (const Line& l : lines) {
    if (!l.label.empty() && l.mnemonic != "EQU") {
      if (symbols_.contains(l.label))
        throw AsmError(l.number, "duplicate symbol '" + l.label + "'");
      symbols_[l.label] = addr;
    }
    if (l.mnemonic.empty()) continue;
    if (l.mnemonic == "EQU") {
      if (l.operands.size() != 1) throw AsmError(l.number, "EQU needs one value");
      symbols_[l.label] = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "ORG") {
      if (l.operands.size() != 1) throw AsmError(l.number, "ORG needs one value");
      addr = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "END") break;
    int size = 0;
    if (l.mnemonic == "DB") size = static_cast<int>(l.operands.size());
    else if (l.mnemonic == "DW") size = static_cast<int>(l.operands.size()) * 2;
    else if (l.mnemonic == "DS") size = eval(l.operands.at(0), l.number);
    else size = instruction_size(l);
    lowest = std::min(lowest, addr);
    addr = static_cast<std::uint16_t>(addr + size);
    highest = std::max(highest, addr);
    emitted = true;
  }

  AsmResult result;
  if (!emitted) return result;
  result.entry = lowest;
  result.image.assign(highest, 0x00);

  // Pass 2: encode. Loop annotations bind to the instruction emitted on
  // their line, or (for comment-only lines) to the next emitted instruction.
  addr = 0;
  struct PendingAnnot {
    LoopAnnot annot;
    int line;
  };
  std::optional<PendingAnnot> pending;
  const auto take_annot = [&pending](const Line& l) {
    if (l.annot == 0) return;
    if (pending)
      throw AsmError(l.number, "loop annotation shadows the unbound one on line " +
                                   std::to_string(pending->line));
    pending = PendingAnnot{LoopAnnot{l.annot_bound, l.annot == 2}, l.number};
  };
  for (const Line& l : lines) {
    take_annot(l);
    if (l.mnemonic.empty() || l.mnemonic == "EQU") continue;
    if (l.mnemonic == "ORG") {
      addr = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "END") break;
    if (pending && (l.mnemonic == "DB" || l.mnemonic == "DW" || l.mnemonic == "DS"))
      throw AsmError(pending->line,
                     "loop annotation must precede an instruction, not data");
    std::vector<std::uint8_t> bytes;
    if (l.mnemonic == "DB") {
      for (const auto& op : l.operands) bytes.push_back(eval8(op, l.number));
    } else if (l.mnemonic == "DW") {
      for (const auto& op : l.operands) {
        const auto v = eval(op, l.number);
        bytes.push_back(static_cast<std::uint8_t>(v >> 8));
        bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      }
    } else if (l.mnemonic == "DS") {
      bytes.assign(eval(l.operands.at(0), l.number), 0x00);
    } else {
      encode(l, addr, bytes);
      if (static_cast<int>(bytes.size()) != instruction_size(l))
        throw AsmError(l.number, "internal: size mismatch for '" + l.mnemonic + "'");
      if (pending) {
        result.loop_annots[addr] = pending->annot;
        pending.reset();
      }
    }
    std::copy(bytes.begin(), bytes.end(), result.image.begin() + addr);
    addr = static_cast<std::uint16_t>(addr + bytes.size());
  }
  if (pending)
    throw AsmError(pending->line, "loop annotation binds to no instruction");

  result.symbols = symbols_;
  return result;
}

}  // namespace ascp::mcu
