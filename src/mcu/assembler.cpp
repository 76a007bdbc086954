#include "mcu/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

#include "mcu/core8051.hpp"
#include "mcu/opcode_table.hpp"

namespace ascp::mcu {

namespace {

using enum Opd;

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

/// The operand syntax `op` is written in: a fixed shape (A, DPTR, @A+PC, ...)
/// by its spelling, Rn, AtRi, Imm8 for any '#', NotBit for any '/', and
/// Direct for a bare expression.
Opd syntax(const std::string& op) {
  for (Opd fixed : {A, AB, C, Dptr, AtDptr, AtAPlusDptr, AtAPlusPc})
    if (op == spelling(fixed)) return fixed;
  if (op.size() == 2 && op[0] == 'R' && op[1] >= '0' && op[1] <= '7') return Rn;
  if (op == "@R0" || op == "@R1") return AtRi;
  if (op.starts_with('#')) return Imm8;
  if (op.starts_with('/')) return NotBit;
  return Direct;
}

/// Whether an operand written in `written` syntax fills a table operand of
/// `shape`.
bool takes(Opd shape, Opd written) {
  switch (shape) {
    case Imm16: return written == Imm8;
    case Bit: case Rel: case Addr11: case Addr16: return written == Direct;
    default: return shape == written;
  }
}

/// `head` and then `operands`, comma-separated, as an instruction is written.
std::string spell(std::string head, const std::vector<std::string>& operands) {
  const char* sep = " ";
  for (const std::string& op : operands) {
    head += sep;
    head += op;
    sep = ", ";
  }
  return head;
}

}  // namespace

Assembler::Assembler() {
  for (const auto& [name, addr] : sfr::kNamed) symbols_[name] = addr;

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
  // Sum of +/- separated terms, modulo 2^16; each term is a literal or symbol.
  std::size_t i = 0;
  std::uint16_t total = 0;
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
    const auto term = static_cast<std::uint16_t>(parse_term(i));
    total = static_cast<std::uint16_t>(sign > 0 ? total + term : total - term);
    sign = 1;
    any = true;
  }
  if (!any) throw AsmError(line, "empty expression");
  return total;
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

const Form& Assembler::form_of(const Line& l) {
  const auto matches = [&l](const Form& form) {
    return l.mnemonic == form.info.mnemonic &&
           std::ranges::equal(form.info.operands(), l.operands,
                              [](const Operand& o, const std::string& op) {
                                return takes(o.shape, syntax(op));
                              });
  };
  const auto rows = forms();
  if (const auto it = std::ranges::find_if(rows, matches); it != rows.end()) return *it;

  std::string known;  // the mnemonic's forms, for the error
  for (const Form& form : rows) {
    if (l.mnemonic != form.info.mnemonic) continue;
    std::vector<std::string> spelled;
    for (const Operand& o : form.info.operands()) spelled.emplace_back(spelling(o.shape));
    known += (known.empty() ? "" : " | ") + spell(l.mnemonic, spelled);
  }
  if (known.empty()) throw AsmError(l.number, "unknown mnemonic '" + l.mnemonic + "'");
  throw AsmError(l.number, "'" + spell(l.mnemonic, l.operands) + "' matches no " + l.mnemonic +
                               " form (" + known + ")");
}

std::vector<std::uint8_t> Assembler::encode(const Line& l, const Form& form,
                                            std::uint16_t addr) const {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(form.info.length()));
  const auto end = static_cast<std::uint16_t>(addr + out.size());
  int variant = 0;  // register number or 2 KB page: see Form::variant
  for (std::size_t i = 0; i < l.operands.size(); ++i) {
    const std::string& op = l.operands[i];
    const Operand& o = form.info.slots[i];
    std::uint16_t v = 0;
    switch (o.shape) {
      case Rn: variant = op[1] - '0'; break;
      case AtRi: variant = op[2] - '0'; break;
      case Imm8: case Imm16: v = eval(op.substr(1), l.number); break;
      case Direct: case Addr16: v = eval(op, l.number); break;
      case Bit: v = eval_bit(op, l.number); break;
      case NotBit: v = eval_bit(trim(op.substr(1)), l.number); break;
      case Rel: {
        // The PC is 16 bits wide, so a branch from 0x0000 back to 0xFFE2 is -32.
        const int delta = static_cast<std::int16_t>(eval(op, l.number) - end);
        if (delta < -128 || delta > 127)
          throw AsmError(l.number, "relative branch out of range (" + std::to_string(delta) + ")");
        v = static_cast<std::uint16_t>(delta);
        break;
      }
      case Addr11:
        v = eval(op, l.number);
        if ((v & 0xF800) != (end & 0xF800))
          throw AsmError(l.number, l.mnemonic + " target outside the current 2K page");
        variant = (v >> 8) & 7;
        break;
      default: break;  // a fixed shape: no operand byte
    }
    // 16-bit operands go high byte first.
    if (width(o.shape) == 2) out[o.at] = static_cast<std::uint8_t>(v >> 8);
    if (width(o.shape) > 0) out[o.at + width(o.shape) - 1] = static_cast<std::uint8_t>(v);
  }
  out[0] = form.variant(variant);
  return out;
}

AsmResult Assembler::assemble(std::string_view source) {
  const auto lines = parse(source);
  const auto define_new = [this](const Line& l, std::uint16_t value) {
    if (!symbols_.emplace(l.label, value).second)
      throw AsmError(l.number, "duplicate symbol '" + l.label + "'");
  };

  // Pass 1: resolve label addresses and EQUs; compute total extent. Addresses
  // are kept wider than 16 bits so that code running past 0xFFFF is caught
  // rather than wrapped.
  std::uint32_t addr = 0, lowest = 0xFFFF, highest = 0;
  bool emitted = false;
  for (const Line& l : lines) {
    if (!l.label.empty() && l.mnemonic != "EQU")
      define_new(l, static_cast<std::uint16_t>(addr));
    if (l.mnemonic.empty()) continue;
    if (l.mnemonic == "EQU") {
      if (l.operands.size() != 1) throw AsmError(l.number, "EQU needs one value");
      define_new(l, eval(l.operands[0], l.number));
      continue;
    }
    if (l.mnemonic == "ORG") {
      if (l.operands.size() != 1) throw AsmError(l.number, "ORG needs one value");
      addr = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "END") break;
    std::uint32_t size = 0;
    if (l.mnemonic == "DB") {
      size = static_cast<std::uint32_t>(l.operands.size());
    } else if (l.mnemonic == "DW") {
      size = static_cast<std::uint32_t>(l.operands.size()) * 2;
    } else if (l.mnemonic == "DS") {
      if (l.operands.size() != 1) throw AsmError(l.number, "DS needs one value");
      size = eval(l.operands[0], l.number);
    } else {
      size = static_cast<std::uint32_t>(form_of(l).info.length());
    }
    lowest = std::min(lowest, addr);
    addr += size;
    if (addr > 0x10000)
      throw AsmError(l.number, "code runs past 0xFFFF, the top of the 64 K code space");
    highest = std::max(highest, addr);
    emitted = true;
  }

  AsmResult result;
  if (!emitted) return result;
  result.entry = static_cast<std::uint16_t>(lowest);
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
      for (const auto& op : l.operands)
        bytes.push_back(static_cast<std::uint8_t>(eval(op, l.number)));
    } else if (l.mnemonic == "DW") {
      for (const auto& op : l.operands) {
        const auto v = eval(op, l.number);
        bytes.push_back(static_cast<std::uint8_t>(v >> 8));
        bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      }
    } else if (l.mnemonic == "DS") {
      bytes.assign(eval(l.operands[0], l.number), 0x00);
    } else {
      bytes = encode(l, form_of(l), static_cast<std::uint16_t>(addr));
      if (pending) {
        result.loop_annots[static_cast<std::uint16_t>(addr)] = pending->annot;
        pending.reset();
      }
    }
    std::copy(bytes.begin(), bytes.end(), result.image.begin() + addr);
    addr += static_cast<std::uint32_t>(bytes.size());
  }
  if (pending)
    throw AsmError(pending->line, "loop annotation binds to no instruction");

  result.symbols = symbols_;
  return result;
}

}  // namespace ascp::mcu
