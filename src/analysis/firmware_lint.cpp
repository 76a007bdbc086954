#include "analysis/firmware_lint.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "analysis/cfg.hpp"
#include "mcu/core8051.hpp"

namespace ascp::analysis {
namespace {

std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%04X", v);
  return buf;
}

std::string hex8(std::uint8_t v) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%02X", v);
  return buf;
}

int stack_push_bytes(std::uint8_t op) {
  if (op == 0xC0) return 1;                              // PUSH
  if (op == 0xD0) return -1;                             // POP
  if (op == 0x12 || (op & 0x1F) == 0x11) return 2;       // LCALL/ACALL
  return 0;
}

/// Byte-level view of the register map for MOVX store checking.
struct ByteMap {
  struct Slot {
    const BlockSpec* block = nullptr;
    const RegSpec* reg = nullptr;  ///< nullptr: offset unpopulated in block
  };
  std::map<std::uint32_t, Slot> slots;  ///< only window bytes present
  std::vector<std::pair<std::uint32_t, std::uint32_t>> memories;  ///< [lo, hi)
  std::set<std::uint16_t> kick_bytes;  ///< byte addresses of watchdog KICK

  explicit ByteMap(const RegMapSpec& map) {
    for (const MemRegion& m : map.memories) memories.push_back({m.base, m.base + m.bytes});
    for (const BlockSpec& b : map.blocks) {
      for (std::uint32_t w = 0; w < b.num_regs; ++w) {
        const RegSpec* r = map.reg_at(b, static_cast<std::uint16_t>(w));
        slots[b.base + 2 * w] = Slot{&b, r};
        slots[b.base + 2 * w + 1] = Slot{&b, r};
        if (r && r->name.find("KICK") != std::string::npos) {
          kick_bytes.insert(static_cast<std::uint16_t>(b.base + 2 * w));
          kick_bytes.insert(static_cast<std::uint16_t>(b.base + 2 * w + 1));
        }
      }
    }
  }

  bool in_memory(std::uint16_t addr) const {
    for (const auto& [lo, hi] : memories)
      if (addr >= lo && addr < hi) return true;
    return false;
  }
};

class FirmwareAnalysis {
 public:
  FirmwareAnalysis(const FirmwareImage& fw, const FirmwareLintOptions& opt)
      : fw_(fw), opt_(opt) {
    for (const auto& core : mcu::sfr::kNamed) known_sfrs_.insert(core.addr);
    known_sfrs_.insert(opt.extra_sfrs.begin(), opt.extra_sfrs.end());
    if (opt.map) bytemap_.emplace(*opt.map);
  }

  Report run() {
    if (fw_.image.empty()) {
      rep_.add(Severity::Error, "firmware", fw_.name, "empty firmware image");
      return std::move(rep_);
    }
    cfg_ = build_cfg(fw_, &rep_);
    report_unreachable();
    analyze_stack();
    analyze_stores();
    analyze_liveness();
    return std::move(rep_);
  }

 private:
  bool in_image(std::uint16_t addr) const { return cfg_.in_image(addr); }

  std::string at(std::uint16_t addr) const { return fw_.name + ":" + hex16(addr); }

  // ---- phase 2: unreachable bytes ------------------------------------------
  void report_unreachable() {
    std::vector<bool> covered(fw_.image.size(), false);
    bool has_movc = false;
    for (const auto& [addr, in] : cfg_.insns) {
      for (int i = 0; i < in.length; ++i) {
        const std::size_t off = static_cast<std::size_t>(addr - fw_.base) + i;
        if (off < covered.size()) covered[off] = true;
      }
      if (in.opcode() == 0x83 || in.opcode() == 0x93) has_movc = true;
    }
    // Code tables read through MOVC are legitimately unreachable as
    // instructions, so their presence softens the verdict.
    const Severity sev = has_movc ? Severity::Info : Severity::Warning;
    for (std::size_t i = 0; i < covered.size();) {
      if (covered[i]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < covered.size() && !covered[j]) ++j;
      rep_.add(sev, "firmware", at(static_cast<std::uint16_t>(fw_.base + i)),
               std::to_string(j - i) + " byte(s) unreachable from the entry point" +
                   (has_movc ? " (image uses MOVC — possibly data)" : ""));
      i = j;
    }
  }

  // ---- phase 3: call/ret discipline + stack-depth bound --------------------
  struct RoutineResult {
    int max_extra = 0;    ///< worst-case bytes pushed above entry depth
    bool recursive = false;
  };

  int routine_extra(std::uint16_t entry, std::set<std::uint16_t>& on_stack) {
    if (const auto it = routines_.find(entry); it != routines_.end())
      return it->second.max_extra;
    if (on_stack.contains(entry)) {
      if (recursion_reported_.insert(entry).second)
        rep_.add(Severity::Warning, "firmware", at(entry),
                 "recursive call chain — stack bound assumes one activation");
      return 0;
    }
    on_stack.insert(entry);

    std::map<std::uint16_t, int> depth;  // bytes pushed before executing addr
    std::deque<std::uint16_t> work{entry};
    depth[entry] = 0;
    int peak = 0;
    bool unbounded = false, mismatch = false;
    const bool top_level = entry == fw_.entry && !cfg_.routine_entries.contains(entry);

    while (!work.empty() && !unbounded) {
      const std::uint16_t addr = work.front();
      work.pop_front();
      const auto it = cfg_.insns.find(addr);
      if (it == cfg_.insns.end()) continue;
      const Insn& in = it->second;
      const int d = depth[addr];
      int d_out = d;

      if (const int push = stack_push_bytes(in.opcode()); push != 0) {
        if (in.flow == Flow::Call) {
          int extra = 2;
          if (in_image(in.target)) extra += routine_extra(in.target, on_stack);
          peak = std::max(peak, d + extra);
        } else {
          d_out = d + push;
          peak = std::max(peak, d_out);
          if (d_out < 0 && stack_warned_.insert(addr).second)
            rep_.add(Severity::Warning, "firmware", at(addr),
                     "POP below the routine's entry stack depth");
        }
      }
      if (in.opcode() == 0x75 && in.bytes[1] == 0x81) {  // MOV SP,#imm
        if (addr == fw_.entry || d == 0)
          sp_explicit_ = in.bytes[2];
        else if (stack_warned_.insert(addr).second)
          rep_.add(Severity::Warning, "firmware", at(addr),
                   "SP rewritten mid-flow — stack bound unreliable");
      }
      if (in.flow == Flow::IndirectJump && stack_warned_.insert(addr).second) {
        // The CFG has no edge to follow here, so the depth reached at this
        // instruction is the last the walk can account for on this path.
        rep_.add(Severity::Warning, "firmware", at(addr),
                 "unresolved-jump: " + in.text() +
                     " target not statically known — stack walk cannot follow "
                     "the edge, bound excludes whatever runs there");
      }
      if (in.flow == Flow::Ret || in.flow == Flow::Reti) {
        if (top_level)
          rep_.add(Severity::Error, "firmware", at(addr),
                   "RET with empty call stack — return address underflows into "
                   "register-bank bytes");
        else if (d != 0 && stack_warned_.insert(addr).second)
          rep_.add(Severity::Error, "firmware", at(addr),
                   "RET with unbalanced PUSH/POP (net " + std::to_string(d) +
                       " byte(s) still pushed) — returns to a data byte");
        continue;
      }
      const auto sit = cfg_.succ.find(addr);
      if (sit == cfg_.succ.end()) continue;
      for (const std::uint16_t s : sit->second) {
        const auto dit = depth.find(s);
        if (dit == depth.end()) {
          depth[s] = d_out;
          work.push_back(s);
        } else if (d_out > dit->second) {
          if (d_out > 256) {
            rep_.add(Severity::Error, "firmware", at(s),
                     "stack grows without bound around this loop");
            unbounded = true;
            break;
          }
          dit->second = d_out;
          work.push_back(s);
        } else if (d_out < dit->second && !mismatch) {
          mismatch = true;
          rep_.add(Severity::Warning, "firmware", at(s),
                   "paths reach this instruction with different stack depths (" +
                       std::to_string(d_out) + " vs " + std::to_string(dit->second) + ")");
        }
      }
    }
    on_stack.erase(entry);
    routines_[entry] = RoutineResult{peak, false};
    return peak;
  }

  void analyze_stack() {
    if (cfg_.insns.empty()) return;
    std::set<std::uint16_t> on_stack;
    const int extra = routine_extra(fw_.entry, on_stack);
    const int sp_start = sp_explicit_ ? *sp_explicit_ : opt_.sp_reset;
    const int worst = sp_start + extra;  // PUSH pre-increments; SP points at top
    if (worst > 0xFF)
      rep_.add(Severity::Error, "firmware", fw_.name,
               "worst-case stack depth overflows IDATA: SP start " +
                   hex8(static_cast<std::uint8_t>(sp_start)) + " + " +
                   std::to_string(extra) + " byte(s) pushed exceeds 0xFF");
    else
      rep_.add(Severity::Info, "firmware", fw_.name,
               "worst-case stack: SP start " + hex8(static_cast<std::uint8_t>(sp_start)) +
                   " + " + std::to_string(extra) + " byte(s) = " +
                   hex8(static_cast<std::uint8_t>(worst)) + " (IDATA ceiling 0xFF)");
  }

  // ---- phase 4: MOVX / SFR store checking ----------------------------------
  void analyze_stores() {
    const auto movx = resolve_movx_stores(cfg_);
    for (const auto& [addr, in] : cfg_.insns) {
      // SFR-space direct/bit writes.
      if (const auto dest = in.written(mcu::Opd::Direct); dest && *dest >= 0x80)
        check_sfr_write(addr, in, *dest, /*bit=*/false);
      if (const auto bit = in.written(mcu::Opd::Bit); bit && *bit >= 0x80)
        check_sfr_write(addr, in, static_cast<std::uint8_t>(*bit & 0xF8), /*bit=*/true);
      // MOVX stores through a statically resolved DPTR.
      if (const auto it = movx.find(addr); it != movx.end()) check_movx_store(addr, it->second);
    }
  }

  void check_sfr_write(std::uint16_t addr, const Insn& in, std::uint8_t sfr, bool bit) {
    if (sfr == 0x81) return;  // SP — handled by the stack phase
    if (!known_sfrs_.contains(sfr))
      rep_.add(Severity::Warning, "firmware", at(addr),
               in.text() + " writes unimplemented SFR " + hex8(sfr) +
                   " — silently absorbed by the core");
    else if (bit && (sfr & 0x07) != 0)
      rep_.add(Severity::Error, "firmware", at(addr),
               in.text() + " bit-addresses SFR " + hex8(sfr) +
                   ", which is not bit-addressable");
  }

  void check_movx_store(std::uint16_t addr, std::uint16_t dest) {
    if (!bytemap_) return;
    if (bytemap_->kick_bytes.contains(dest)) kick_insns_.insert(addr);
    const auto it = bytemap_->slots.find(dest);
    if (it == bytemap_->slots.end()) {
      if (!bytemap_->in_memory(dest))
        rep_.add(Severity::Warning, "firmware", at(addr),
                 "MOVX store to unmapped bus address " + hex16(dest) + " (open bus)");
      return;
    }
    const auto& slot = it->second;
    if (!slot.reg) {
      if (!slot.block->regs.empty())
        rep_.add(Severity::Warning, "firmware", at(addr),
                 "MOVX store to unpopulated offset in block '" + slot.block->name +
                     "' at " + hex16(dest) + " — write is dropped");
      return;
    }
    if (!slot.reg->writable)
      rep_.add(Severity::Error, "firmware", at(addr),
               "MOVX store to read-only register " + slot.block->name + "." +
                   slot.reg->name + " at " + hex16(dest) +
                   " — the bridge drops the write");
  }

  // ---- phase 5: watchdog liveness over exit-free SCCs ----------------------
  void analyze_liveness() {
    if (!opt_.check_watchdog_liveness || !bytemap_ || bytemap_->kick_bytes.empty())
      return;

    // May-kick per routine, propagated through the call graph to a fixpoint.
    std::map<std::uint16_t, std::set<std::uint16_t>> routine_body;  // entry -> insns
    std::set<std::uint16_t> entries = cfg_.routine_entries;
    entries.insert(fw_.entry);
    for (const std::uint16_t e : entries) {
      std::set<std::uint16_t>& body = routine_body[e];
      std::deque<std::uint16_t> work{e};
      while (!work.empty()) {
        const std::uint16_t a = work.front();
        work.pop_front();
        if (!cfg_.insns.contains(a) || !body.insert(a).second) continue;
        if (const auto s = cfg_.succ.find(a); s != cfg_.succ.end())
          for (const std::uint16_t n : s->second) work.push_back(n);
      }
    }
    std::set<std::uint16_t> kicking_routines;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [e, body] : routine_body) {
        if (kicking_routines.contains(e)) continue;
        for (const std::uint16_t a : body) {
          const bool kicks = kick_insns_.contains(a) ||
                             (cfg_.call_sites.contains(a) &&
                              kicking_routines.contains(cfg_.call_sites.at(a)));
          if (kicks) {
            kicking_routines.insert(e);
            changed = true;
            break;
          }
        }
      }
    }

    std::set<std::uint16_t> nodes;
    for (const auto& [a, unused] : cfg_.insns) nodes.insert(a);
    for (const auto& scc : strongly_connected(nodes, cfg_.succ)) {
      if (scc.size() == 1) {
        const std::uint16_t a = *scc.begin();
        const auto s = cfg_.succ.find(a);
        const bool self_loop =
            s != cfg_.succ.end() && std::count(s->second.begin(), s->second.end(), a) > 0;
        if (!self_loop) continue;
      }
      bool escapes = false, kicks = false;
      for (const std::uint16_t a : scc) {
        if (const auto s = cfg_.succ.find(a); s != cfg_.succ.end())
          for (const std::uint16_t n : s->second)
            if (!scc.contains(n)) escapes = true;
        if (kick_insns_.contains(a)) kicks = true;
        if (const auto c = cfg_.call_sites.find(a); c != cfg_.call_sites.end())
          if (kicking_routines.contains(c->second)) kicks = true;
      }
      if (!escapes && !kicks)
        rep_.add(Severity::Warning, "firmware", at(*scc.begin()),
                 "exit-free loop never kicks the watchdog — a bite here resets the "
                 "platform with no recovery");
    }
  }

  const FirmwareImage& fw_;
  const FirmwareLintOptions& opt_;
  Report rep_;

  Cfg cfg_;  ///< shared reachable-instruction CFG (analysis/cfg.hpp)
  std::set<std::uint8_t> known_sfrs_;
  std::optional<ByteMap> bytemap_;
  std::set<std::uint16_t> kick_insns_;  ///< MOVX stores hitting watchdog KICK

  std::map<std::uint16_t, RoutineResult> routines_;
  std::set<std::uint16_t> recursion_reported_;
  std::set<std::uint16_t> stack_warned_;
  std::optional<std::uint8_t> sp_explicit_;
};

}  // namespace

Report check_firmware(const FirmwareImage& fw, const FirmwareLintOptions& opt) {
  return FirmwareAnalysis(fw, opt).run();
}

}  // namespace ascp::analysis
