#include "analysis/cfg.hpp"

#include <cstdio>
#include <deque>

namespace ascp::analysis {
namespace {

std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%04X", v);
  return buf;
}

}  // namespace

Cfg build_cfg(const FirmwareImage& fw, Report* rep) {
  Cfg cfg;
  cfg.base = fw.base;
  cfg.entry = fw.entry;
  cfg.size = fw.image.size();

  const auto at = [&fw](std::uint16_t addr) { return fw.name + ":" + hex16(addr); };
  const auto report = [rep](Severity sev, std::string loc, std::string msg) {
    if (rep) rep->add(sev, "firmware", std::move(loc), std::move(msg));
  };

  if (!cfg.in_image(fw.entry)) {
    report(Severity::Error, fw.name,
           "entry point " + hex16(fw.entry) + " lies outside the image");
    return cfg;
  }
  cfg.entry_ok = true;

  std::deque<std::uint16_t> work{fw.entry};
  while (!work.empty()) {
    const std::uint16_t addr = work.front();
    work.pop_front();
    if (cfg.insns.contains(addr)) continue;
    const Insn in = mcu::decode(fw.image, fw.base, addr);
    cfg.insns.emplace(addr, in);
    if (in.truncated) {
      report(Severity::Error, at(addr),
             "instruction " + in.text() + " runs past the end of the image");
      continue;
    }
    const auto next = static_cast<std::uint16_t>(addr + in.length);
    const auto follow = [&](std::uint16_t t) {
      if (cfg.in_image(t)) {
        cfg.succ[addr].push_back(t);
        work.push_back(t);
      } else if (cfg.external_exits.insert(t).second) {
        report(Severity::Info, at(addr),
               "control transfers outside the image to " + hex16(t) +
                   " (external code)");
      }
    };
    const auto fallthrough = [&] {
      if (!cfg.in_image(next)) {
        report(Severity::Error, at(addr),
               "execution can fall off the end of the image after " + in.text());
      } else {
        cfg.succ[addr].push_back(next);
        work.push_back(next);
      }
    };
    switch (in.flow) {
      case Flow::Seq: fallthrough(); break;
      case Flow::Jump: follow(in.target); break;
      case Flow::CondJump:
        follow(in.target);
        fallthrough();
        break;
      case Flow::Call:
        cfg.call_sites[addr] = in.target;
        if (cfg.in_image(in.target)) {
          cfg.routine_entries.insert(in.target);
          work.push_back(in.target);
        } else if (cfg.external_exits.insert(in.target).second) {
          report(Severity::Info, at(addr),
                 "call to code outside the image at " + hex16(in.target));
        }
        fallthrough();
        break;
      case Flow::Ret:
      case Flow::Reti:
        break;
      case Flow::IndirectJump:
        cfg.indirect_jumps.insert(addr);
        report(Severity::Warning, at(addr),
               "computed jump (JMP @A+DPTR) — control flow not statically resolved");
        break;
    }
  }
  return cfg;
}

std::vector<std::set<std::uint16_t>> strongly_connected(
    const std::set<std::uint16_t>& nodes,
    const std::map<std::uint16_t, std::vector<std::uint16_t>>& succ) {
  std::vector<std::set<std::uint16_t>> sccs;
  std::map<std::uint16_t, int> index, low;
  std::set<std::uint16_t> on_stack;
  std::vector<std::uint16_t> stack;
  int counter = 0;

  struct Frame {
    std::uint16_t node;
    std::size_t child = 0;
  };
  for (const std::uint16_t root : nodes) {
    if (index.contains(root)) continue;
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack.insert(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto s = succ.find(f.node);
      const std::size_t nsucc = s == succ.end() ? 0 : s->second.size();
      if (f.child < nsucc) {
        const std::uint16_t w = s->second[f.child++];
        if (!nodes.contains(w)) continue;
        if (!index.contains(w)) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack.insert(w);
          frames.push_back({w});
        } else if (on_stack.contains(w)) {
          low[f.node] = std::min(low[f.node], index[w]);
        }
      } else {
        if (low[f.node] == index[f.node]) {
          std::set<std::uint16_t> scc;
          std::uint16_t w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.insert(w);
          } while (w != f.node);
          sccs.push_back(std::move(scc));
        }
        const std::uint16_t done = f.node;
        frames.pop_back();
        if (!frames.empty())
          low[frames.back().node] = std::min(low[frames.back().node], low[done]);
      }
    }
  }
  return sccs;
}

std::map<std::uint16_t, std::uint16_t> resolve_movx_stores(const Cfg& cfg) {
  // Basic-block leaders: branch targets plus the instruction after any
  // non-sequential flow (the state also resets after calls, because the
  // callee may clobber DPTR — the leader after a Call handles that).
  std::set<std::uint16_t> leaders{cfg.entry};
  for (const auto& [addr, in] : cfg.insns) {
    if (in.flow == Flow::Jump || in.flow == Flow::CondJump || in.flow == Flow::Call)
      if (cfg.in_image(in.target)) leaders.insert(in.target);
    if (in.flow != Flow::Seq)
      leaders.insert(static_cast<std::uint16_t>(addr + in.length));
  }

  std::map<std::uint16_t, std::uint16_t> stores;
  int dpl = -1, dph = -1;  // tracked DPTR halves, -1 = unknown
  std::uint16_t prev_end = 0;
  bool first = true;
  for (const auto& [addr, in] : cfg.insns) {
    if (first || addr != prev_end || leaders.contains(addr)) dpl = dph = -1;
    first = false;
    prev_end = static_cast<std::uint16_t>(addr + in.length);

    if (in.opcode() == 0xF0 && dpl >= 0 && dph >= 0)  // MOVX @DPTR,A
      stores[addr] = static_cast<std::uint16_t>(dph << 8 | dpl);

    switch (in.opcode()) {
      case 0x90:  // MOV DPTR,#imm16
        dph = in.bytes[1];
        dpl = in.bytes[2];
        break;
      case 0xA3:  // INC DPTR
        if (dpl >= 0 && dph >= 0) {
          const auto v = static_cast<std::uint16_t>((dph << 8 | dpl) + 1);
          dpl = v & 0xFF;
          dph = v >> 8;
        }
        break;
      case 0x75:  // MOV dir,#imm
        if (in.bytes[1] == 0x82) dpl = in.bytes[2];
        if (in.bytes[1] == 0x83) dph = in.bytes[2];
        break;
      default:  // any other write to DPL/DPH makes the half unknown
        if (const auto dest = in.written(mcu::Opd::Direct)) {
          if (*dest == 0x82) dpl = -1;
          if (*dest == 0x83) dph = -1;
        }
        break;
    }
  }
  return stores;
}

}  // namespace ascp::analysis
