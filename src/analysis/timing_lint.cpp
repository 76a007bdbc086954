#include "analysis/timing_lint.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <numeric>
#include <optional>

#include "analysis/cfg.hpp"

namespace ascp::analysis {
namespace {

constexpr long kUnbounded = -1;
/// Clamp for bound × body products so pathological nests cannot overflow.
constexpr long kCycleCeiling = 1'000'000'000'000L;

std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%04X", v);
  return buf;
}

/// Does `in` write register-bank slot `n`, by name or through its bank-0
/// direct address?
bool writes_reg(const Insn& in, int n) {
  return in.written(mcu::Opd::Rn) == n || in.written(mcu::Opd::Direct) == n;
}

long lcm_capped(long a, long b, long cap) {
  const long g = std::gcd(a, b);
  const long l = (a / g) * b;
  return (l > cap || l <= 0) ? cap + 1 : l;
}

/// One region of code: a node set plus the successor edges inside it.
struct Region {
  std::set<std::uint16_t> nodes;
  std::map<std::uint16_t, std::vector<std::uint16_t>> succ;
};

class TimingAnalysis {
 public:
  TimingAnalysis(const FirmwareImage& fw, const TimingOptions& opt)
      : fw_(fw), opt_(opt) {}

  WcetResult run() {
    if (fw_.image.empty()) {
      res_.report.add(Severity::Error, "timing", fw_.name, "empty firmware image");
      return std::move(res_);
    }
    // The firmware analyzer already diagnoses CFG-level problems; build the
    // same graph silently and only add timing findings on top.
    cfg_ = build_cfg(fw_, nullptr);
    if (!cfg_.entry_ok) {
      res_.report.add(Severity::Error, "timing", fw_.name,
                      "entry point outside the image — timing analysis skipped");
      return std::move(res_);
    }
    movx_dests_ = resolve_movx_stores(cfg_);
    recover_uart_config();

    const Region top = routine_region(fw_.entry);
    classify_main_loops(top);

    // Routines first (bottom-up memoization), then the init path and the
    // main-loop rounds, then interrupt paths.
    for (const std::uint16_t e : cfg_.routine_entries) {
      const long c = routine_metric(e, kMetricCycles);
      add_function(FunctionWcet::Kind::Routine, "sub_" + hex16(e), e, c);
    }

    const long init = region_metric(top, fw_.entry, kMetricCycles);
    add_function(FunctionWcet::Kind::TopLevel, "entry", fw_.entry, init);

    for (const auto& [header, scc] : main_loops_) analyze_main_loop(header, scc, top);
    analyze_interrupts();

    std::sort(res_.functions.begin(), res_.functions.end(),
              [](const FunctionWcet& a, const FunctionWcet& b) { return a.entry < b.entry; });
    return std::move(res_);
  }

 private:
  static constexpr int kMetricCycles = 0;  ///< busy machine cycles
  static constexpr int kMetricSbuf = 1;    ///< SBUF (UART TX) stores

  std::string at(std::uint16_t addr) const { return fw_.name + ":" + hex16(addr); }

  void add_function(FunctionWcet::Kind kind, std::string name, std::uint16_t entry,
                    long cycles) {
    FunctionWcet f;
    f.kind = kind;
    f.name = std::move(name);
    f.entry = entry;
    f.bounded = cycles >= 0;
    f.cycles = cycles < 0 ? 0 : cycles;
    if (f.bounded)
      res_.report.add(Severity::Info, "timing", at(entry),
                      "WCET " + f.name + " = " + std::to_string(f.cycles) +
                          " busy cycle(s)");
    res_.functions.push_back(std::move(f));
  }

  // ---- per-instruction costs ----------------------------------------------
  long insn_cost(const Insn& in, int metric) const {
    if (metric == kMetricSbuf) return in.written(mcu::Opd::Direct) == 0x99 ? 1 : 0;  // SBUF
    // Every CDATA access is assumed to miss; a read-modify-write makes two.
    return in.cycles() + static_cast<long>(opt_.cache_miss_penalty) *
                             in.accesses(mcu::Opd::Direct, opt_.cache_data_sfr);
  }

  /// Node cost including the callee for CALL nodes; kUnbounded propagates.
  long node_cost(std::uint16_t addr, const Insn& in, int metric) {
    long c = insn_cost(in, metric);
    if (in.flow == Flow::Call) {
      if (cfg_.in_image(in.target)) {
        const long callee = routine_metric(in.target, metric);
        if (callee == kUnbounded) return kUnbounded;
        c += callee;
      } else if (metric == kMetricCycles && external_call_warned_.insert(addr).second) {
        res_.report.add(Severity::Warning, "timing", at(addr),
                        "call to code outside the image at " + hex16(in.target) +
                            " — WCET excludes the callee");
      }
    }
    return c;
  }

  // ---- regions -------------------------------------------------------------
  Region routine_region(std::uint16_t entry) const {
    Region rg;
    std::deque<std::uint16_t> work{entry};
    while (!work.empty()) {
      const std::uint16_t a = work.front();
      work.pop_front();
      if (!cfg_.insns.contains(a) || !rg.nodes.insert(a).second) continue;
      if (const auto s = cfg_.succ.find(a); s != cfg_.succ.end())
        for (const std::uint16_t n : s->second) work.push_back(n);
    }
    for (const std::uint16_t a : rg.nodes)
      if (const auto s = cfg_.succ.find(a); s != cfg_.succ.end())
        for (const std::uint16_t n : s->second)
          if (rg.nodes.contains(n)) rg.succ[a].push_back(n);
    return rg;
  }

  long routine_metric(std::uint16_t entry, int metric) {
    const std::uint32_t key = (static_cast<std::uint32_t>(entry) << 1) | metric;
    if (const auto it = routine_memo_.find(key); it != routine_memo_.end())
      return it->second;
    if (routines_on_stack_.contains(entry)) {
      if (metric == kMetricCycles && recursion_reported_.insert(entry).second)
        res_.report.add(Severity::Error, "timing", at(entry),
                        "recursive call chain — WCET unbounded");
      return kUnbounded;
    }
    routines_on_stack_.insert(entry);
    const Region rg = routine_region(entry);
    const long c = region_metric(rg, entry, metric);
    routines_on_stack_.erase(entry);
    routine_memo_[key] = c;
    return c;
  }

  /// Unique loop header of `scc` within a region entered at `entry`:
  /// the target of every edge entering the SCC from outside (plus the
  /// region entry itself when it lies inside).
  std::optional<std::uint16_t> unique_header(const std::set<std::uint16_t>& scc,
                                             const Region& rg, std::uint16_t entry) {
    std::set<std::uint16_t> headers;
    if (scc.contains(entry)) headers.insert(entry);
    for (const std::uint16_t a : rg.nodes) {
      if (scc.contains(a)) continue;
      if (const auto s = rg.succ.find(a); s != rg.succ.end())
        for (const std::uint16_t n : s->second)
          if (scc.contains(n)) headers.insert(n);
    }
    if (headers.size() != 1) return std::nullopt;
    return *headers.begin();
  }

  /// Longest-path metric over the region's SCC condensation; loops collapse
  /// to bound × body. kUnbounded when any loop lacks a bound.
  long region_metric(const Region& rg, std::uint16_t entry, int metric) {
    const bool report = metric == kMetricCycles;  // findings once, not per metric
    for (const std::uint16_t a : rg.nodes) {
      const Insn& in = cfg_.insns.at(a);
      if (in.flow == Flow::IndirectJump) {
        if (report && indirect_reported_.insert(a).second)
          res_.report.add(Severity::Error, "timing", at(a),
                          "computed jump (JMP @A+DPTR) — WCET cannot be bounded");
        return kUnbounded;
      }
    }

    const auto sccs = strongly_connected(rg.nodes, rg.succ);
    std::map<std::uint16_t, std::size_t> scc_of;
    for (std::size_t i = 0; i < sccs.size(); ++i)
      for (const std::uint16_t a : sccs[i]) scc_of[a] = i;

    std::vector<long> cost(sccs.size(), 0);
    bool unbounded = false;
    for (std::size_t i = 0; i < sccs.size(); ++i) {
      const auto& scc = sccs[i];
      const std::uint16_t first = *scc.begin();
      bool is_loop = scc.size() > 1;
      if (!is_loop) {
        if (const auto s = rg.succ.find(first); s != rg.succ.end())
          is_loop = std::count(s->second.begin(), s->second.end(), first) > 0;
      }
      if (!is_loop) {
        const long c = node_cost(first, cfg_.insns.at(first), metric);
        if (c == kUnbounded) unbounded = true;
        cost[i] = c;
        continue;
      }
      if (main_loops_.contains(*scc.begin()) ||
          (scc.size() > 1 && !main_loops_.empty() &&
           std::any_of(scc.begin(), scc.end(),
                       [this](std::uint16_t a) { return main_loops_.contains(a); }))) {
        cost[i] = 0;  // main loops are terminal; their rounds are bounded apart
        continue;
      }
      const long c = loop_cost(scc, rg, entry, metric, report);
      if (c == kUnbounded) unbounded = true;
      cost[i] = c;
    }
    if (unbounded) return kUnbounded;

    // Condensation DAG longest path from the entry's SCC.
    std::vector<std::set<std::size_t>> dag(sccs.size());
    for (const auto& [a, ss] : rg.succ)
      for (const std::uint16_t n : ss)
        if (scc_of.at(a) != scc_of.at(n)) dag[scc_of.at(a)].insert(scc_of.at(n));

    std::vector<long> dist(sccs.size(), kUnbounded);  // kUnbounded = unreached
    // Process in reverse-topological discovery order: Tarjan emits SCCs in
    // reverse topological order of the condensation, so iterate backwards.
    dist[scc_of.at(entry)] = cost[scc_of.at(entry)];
    long best = dist[scc_of.at(entry)];
    for (std::size_t idx = sccs.size(); idx-- > 0;) {
      if (dist[idx] == kUnbounded) continue;
      best = std::max(best, dist[idx]);
      for (const std::size_t t : dag[idx]) {
        const long d = std::min(dist[idx] + cost[t], kCycleCeiling);
        if (d > dist[t]) dist[t] = d;
      }
    }
    return best;
  }

  /// Cost of one loop SCC: bound × body, where body is the SCC with its back
  /// edges to the header removed. Wait loops cost zero and export their PCs.
  long loop_cost(const std::set<std::uint16_t>& scc, const Region& rg,
                 std::uint16_t region_entry, int metric, bool report) {
    const auto header = unique_header(scc, rg, region_entry);
    if (!header) {
      if (report && irreducible_reported_.insert(*scc.begin()).second)
        res_.report.add(Severity::Error, "timing", at(*scc.begin()),
                        "irreducible loop (multiple entry points) — WCET cannot "
                        "be bounded");
      return kUnbounded;
    }

    std::vector<std::uint16_t> back_srcs;
    for (const std::uint16_t a : scc)
      if (const auto s = rg.succ.find(a); s != rg.succ.end())
        if (std::count(s->second.begin(), s->second.end(), *header) > 0)
          back_srcs.push_back(a);

    long bound_total = 0;
    int waits = 0;
    bool missing = false;
    for (const std::uint16_t src : back_srcs) {
      long bound = kUnbounded;
      bool wait = false;
      if (const auto it = fw_.loop_annots.find(src); it != fw_.loop_annots.end()) {
        wait = it->second.wait;
        bound = it->second.bound;
      } else {
        bound = infer_counted_bound(scc, src, *header);
      }
      if (wait) {
        ++waits;
        continue;
      }
      if (bound <= 0) {
        missing = true;
        if (report && unbounded_reported_.insert(src).second)
          res_.report.add(
              Severity::Error, "timing", at(src),
              "unbounded loop: back edge " + cfg_.insns.at(src).text() + " -> " +
                  hex16(*header) +
                  " has neither a counted DJNZ/CJNE idiom nor a ;@loop-bound/"
                  ";@loop-wait annotation");
        continue;
      }
      bound_total = std::min(bound_total + bound, kCycleCeiling);
    }

    if (waits == static_cast<int>(back_srcs.size()) && waits > 0) {
      // Pure wait loop: spinning is I/O wait, not busy time. Everything the
      // loop encloses (including retries of bounded work, e.g. the boot
      // ROM's download-retry cycle) is excluded with it.
      res_.wait_pcs.insert(scc.begin(), scc.end());
      return 0;
    }
    if (waits > 0) {
      if (report && mixed_reported_.insert(*header).second)
        res_.report.add(Severity::Error, "timing", at(*header),
                        "loop mixes ;@loop-wait and counted back edges — "
                        "annotate all back edges consistently");
      return kUnbounded;
    }
    if (missing) return kUnbounded;

    Region body;
    body.nodes = scc;
    for (const std::uint16_t a : scc)
      if (const auto s = rg.succ.find(a); s != rg.succ.end())
        for (const std::uint16_t n : s->second)
          if (scc.contains(n) && n != *header) body.succ[a].push_back(n);
    const long body_cost = region_metric(body, *header, metric);
    if (body_cost == kUnbounded) return kUnbounded;
    const long total = bound_total * std::max(body_cost, 0L);
    return std::min(total, kCycleCeiling);
  }

  /// Counted-loop inference for DJNZ Rn / DJNZ dir / CJNE Rn,#imm back
  /// edges: find the initializing MOV before the header, require the
  /// counter untouched inside the loop (no calls — a callee could clobber
  /// it). Returns the iteration bound or kUnbounded.
  long infer_counted_bound(const std::set<std::uint16_t>& scc, std::uint16_t src,
                           std::uint16_t header) {
    const Insn& br = cfg_.insns.at(src);
    const std::uint8_t op = br.opcode();
    for (const std::uint16_t a : scc)
      if (cfg_.insns.at(a).flow == Flow::Call) return kUnbounded;

    // Nearest initializer strictly before the header and outside the loop.
    const auto find_init = [&](auto&& matches) -> std::optional<int> {
      std::optional<int> init;
      for (const auto& [a, in] : cfg_.insns) {
        if (a >= header) break;
        if (scc.contains(a)) continue;
        if (const auto v = matches(in)) init = *v;
      }
      return init;
    };

    if ((op & 0xF8) == 0xD8) {  // DJNZ Rn,rel
      const int n = op & 0x07;
      for (const std::uint16_t a : scc)
        if (a != src && writes_reg(cfg_.insns.at(a), n)) return kUnbounded;
      const auto init = find_init([n](const Insn& in) -> std::optional<int> {
        if (in.opcode() == (0x78 | n)) return in.bytes[1];  // MOV Rn,#imm
        return std::nullopt;
      });
      if (!init) return kUnbounded;
      return *init == 0 ? 256 : *init;
    }
    if (op == 0xD5) {  // DJNZ dir,rel
      const std::uint8_t dir = br.bytes[1];
      for (const std::uint16_t a : scc) {
        if (a == src) continue;
        if (cfg_.insns.at(a).written(mcu::Opd::Direct) == dir) return kUnbounded;
      }
      const auto init = find_init([dir](const Insn& in) -> std::optional<int> {
        if (in.opcode() == 0x75 && in.bytes[1] == dir) return in.bytes[2];
        return std::nullopt;
      });
      if (!init) return kUnbounded;
      return *init == 0 ? 256 : *init;
    }
    if ((op & 0xF8) == 0xB8) {  // CJNE Rn,#imm,rel
      const int n = op & 0x07;
      const int target = br.bytes[1];
      int incs = 0, decs = 0;
      for (const std::uint16_t a : scc) {
        const Insn& in = cfg_.insns.at(a);
        if (a == src) continue;
        if (in.opcode() == (0x08 | n)) { ++incs; continue; }  // INC Rn
        if (in.opcode() == (0x18 | n)) { ++decs; continue; }  // DEC Rn
        if (writes_reg(in, n)) return kUnbounded;
      }
      if (incs + decs != 1) return kUnbounded;
      const auto init = find_init([n](const Insn& in) -> std::optional<int> {
        if (in.opcode() == (0x78 | n)) return in.bytes[1];
        return std::nullopt;
      });
      if (!init) return kUnbounded;
      const int dist = incs ? (target - *init) & 0xFF : (*init - target) & 0xFF;
      return dist == 0 ? 256 : dist;
    }
    return kUnbounded;
  }

  // ---- main loops ----------------------------------------------------------
  void classify_main_loops(const Region& top) {
    for (const auto& scc : strongly_connected(top.nodes, top.succ)) {
      bool is_loop = scc.size() > 1;
      const std::uint16_t first = *scc.begin();
      if (!is_loop) {
        if (const auto s = top.succ.find(first); s != top.succ.end())
          is_loop = std::count(s->second.begin(), s->second.end(), first) > 0;
      }
      if (!is_loop) continue;
      bool escapes = false;
      for (const std::uint16_t a : scc)
        if (const auto s = top.succ.find(a); s != top.succ.end())
          for (const std::uint16_t n : s->second)
            if (!scc.contains(n)) escapes = true;
      if (escapes) continue;
      const auto header = unique_header(scc, top, fw_.entry);
      if (!header) {
        res_.report.add(Severity::Error, "timing", at(first),
                        "irreducible main loop (multiple entry points) — "
                        "round WCET cannot be bounded");
        continue;
      }
      main_loops_[*header] = scc;
      res_.loop_headers.insert(*header);
    }
  }

  void analyze_main_loop(std::uint16_t header, const std::set<std::uint16_t>& scc,
                         const Region& top) {
    // Round body: the SCC with its back edges to the header removed. A
    // ;@loop-wait back edge (e.g. an RI poll that *is* the loop header)
    // additionally exports its source PC as wait time.
    Region body;
    body.nodes = scc;
    for (const std::uint16_t a : scc) {
      const auto s = top.succ.find(a);
      if (s == top.succ.end()) continue;
      bool is_back = false;
      for (const std::uint16_t n : s->second) {
        if (n == header && scc.contains(a)) is_back = true;
        if (scc.contains(n) && n != header) body.succ[a].push_back(n);
      }
      if (is_back) {
        if (const auto it = fw_.loop_annots.find(a);
            it != fw_.loop_annots.end() && it->second.wait)
          res_.wait_pcs.insert(a);
      }
    }

    const long round = region_metric(body, header, kMetricCycles);
    add_function(FunctionWcet::Kind::MainLoop, "loop_" + hex16(header), header, round);
    if (round == kUnbounded) return;

    // UART bytes per round (worst path), for the bandwidth budget.
    const long bytes = region_metric(body, header, kMetricSbuf);
    if (bytes >= 0) {
      res_.uart_bytes_per_round = std::max(res_.uart_bytes_per_round, bytes);
      if (bytes > 0 && res_.uart_byte_cycles > 0) {
        const long serial = bytes * res_.uart_byte_cycles;
        res_.report.add(Severity::Info, "timing", at(header),
                        "UART budget: " + std::to_string(bytes) +
                            " byte(s) per round x " +
                            std::to_string(res_.uart_byte_cycles) +
                            " cycle(s)/frame = " + std::to_string(serial) +
                            " cycle(s) of serialization per round");
      }
    }

    // Watchdog kick interval: if every circuit of the loop passes a kick
    // store, consecutive kicks are at most two rounds apart.
    if (!opt_.kick_addrs.empty()) {
      std::set<std::uint16_t> kick_nodes;
      for (const std::uint16_t a : scc)
        if (const auto it = movx_dests_.find(a);
            it != movx_dests_.end() && opt_.kick_addrs.contains(it->second))
          kick_nodes.insert(a);
      if (!kick_nodes.empty()) {
        // Can a circuit avoid every kick? BFS from the header through the
        // body avoiding kick nodes; reaching a back-edge source means yes.
        std::set<std::uint16_t> back_srcs;
        for (const std::uint16_t a : scc)
          if (const auto s = top.succ.find(a); s != top.succ.end())
            if (std::count(s->second.begin(), s->second.end(), header) > 0)
              back_srcs.insert(a);
        std::set<std::uint16_t> seen;
        std::deque<std::uint16_t> work;
        if (!kick_nodes.contains(header)) work.push_back(header);
        bool avoidable = false;
        while (!work.empty()) {
          const std::uint16_t a = work.front();
          work.pop_front();
          if (!seen.insert(a).second) continue;
          if (back_srcs.contains(a)) avoidable = true;
          if (const auto s = body.succ.find(a); s != body.succ.end())
            for (const std::uint16_t n : s->second)
              if (!kick_nodes.contains(n)) work.push_back(n);
        }
        if (avoidable) {
          res_.report.add(Severity::Warning, "timing", at(header),
                          "main loop kicks the watchdog only conditionally — "
                          "no static kick-interval bound");
        } else {
          const long interval = std::min(2 * round, kCycleCeiling);
          res_.kick_interval_cycles = std::max(res_.kick_interval_cycles, interval);
          res_.report.add(Severity::Info, "timing", at(header),
                          "worst-case watchdog kick interval <= " +
                              std::to_string(interval) + " cycle(s) (2 rounds)");
          if (opt_.watchdog_period_cycles > 0 &&
              interval > opt_.watchdog_period_cycles)
            res_.report.add(Severity::Error, "timing", at(header),
                            "watchdog can bite: kick interval " +
                                std::to_string(interval) + " > period " +
                                std::to_string(opt_.watchdog_period_cycles));
        }
      }
    }
  }

  // ---- interrupts ----------------------------------------------------------
  void analyze_interrupts() {
    // Vectors the image can enable: MOV/ORL IE,#imm and SETB on IE bits.
    std::uint8_t enabled = 0;
    for (const auto& [a, in] : cfg_.insns) {
      if ((in.opcode() == 0x75 || in.opcode() == 0x43) && in.bytes[1] == 0xA8)
        enabled |= in.bytes[2];
      if (in.opcode() == 0xD2 && in.bytes[1] >= 0xA8 && in.bytes[1] <= 0xAF)
        enabled |= static_cast<std::uint8_t>(1u << (in.bytes[1] - 0xA8));
    }
    for (int bit = 0; bit < 5; ++bit) {
      if (!(enabled & (1u << bit))) continue;
      const auto vector = static_cast<std::uint16_t>(0x0003 + 8 * bit);
      if (!cfg_.in_image(vector)) {
        res_.report.add(Severity::Warning, "timing", at(vector),
                        "interrupt enabled but its vector lies outside the image");
        continue;
      }
      // Analyze the handler as its own entry point on a fresh CFG (vectors
      // are not reachable from the reset entry by normal flow).
      FirmwareImage isr_fw = fw_;
      isr_fw.entry = vector;
      TimingAnalysis sub(isr_fw, opt_);
      sub.cfg_ = build_cfg(isr_fw, nullptr);
      sub.movx_dests_ = resolve_movx_stores(sub.cfg_);
      const Region rg = sub.routine_region(vector);
      const long body = sub.region_metric(rg, vector, kMetricCycles);
      res_.report.merge(sub.res_.report);
      res_.wait_pcs.insert(sub.res_.wait_pcs.begin(), sub.res_.wait_pcs.end());
      add_function(FunctionWcet::Kind::Isr, "isr_" + hex16(vector), vector,
                   body == kUnbounded ? kUnbounded : body + 2 /* dispatch */);
    }
  }

  // ---- UART configuration recovery ----------------------------------------
  void recover_uart_config() {
    std::optional<int> scon, th1, tmod;
    for (const auto& [a, in] : cfg_.insns) {
      if (in.opcode() != 0x75) continue;  // MOV dir,#imm
      if (in.bytes[1] == 0x98 && !scon) scon = in.bytes[2];
      if (in.bytes[1] == 0x8D && !th1) th1 = in.bytes[2];
      if (in.bytes[1] == 0x89 && !tmod) tmod = in.bytes[2];
    }
    if (!scon) return;
    const int mode = (*scon >> 6) & 0x03;
    res_.uart_frame_bits = mode == 1 ? 10 : (mode >= 2 ? 11 : 8);
    // Timer-1 mode 2 derives the baud from TH1; otherwise the core uses its
    // fixed fallback bit time (core8051.cpp).
    const bool t1_mode2 = tmod && ((*tmod & 0x30) == 0x20);
    const long bit_cycles = t1_mode2 && th1 ? 32L * (256 - *th1) : 102;
    res_.uart_byte_cycles = res_.uart_frame_bits * bit_cycles;
  }

  const FirmwareImage& fw_;
  const TimingOptions& opt_;
  WcetResult res_;
  Cfg cfg_;
  std::map<std::uint16_t, std::uint16_t> movx_dests_;
  std::map<std::uint16_t, std::set<std::uint16_t>> main_loops_;  ///< header -> SCC

  std::map<std::uint32_t, long> routine_memo_;  ///< (entry<<1|metric) -> cost
  std::set<std::uint16_t> routines_on_stack_;
  std::set<std::uint16_t> recursion_reported_;
  std::set<std::uint16_t> unbounded_reported_;
  std::set<std::uint16_t> irreducible_reported_;
  std::set<std::uint16_t> mixed_reported_;
  std::set<std::uint16_t> indirect_reported_;
  std::set<std::uint16_t> external_call_warned_;
};

}  // namespace

const FunctionWcet* WcetResult::find(std::uint16_t entry) const {
  for (const auto& f : functions)
    if (f.entry == entry) return &f;
  return nullptr;
}

WcetResult analyze_wcet(const FirmwareImage& fw, const TimingOptions& opt) {
  return TimingAnalysis(fw, opt).run();
}

Report check_schedule(const ScheduleSpec& spec) {
  Report rep;
  const std::string& loc = spec.name;
  if (spec.cycles_per_tick <= 0) {
    rep.add(Severity::Error, "timing", loc, "schedule has no per-tick cycle budget");
    return rep;
  }
  if (spec.tasks.empty()) {
    rep.add(Severity::Info, "timing", loc, "no tasks registered — trivially schedulable");
    return rep;
  }

  double util = 0.0;
  for (const TaskSpec& t : spec.tasks) {
    if (t.divider < 1 || t.phase < 0 || t.phase >= t.divider) {
      rep.add(Severity::Error, "timing", loc + "/" + t.name,
              "invalid divider/phase (" + std::to_string(t.divider) + "," +
                  std::to_string(t.phase) + ")");
      continue;
    }
    const long period_budget = t.divider * spec.cycles_per_tick;
    util += static_cast<double>(t.cycles) / static_cast<double>(period_budget);
    if (t.cycles > period_budget)
      rep.add(Severity::Error, "timing", loc + "/" + t.name,
              "task demands " + std::to_string(t.cycles) + " cycle(s) per firing but "
              "its period grants only " + std::to_string(period_budget) +
              " — slot overrun");
  }

  char buf[160];
  std::snprintf(buf, sizeof(buf), "utilization %.1f%% of %ld cycle(s)/tick (%zu task(s))",
                100.0 * util, spec.cycles_per_tick, spec.tasks.size());
  rep.add(Severity::Info, "timing", loc, buf);
  if (util > 1.0)
    rep.add(Severity::Error, "timing", loc,
            "task set over-subscribed: total utilization exceeds 100%");
  else if (util > 0.85)
    rep.add(Severity::Warning, "timing", loc,
            "task set within 15% of saturation — no headroom for jitter");

  // Worst-case phase alignment across the hyperperiod.
  constexpr long kHyperCap = 1L << 16;
  long hyper = 1;
  for (const TaskSpec& t : spec.tasks)
    if (t.divider >= 1) hyper = lcm_capped(hyper, t.divider, kHyperCap);
  long peak = 0, peak_tick = 0;
  if (hyper > kHyperCap) {
    for (const TaskSpec& t : spec.tasks) peak += t.cycles;  // assume all align
    rep.add(Severity::Info, "timing", loc,
            "hyperperiod exceeds " + std::to_string(kHyperCap) +
                " ticks — assuming full phase alignment");
  } else {
    for (long tick = 0; tick < hyper; ++tick) {
      long demand = 0;
      for (const TaskSpec& t : spec.tasks)
        if (t.divider >= 1 && t.phase < t.divider && tick % t.divider == t.phase)
          demand += t.cycles;
      if (demand > peak) {
        peak = demand;
        peak_tick = tick;
      }
    }
  }
  std::snprintf(buf, sizeof(buf),
                "worst-case phase alignment: %ld cycle(s) demanded in one tick "
                "(tick %ld of %ld) against a %ld-cycle budget",
                peak, peak_tick, std::min(hyper, kHyperCap), spec.cycles_per_tick);
  rep.add(Severity::Info, "timing", loc, buf);
  if (peak > spec.cycles_per_tick && util <= 1.0)
    rep.add(Severity::Warning, "timing", loc,
            "transient tick overrun at worst alignment — backlog of " +
                std::to_string(peak - spec.cycles_per_tick) +
                " cycle(s) must drain in following ticks");
  return rep;
}

}  // namespace ascp::analysis
