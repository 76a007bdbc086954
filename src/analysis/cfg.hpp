// cfg.hpp — shared control-flow-graph construction over firmware images.
//
// Both static passes that walk assembled 8051 code — the firmware analyzer
// (firmware_lint: stack bounds, store legality, watchdog liveness) and the
// timing analyzer (timing_lint: WCET, schedulability) — need the same
// reachable-instruction discovery: decode from the entry point, follow
// resolved branch/call targets, record call sites and external exits. This
// module is that single CFG builder, plus the graph utilities layered on it
// (Tarjan SCCs over arbitrary node subsets, block-local DPTR constant
// propagation for MOVX destinations).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "analysis/findings.hpp"
#include "analysis/firmware_lint.hpp"
#include "mcu/opcode_table.hpp"

namespace ascp::analysis {

using mcu::Flow;
using mcu::Insn;

/// Reachable-instruction CFG of one firmware image. Successor edges exist
/// only between in-image instructions; a CALL contributes its fall-through
/// edge here and its callee in `call_sites` (the call graph is composed
/// interprocedurally by the analyses, mirroring the hardware's stack).
struct Cfg {
  std::map<std::uint16_t, Insn> insns;                       ///< reachable, by address
  std::map<std::uint16_t, std::vector<std::uint16_t>> succ;  ///< intra-routine edges
  std::map<std::uint16_t, std::uint16_t> call_sites;         ///< call addr -> callee
  std::set<std::uint16_t> routine_entries;                   ///< in-image call targets
  std::set<std::uint16_t> external_exits;                    ///< out-of-image targets
  std::set<std::uint16_t> indirect_jumps;                    ///< JMP @A+DPTR sites
  std::uint16_t base = 0;
  std::uint16_t entry = 0;
  std::size_t size = 0;
  bool entry_ok = false;  ///< entry point lies inside the image

  bool in_image(std::uint16_t addr) const {
    return addr >= base && static_cast<std::size_t>(addr - base) < size;
  }
};

/// Build the CFG for `fw`. When `rep` is non-null, discovery diagnostics
/// (truncated instructions, fall-off-the-end, computed jumps, external
/// transfers) are reported into it with firmware_lint's wording; passing
/// null builds the same graph silently (for a second pass over an image the
/// firmware analyzer already diagnosed).
Cfg build_cfg(const FirmwareImage& fw, Report* rep);

/// Tarjan's algorithm (iterative) over the subgraph induced by `nodes`:
/// edges of `succ` whose endpoints both lie in `nodes`. Returns every SCC,
/// including trivial single-node ones (callers decide whether a singleton
/// with a self-edge is a loop).
std::vector<std::set<std::uint16_t>> strongly_connected(
    const std::set<std::uint16_t>& nodes,
    const std::map<std::uint16_t, std::vector<std::uint16_t>>& succ);

/// Statically resolved MOVX @DPTR stores: block-local DPTR constant
/// propagation (MOV DPTR,#imm16 / MOV DPL|DPH,#imm / INC DPTR survive
/// straight-line fall-through; state resets at branch targets and after
/// calls). Returns store address -> resolved XDATA destination.
std::map<std::uint16_t, std::uint16_t> resolve_movx_stores(const Cfg& cfg);

}  // namespace ascp::analysis
