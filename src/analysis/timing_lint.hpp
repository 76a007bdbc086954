// timing_lint.hpp — static WCET and schedulability analysis.
//
// The paper's platform runs hard real time: a ~1.92 MHz analog base tick, a
// 240 kHz DSP rate, decimated outputs, and an MCS-51 supervisor earning a
// fixed machine-cycle slice per output sample (20 MHz / 12 clocks per
// cycle). The dynamic profilers (obs::McuProfiler, obs::TaskProfiler)
// *observe* those budgets; this analyzer *proves* them before anything runs:
//
//   * machine cycles and operand accesses from the MCS-51 opcode table
//     (mcu/opcode_table.hpp), checked against core8051::step() for all 256
//     opcodes by the tier-1 tests
//   * loop bounds: counted DJNZ/CJNE idioms are inferred from the
//     initializing MOV; every other back edge needs a `;@loop-bound N` or
//     `;@loop-wait` assembler annotation, and a back edge with neither is a
//     hard error — no silent unbounded loops
//   * wait loops (`;@loop-wait`, e.g. UART RI/TI polls) contribute zero
//     busy cycles; their PCs are exported in `wait_pcs` so the dynamic
//     validation harness (bench/wcet_validation) excludes the same spinning
//     when it measures observed costs
//   * interprocedural CALL/RET composition with memoized per-routine WCETs
//     (recursion is diagnosed, mirroring the stack-bound walk)
//   * the top-level's exit-free SCC is classified as the firmware's main
//     loop: its per-round WCET, worst-case watchdog-kick spacing and UART
//     bytes-per-round are bounded instead of demanding a loop bound
//   * interrupt-path WCET for every vector the image enables (2-cycle
//     dispatch + handler-to-RETI longest path)
//   * cache-miss penalties: every direct read and every direct write of the
//     cache controller's CDATA SFR is charged `miss_penalty_cycles`, so a
//     read-modify-write such as INC CDATA pays twice, as the ISS accesses it
//     twice (the static model assumes every access misses — a sound
//     over-approximation of cache_ctrl)
//
// The schedulability half takes explicit task specs (rate dividers, phase
// offsets, worst-case cycle demand per firing) against a per-tick cycle
// budget: per-task and total utilization, plus the worst-case phase
// alignment over the hyperperiod.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/findings.hpp"
#include "analysis/firmware_lint.hpp"

namespace ascp::analysis {

struct TimingOptions {
  /// Cycles charged per access to the cache controller's data-window SFR
  /// (CacheConfig::miss_penalty_cycles). 0 disables the model.
  int cache_miss_penalty = 0;
  /// SFR address of the cache data window (CacheConfig sfr_base + 3).
  std::uint8_t cache_data_sfr = 0xA4;
  /// XDATA byte addresses of the watchdog KICK register. Statically
  /// resolved MOVX stores to these count as kicks for the main-loop
  /// kick-interval bound.
  std::set<std::uint16_t> kick_addrs;
  /// Watchdog period in machine cycles; > 0 turns the kick-interval bound
  /// into a hard check (Error when the main loop can exceed it).
  long watchdog_period_cycles = 0;
};

/// WCET of one analyzed code object.
struct FunctionWcet {
  enum class Kind {
    TopLevel,  ///< entry point up to the main loop (init path)
    Routine,   ///< CALL target, entry to RET (RET included, CALL excluded)
    MainLoop,  ///< exit-free top-level SCC: cycles = one worst-case round
    Isr,       ///< vector dispatch (2 cycles) + handler to RETI
  };
  Kind kind = Kind::Routine;
  std::string name;        ///< "entry", "sub_0x0030", "loop_0x0007", "isr_0x000B"
  std::uint16_t entry = 0;
  bool bounded = false;
  long cycles = 0;         ///< busy-cycle WCET, valid when bounded
};

struct WcetResult {
  Report report;
  std::vector<FunctionWcet> functions;
  /// PCs inside `;@loop-wait` loops: spinning there is I/O wait, not busy
  /// time. The validation harness subtracts cycles retired at these PCs
  /// before comparing observed costs against the static bounds.
  std::set<std::uint16_t> wait_pcs;
  /// Main-loop header PCs (round boundaries for dynamic round measurement).
  std::set<std::uint16_t> loop_headers;

  // UART link budget, statically recovered from the image's init code:
  int uart_frame_bits = 0;        ///< 10 (mode 1) / 11 (modes 2,3), 0 unknown
  long uart_byte_cycles = 0;      ///< machine cycles per frame at the set baud
  long uart_bytes_per_round = -1; ///< max SBUF stores in one main-loop round
  long kick_interval_cycles = -1; ///< worst watchdog-kick spacing, -1 unknown

  const FunctionWcet* find(std::uint16_t entry) const;
};

/// Analyze `fw` bottom-up: CFG (analysis/cfg.hpp), SCC condensation with
/// loop collapsing, longest-path composition. Unbounded constructs produce
/// Error findings and the affected functions report bounded = false.
WcetResult analyze_wcet(const FirmwareImage& fw, const TimingOptions& opt = {});

// ---- schedulability --------------------------------------------------------

/// One periodic obligation: fires every `divider` base ticks at offset
/// `phase`, demanding up to `cycles` machine cycles per firing.
struct TaskSpec {
  std::string name;
  long divider = 1;
  long phase = 0;
  long cycles = 0;
};

struct ScheduleSpec {
  std::string name;          ///< used in finding locations
  double base_rate_hz = 0;   ///< informational (findings quote real time)
  long cycles_per_tick = 0;  ///< cycle budget granted per base tick
  std::vector<TaskSpec> tasks;
};

/// Prove the task set fits its budget: per-task demand vs period budget
/// (Error on overrun), total utilization (Error > 100%, Warning > 85%),
/// worst-case phase alignment over the hyperperiod (Warning when a single
/// tick transiently over-commits).
Report check_schedule(const ScheduleSpec& spec);

}  // namespace ascp::analysis
