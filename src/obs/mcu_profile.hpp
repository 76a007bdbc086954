// mcu_profile.hpp — MCS-51 execution profiler.
//
// Answers "where does the firmware spend its cycles": a PC-resolution
// execution histogram over the 64 KiB CODE space, per-opcode instruction and
// machine-cycle accounting, and ISR entry/exit cost (cycles spent between
// vector entry and the matching RETI, nesting-aware).
//
// Attached to mcu::Core8051 via set_profiler(); the core reports each retired
// instruction and each interrupt dispatch. The profiler never feeds anything
// back into the core, so attaching it cannot change firmware behaviour.
//
// The PC histogram (65536 counters, 512 KiB) is allocated on the first
// record_exec(): a profiler whose core never retires an instruction (an
// observed channel without firmware) holds none, and every reader treats the
// empty histogram as all zeros.
#pragma once

#include <cstdint>
#include <vector>

namespace ascp::obs {

class McuProfiler {
 public:
  McuProfiler();
  virtual ~McuProfiler() = default;

  /// One retired instruction: opcode byte at `pc` costing `cycles` machine
  /// cycles; `total_cycles` is the core's cycle counter *after* retirement.
  /// Virtual so measurement harnesses (e.g. the WCET validation bench) can
  /// observe the retirement stream while keeping the histogram behaviour.
  virtual void record_exec(std::uint16_t pc, std::uint8_t opcode, int cycles,
                           std::uint64_t total_cycles);

  /// Interrupt dispatch to `vector` at core cycle `total_cycles`.
  virtual void record_isr_enter(std::uint16_t vector, std::uint64_t total_cycles);

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t cycles() const { return cycles_; }

  struct PcCount {
    std::uint16_t pc = 0;
    std::uint64_t count = 0;
  };
  /// Hottest program-counter values, descending by execution count (ties
  /// broken by ascending PC for determinism).
  std::vector<PcCount> top_pcs(std::size_t n) const;
  std::uint64_t pc_count(std::uint16_t pc) const {
    return pc_hist_.empty() ? 0 : pc_hist_[pc];
  }

  struct OpcodeCount {
    std::uint8_t opcode = 0;
    std::uint64_t count = 0;
    std::uint64_t cycles = 0;
  };
  /// Hottest opcodes by cycle cost, descending (ties by ascending opcode).
  std::vector<OpcodeCount> top_opcodes(std::size_t n) const;
  std::uint64_t opcode_count(std::uint8_t op) const { return op_count_[op]; }

  struct IsrStats {
    std::uint16_t vector = 0;
    std::uint64_t entries = 0;
    std::uint64_t cycles = 0;  ///< total cycles from entry to matching RETI
    std::uint64_t max_cycles = 0;
    double mean_cycles() const {
      return entries ? static_cast<double>(cycles) / static_cast<double>(entries) : 0.0;
    }
  };
  /// Per-vector ISR cost, ascending by vector address. ISRs still in flight
  /// (entered, no RETI yet) count their entry but no cycles.
  std::vector<IsrStats> isr_stats() const;

  void reset();

 private:
  std::vector<std::uint64_t> pc_hist_;  ///< 65536 entries from the first record_exec
  std::vector<std::uint64_t> op_count_;  ///< 256 entries
  std::vector<std::uint64_t> op_cycles_;  ///< 256 entries
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;

  struct IsrFrame {
    std::uint16_t vector;
    std::uint64_t entry_cycle;
  };
  std::vector<IsrFrame> isr_stack_;
  std::vector<IsrStats> isr_;  ///< one slot per seen vector
};

}  // namespace ascp::obs
