#include "obs/mcu_profile.hpp"

#include <algorithm>

namespace ascp::obs {

namespace {
constexpr std::uint8_t kOpReti = 0x32;
constexpr std::size_t kCodeSpace = 65536;
}

McuProfiler::McuProfiler() : op_count_(256, 0), op_cycles_(256, 0) {}

void McuProfiler::record_exec(std::uint16_t pc, std::uint8_t opcode, int cycles,
                              std::uint64_t total_cycles) {
  if (pc_hist_.empty()) [[unlikely]] pc_hist_.assign(kCodeSpace, 0);
  ++pc_hist_[pc];
  ++op_count_[opcode];
  op_cycles_[opcode] += static_cast<std::uint64_t>(cycles);
  ++instructions_;
  cycles_ += static_cast<std::uint64_t>(cycles);

  if (opcode == kOpReti && !isr_stack_.empty()) {
    const IsrFrame frame = isr_stack_.back();
    isr_stack_.pop_back();
    for (auto& s : isr_) {
      if (s.vector == frame.vector) {
        const std::uint64_t cost = total_cycles - frame.entry_cycle;
        s.cycles += cost;
        s.max_cycles = std::max(s.max_cycles, cost);
        return;
      }
    }
  }
}

void McuProfiler::record_isr_enter(std::uint16_t vector, std::uint64_t total_cycles) {
  isr_stack_.push_back({vector, total_cycles});
  for (auto& s : isr_) {
    if (s.vector == vector) {
      ++s.entries;
      return;
    }
  }
  IsrStats s;
  s.vector = vector;
  s.entries = 1;
  isr_.push_back(s);
}

std::vector<McuProfiler::PcCount> McuProfiler::top_pcs(std::size_t n) const {
  std::vector<PcCount> all;
  for (std::size_t pc = 0; pc < pc_hist_.size(); ++pc)
    if (pc_hist_[pc]) all.push_back({static_cast<std::uint16_t>(pc), pc_hist_[pc]});
  std::sort(all.begin(), all.end(), [](const PcCount& a, const PcCount& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.pc < b.pc;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<McuProfiler::OpcodeCount> McuProfiler::top_opcodes(std::size_t n) const {
  std::vector<OpcodeCount> all;
  for (std::size_t op = 0; op < op_count_.size(); ++op)
    if (op_count_[op])
      all.push_back({static_cast<std::uint8_t>(op), op_count_[op], op_cycles_[op]});
  std::sort(all.begin(), all.end(), [](const OpcodeCount& a, const OpcodeCount& b) {
    if (a.cycles != b.cycles) return a.cycles > b.cycles;
    return a.opcode < b.opcode;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

std::vector<McuProfiler::IsrStats> McuProfiler::isr_stats() const {
  std::vector<IsrStats> out = isr_;
  std::sort(out.begin(), out.end(),
            [](const IsrStats& a, const IsrStats& b) { return a.vector < b.vector; });
  return out;
}

void McuProfiler::reset() {
  std::fill(pc_hist_.begin(), pc_hist_.end(), 0);
  std::fill(op_count_.begin(), op_count_.end(), 0);
  std::fill(op_cycles_.begin(), op_cycles_.end(), 0);
  instructions_ = 0;
  cycles_ = 0;
  isr_stack_.clear();
  isr_.clear();
}

}  // namespace ascp::obs
