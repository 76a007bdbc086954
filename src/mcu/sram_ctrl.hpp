// sram_ctrl.hpp — real-time chain-capture SRAM controller (paper §4.2).
//
// "SRAM controller is used during the prototyping phase, to store at
// real-time (into a 512 Kb SRAM) digital data coming from any node of the
// DSP chain, with chance of later read-back for analysis purposes."
//
// The DSP side pushes 16-bit samples from a selectable chain node; the CPU
// (or host) arms the capture, selects the node and decimation, and reads the
// buffer back through a read-pointer window. 512 Kbit = 64 KB = 32 K
// samples. Register map (word registers):
//   0 CTRL    — bit0 arm (self-clears when full), bit1 reset write pointer
//   1 NODE    — chain-node selector the capture listens to
//   2 DECIM   — keep every Nth pushed sample (0 → 1)
//   3 COUNT   — samples captured so far
//   4 RDPTR   — read pointer (auto-increments on DATA read)
//   5 DATA    — sample at RDPTR
//   6 STATUS  — bit0 full, bit1 armed
#pragma once

#include <cstdint>
#include <vector>

#include "mcu/bus.hpp"
#include "mcu/fill_memory.hpp"

namespace ascp::mcu {

class SramController : public BridgeDevice {
 public:
  static constexpr std::size_t kSamples = 32768;  // 512 Kbit of 16-bit words

  std::uint16_t read_reg(std::uint16_t reg) override;
  void write_reg(std::uint16_t reg, std::uint16_t value) override;

  /// DSP-side push: `node` identifies the producing chain node; the sample
  /// is stored only when armed, the node matches NODE and the decimator
  /// fires. Returns true when stored.
  bool push(std::uint16_t node, std::uint16_t sample);

  bool armed() const { return armed_; }
  bool full() const { return count_ >= kSamples; }
  std::uint32_t count() const { return count_; }
  std::uint16_t selected_node() const { return node_; }

  /// Host-side bulk read-back (the "analysis purposes" path).
  std::vector<std::uint16_t> snapshot() const;

  void serialize_state(StateArchive& ar) {
    mem_.serialize(ar, "SRAM trace");
    ar.value(count_);
    ar.value(rdptr_);
    ar.value(node_);
    ar.value(decim_);
    ar.value(decim_phase_);
    ar.value(armed_);
    // write_reg never stores these; push() divides by DECIM, and snapshot()
    // and DATA reads index the buffer by COUNT and RDPTR.
    if (!ar.saving() && (decim_ == 0 || count_ > kSamples || rdptr_ >= kSamples))
      throw StateError("checkpoint SRAM trace state out of range");
  }

 private:
  FillMemory<std::uint16_t> mem_{kSamples, 0};
  std::uint32_t count_ = 0;
  std::uint32_t rdptr_ = 0;
  std::uint16_t node_ = 0;
  std::uint16_t decim_ = 1;
  std::uint32_t decim_phase_ = 0;
  bool armed_ = false;
};

}  // namespace ascp::mcu
