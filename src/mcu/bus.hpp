// bus.hpp — XDATA bus with region-mapped devices and the 16-bit bridge.
//
// Paper Fig. 4: "Cache controller and UART are located on the 8051 SFR bus
// (8-bit), while the other peripherals (SPI, timer, watchdog, and SRAM
// controller) are accessed via a custom bridge by means of a 16-bit bus."
// BridgedBus implements the MOVX-visible side: devices claim address ranges;
// 16-bit peripheral registers are accessed as little-endian byte pairs, and
// the bridge latches the low byte so a 16-bit register updates atomically on
// the high-byte write — the way a real 8-to-16-bit bridge behaves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcu/core8051.hpp"
#include "mcu/fill_memory.hpp"

namespace ascp::mcu {

/// A peripheral on the bridged 16-bit bus.
class BridgeDevice {
 public:
  virtual ~BridgeDevice() = default;
  /// Word-register access: `reg` is the 16-bit register index inside the
  /// device's window.
  virtual std::uint16_t read_reg(std::uint16_t reg) = 0;
  virtual void write_reg(std::uint16_t reg, std::uint16_t value) = 0;
};

/// XDATA bus: plain RAM backing plus device windows.
class BridgedBus : public XdataBus {
 public:
  /// `ram_bytes` of ordinary XDATA RAM mapped from address 0.
  explicit BridgedBus(std::size_t ram_bytes = 4096);

  /// Map `dev` at [base, base + 2*num_regs): each word register occupies two
  /// byte addresses (little endian). Windows must not overlap RAM or each
  /// other (checked).
  void map(BridgeDevice* dev, std::uint16_t base, std::uint16_t num_regs,
           std::string name = {});

  std::uint8_t read(std::uint16_t addr) override;
  void write(std::uint16_t addr, std::uint8_t value) override;

  /// Word-level convenience for host-side tests.
  std::uint16_t read_word(std::uint16_t addr);
  void write_word(std::uint16_t addr, std::uint16_t value);

  /// Map program RAM at [base, base+size): byte writes land in XDATA *and*
  /// mirror into the core's code memory at the same address — the paper's
  /// "big RAM … used as Program Storage" configuration that makes firmware
  /// download-and-execute possible on a Harvard core.
  void map_program_ram(std::uint16_t base, std::uint32_t size, Core8051* core);

  std::size_t ram_size() const { return ram_.size(); }

  /// Introspection for the static register-map checker: every mapped device
  /// window (name, byte base, byte size) plus the program-RAM region.
  struct WindowInfo {
    std::string name;
    std::uint16_t base;
    std::uint16_t bytes;
  };
  std::vector<WindowInfo> mapped_windows() const;
  std::uint16_t program_base() const { return prog_base_; }
  std::uint32_t program_size() const { return prog_size_; }

  void serialize_state(StateArchive& ar) {
    ram_.serialize_counted(ar, "XDATA RAM");
    ar.value(latched_low_);
    ar.value(read_latch_high_);
    prog_ram_.serialize_counted(ar, "program RAM");
  }

 private:
  struct Window {
    BridgeDevice* dev;
    std::uint16_t base;
    std::uint16_t size;  // bytes
    std::string name;
  };

  const Window* find(std::uint16_t addr) const;

  FillMemory<std::uint8_t> ram_;
  std::vector<Window> windows_;
  std::uint8_t latched_low_ = 0;      // bridge write latch
  std::uint8_t read_latch_high_ = 0;  // bridge read latch (word coherence)

  // Program-RAM window.
  std::uint16_t prog_base_ = 0;
  std::uint32_t prog_size_ = 0;
  FillMemory<std::uint8_t> prog_ram_;  ///< prog_size_ bytes, zeros until written
  Core8051* prog_core_ = nullptr;
};

}  // namespace ascp::mcu
