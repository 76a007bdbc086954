// spi.hpp — SPI master peripheral (bridge bus) and SPI EEPROM model.
//
// Paper §4.2: software can be stored "into an external SPI EEPROM, and so
// reboot directly from EEPROM instead of downloading each time after reset".
// The master exposes the classic DATA/CTRL/STATUS word registers; the EEPROM
// implements the 25xx command set subset the boot flow needs (READ, WRITE,
// WREN, RDSR) with page-write semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "mcu/bus.hpp"
#include "mcu/fill_memory.hpp"

namespace ascp::mcu {

/// Generic SPI slave: exchanges one byte per transfer.
class SpiSlave {
 public:
  virtual ~SpiSlave() = default;
  virtual void select(bool asserted) = 0;
  virtual std::uint8_t transfer(std::uint8_t mosi) = 0;
};

/// SPI master on the bridge bus. Register map (word registers):
///   0 DATA   — write: start a transfer; read: last received byte
///   1 CTRL   — bit0 chip-select (1 = asserted)
///   2 STATUS — bit0 transfer-done (cleared by DATA read)
class SpiMaster : public BridgeDevice {
 public:
  void connect(SpiSlave* slave) { slave_ = slave; }

  std::uint16_t read_reg(std::uint16_t reg) override;
  void write_reg(std::uint16_t reg, std::uint16_t value) override;

  static constexpr std::uint16_t kRegData = 0, kRegCtrl = 1, kRegStatus = 2;

  void serialize_state(StateArchive& ar) {
    ar.value(rx_);
    ar.value(done_);
    ar.value(cs_);
  }

 private:
  SpiSlave* slave_ = nullptr;
  std::uint8_t rx_ = 0xFF;
  bool done_ = false;
  bool cs_ = false;
};

/// 25xx-style SPI EEPROM (paper: boot storage). Commands: 0x06 WREN,
/// 0x04 WRDI, 0x05 RDSR, 0x02 WRITE (16-bit address), 0x03 READ.
class SpiEeprom : public SpiSlave {
 public:
  explicit SpiEeprom(std::size_t size_bytes = 8192);

  void select(bool asserted) override;
  std::uint8_t transfer(std::uint8_t mosi) override;

  /// Host-side (factory programming) access.
  void program(std::uint16_t addr, const std::vector<std::uint8_t>& data);
  std::uint8_t peek(std::uint16_t addr) const { return mem_[addr % mem_.size()]; }
  /// Fault injection: flip bits of one cell (retention/read corruption).
  void corrupt(std::uint16_t addr, std::uint8_t xor_mask) {
    const std::size_t a = addr % mem_.size();
    mem_.set(a, static_cast<std::uint8_t>(mem_[a] ^ xor_mask));
  }
  std::size_t size() const { return mem_.size(); }

  void serialize_state(StateArchive& ar) {
    mem_.serialize_counted(ar, "EEPROM");
    ar.enum_value(state_);
    ar.value(command_);
    ar.value(addr_);
    ar.value(write_enabled_);
  }

 private:
  enum class State { Idle, Addr1, Addr2, Read, Write };

  FillMemory<std::uint8_t> mem_;  ///< erased (0xFF) until written
  State state_ = State::Idle;
  std::uint8_t command_ = 0;
  std::uint16_t addr_ = 0;
  bool write_enabled_ = false;
};

}  // namespace ascp::mcu
