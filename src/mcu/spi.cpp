#include "mcu/spi.hpp"

namespace ascp::mcu {

std::uint16_t SpiMaster::read_reg(std::uint16_t reg) {
  switch (reg) {
    case kRegData:
      done_ = false;
      return rx_;
    case kRegCtrl:
      return cs_ ? 1 : 0;
    case kRegStatus:
      return done_ ? 1 : 0;
    default:
      return 0xFFFF;
  }
}

void SpiMaster::write_reg(std::uint16_t reg, std::uint16_t value) {
  switch (reg) {
    case kRegData:
      if (slave_ && cs_) {
        rx_ = slave_->transfer(static_cast<std::uint8_t>(value & 0xFF));
      } else {
        rx_ = 0xFF;  // nothing on the bus
      }
      done_ = true;
      break;
    case kRegCtrl: {
      const bool new_cs = value & 1;
      if (slave_ && new_cs != cs_) slave_->select(new_cs);
      cs_ = new_cs;
      break;
    }
    default:
      break;
  }
}

SpiEeprom::SpiEeprom(std::size_t size_bytes) : mem_(size_bytes, 0xFF) {}

void SpiEeprom::select(bool asserted) {
  if (asserted) state_ = State::Idle;
  // Deassert completes any in-flight write page cycle (instantaneous here).
  if (!asserted) state_ = State::Idle;
}

std::uint8_t SpiEeprom::transfer(std::uint8_t mosi) {
  switch (state_) {
    case State::Idle:
      command_ = mosi;
      switch (command_) {
        case 0x06: write_enabled_ = true; return 0xFF;   // WREN
        case 0x04: write_enabled_ = false; return 0xFF;  // WRDI
        case 0x05: return write_enabled_ ? 0x02 : 0x00;  // RDSR: WEL bit
        case 0x02:                                        // WRITE
        case 0x03:                                        // READ
          state_ = State::Addr1;
          return 0xFF;
        default:
          return 0xFF;  // unknown command ignored
      }
    case State::Addr1:
      addr_ = static_cast<std::uint16_t>(mosi << 8);
      state_ = State::Addr2;
      return 0xFF;
    case State::Addr2:
      addr_ = static_cast<std::uint16_t>(addr_ | mosi);
      state_ = command_ == 0x03 ? State::Read : State::Write;
      return 0xFF;
    case State::Read: {
      const std::uint8_t out = mem_[addr_ % mem_.size()];
      addr_ = static_cast<std::uint16_t>(addr_ + 1);
      return out;
    }
    case State::Write:
      if (write_enabled_) {
        mem_.set(addr_ % mem_.size(), mosi);
        addr_ = static_cast<std::uint16_t>(addr_ + 1);
      }
      return 0xFF;
  }
  return 0xFF;
}

void SpiEeprom::program(std::uint16_t addr, const std::vector<std::uint8_t>& data) {
  for (std::size_t i = 0; i < data.size(); ++i) mem_.set((addr + i) % mem_.size(), data[i]);
}

}  // namespace ascp::mcu
