#include "mcu/bus.hpp"

#include <stdexcept>

namespace ascp::mcu {

BridgedBus::BridgedBus(std::size_t ram_bytes) : ram_(ram_bytes, 0) {}

void BridgedBus::map(BridgeDevice* dev, std::uint16_t base, std::uint16_t num_regs,
                     std::string name) {
  const std::uint16_t size = static_cast<std::uint16_t>(num_regs * 2);
  if (base < ram_.size())
    throw std::invalid_argument("bridge window '" + name + "' overlaps XDATA RAM");
  if (prog_size_ && base < prog_base_ + prog_size_ && prog_base_ < base + size)
    throw std::invalid_argument("bridge window '" + name + "' overlaps program RAM");
  for (const Window& w : windows_) {
    const bool overlap = base < w.base + w.size && w.base < base + size;
    if (overlap)
      throw std::invalid_argument("bridge window '" + name + "' overlaps '" + w.name + "'");
  }
  windows_.push_back(Window{dev, base, size, std::move(name)});
}

const BridgedBus::Window* BridgedBus::find(std::uint16_t addr) const {
  for (const Window& w : windows_)
    if (addr >= w.base && addr < w.base + w.size) return &w;
  return nullptr;
}

void BridgedBus::map_program_ram(std::uint16_t base, std::uint32_t size, Core8051* core) {
  if (base < ram_.size()) throw std::invalid_argument("program RAM overlaps XDATA RAM");
  for (const Window& w : windows_) {
    if (base < static_cast<std::uint32_t>(w.base) + w.size && w.base < base + size)
      throw std::invalid_argument("program RAM overlaps bridge window '" + w.name + "'");
  }
  prog_base_ = base;
  prog_size_ = size;
  prog_ram_ = FillMemory<std::uint8_t>(size, 0);
  prog_core_ = core;
}

std::uint8_t BridgedBus::read(std::uint16_t addr) {
  if (addr < ram_.size()) return ram_[addr];
  if (prog_size_ && addr >= prog_base_ && addr < prog_base_ + prog_size_)
    return prog_ram_[addr - prog_base_];
  if (const Window* w = find(addr)) {
    const std::uint16_t offset = static_cast<std::uint16_t>(addr - w->base);
    if ((offset & 1) == 0) {
      // Low-byte read latches the whole word so the subsequent high-byte
      // read is coherent — an 8-bit CPU cannot read 16 bits atomically.
      const std::uint16_t value = w->dev->read_reg(offset / 2);
      read_latch_high_ = static_cast<std::uint8_t>(value >> 8);
      return static_cast<std::uint8_t>(value & 0xFF);
    }
    return read_latch_high_;
  }
  return 0xFF;  // open bus
}

void BridgedBus::write(std::uint16_t addr, std::uint8_t value) {
  if (addr < ram_.size()) {
    ram_.set(addr, value);
    return;
  }
  if (prog_size_ && addr >= prog_base_ && addr < prog_base_ + prog_size_) {
    prog_ram_.set(addr - prog_base_, value);
    if (prog_core_) prog_core_->poke_code(addr, value);  // identity mapping
    return;
  }
  if (const Window* w = find(addr)) {
    const std::uint16_t offset = static_cast<std::uint16_t>(addr - w->base);
    if ((offset & 1) == 0) {
      // Low byte: latch only; the register commits on the high-byte write.
      latched_low_ = value;
    } else {
      w->dev->write_reg(offset / 2,
                        static_cast<std::uint16_t>(value << 8 | latched_low_));
    }
  }
}

std::vector<BridgedBus::WindowInfo> BridgedBus::mapped_windows() const {
  std::vector<WindowInfo> out;
  out.reserve(windows_.size());
  for (const Window& w : windows_) out.push_back(WindowInfo{w.name, w.base, w.size});
  return out;
}

std::uint16_t BridgedBus::read_word(std::uint16_t addr) {
  return static_cast<std::uint16_t>(read(addr) | (read(static_cast<std::uint16_t>(addr + 1)) << 8));
}

void BridgedBus::write_word(std::uint16_t addr, std::uint16_t value) {
  write(addr, static_cast<std::uint8_t>(value & 0xFF));
  write(static_cast<std::uint16_t>(addr + 1), static_cast<std::uint8_t>(value >> 8));
}

}  // namespace ascp::mcu
