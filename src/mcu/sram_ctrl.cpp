#include "mcu/sram_ctrl.hpp"

namespace ascp::mcu {

std::uint16_t SramController::read_reg(std::uint16_t reg) {
  switch (reg) {
    case 1: return node_;
    case 2: return decim_;
    case 3: return static_cast<std::uint16_t>(count_ > 0xFFFF ? 0xFFFF : count_);
    case 4: return static_cast<std::uint16_t>(rdptr_);
    case 5: {
      const std::uint16_t v = mem_[rdptr_ % kSamples];
      rdptr_ = (rdptr_ + 1) % kSamples;
      return v;
    }
    case 6: return static_cast<std::uint16_t>((full() ? 1 : 0) | (armed_ ? 2 : 0));
    default: return 0;
  }
}

void SramController::write_reg(std::uint16_t reg, std::uint16_t value) {
  switch (reg) {
    case 0:
      if (value & 2) {
        count_ = 0;
        decim_phase_ = 0;
      }
      armed_ = value & 1;
      break;
    case 1: node_ = value; break;
    case 2: decim_ = value == 0 ? 1 : value; break;
    case 4: rdptr_ = value % kSamples; break;
    default: break;
  }
}

bool SramController::push(std::uint16_t node, std::uint16_t sample) {
  if (!armed_ || node != node_) return false;
  if (decim_phase_++ % decim_ != 0) return false;
  if (count_ >= kSamples) {
    armed_ = false;  // capture complete
    return false;
  }
  mem_.set(count_++, sample);
  if (count_ >= kSamples) armed_ = false;
  return true;
}

std::vector<std::uint16_t> SramController::snapshot() const {
  std::vector<std::uint16_t> out(count_);
  for (std::uint32_t i = 0; i < count_; ++i) out[i] = mem_[i];
  return out;
}

}  // namespace ascp::mcu
