// timer16.hpp — 16-bit programmable timer on the bridge bus (paper Fig. 4).
//
// A free-running down-counter with reload and an overflow (expiry) sticky
// flag — the platform firmware uses it to pace its monitoring loop without
// burning the 8051's own timers (which serve the UART baud generator).
// Register map (word registers):
//   0 COUNT  — read current count; write = load immediately
//   1 RELOAD — value loaded on expiry (0 disables auto-reload)
//   2 CTRL   — bit0 run, bit1 clear-expired (write 1)
//   3 STATUS — bit0 expired (sticky)
#pragma once

#include <cstdint>

#include "mcu/bus.hpp"

namespace ascp::mcu {

class Timer16 : public BridgeDevice {
 public:
  std::uint16_t read_reg(std::uint16_t reg) override {
    switch (reg) {
      case 0: return count_;
      case 1: return reload_;
      case 2: return running_ ? 1 : 0;
      case 3: return expired_ ? 1 : 0;
      default: return 0xFFFF;
    }
  }

  void write_reg(std::uint16_t reg, std::uint16_t value) override {
    switch (reg) {
      case 0: count_ = value; break;
      case 1: reload_ = value; break;
      case 2:
        running_ = value & 1;
        if (value & 2) expired_ = false;
        break;
      default: break;
    }
  }

  /// Advance by `cycles` machine cycles (call as the MCU slice runs).
  void tick(long cycles) {
    if (!running_) return;
    while (cycles-- > 0) {
      if (count_ == 0) {
        expired_ = true;
        if (reload_ == 0) {
          running_ = false;
          return;
        }
        count_ = reload_;
      } else {
        --count_;
      }
    }
  }

  bool expired() const { return expired_; }

  void serialize_state(StateArchive& ar) {
    ar.value(count_);
    ar.value(reload_);
    ar.value(running_);
    ar.value(expired_);
  }

 private:
  std::uint16_t count_ = 0;
  std::uint16_t reload_ = 0;
  bool running_ = false;
  bool expired_ = false;
};

}  // namespace ascp::mcu
