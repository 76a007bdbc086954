#include "mcu/core8051.hpp"

#include "obs/mcu_profile.hpp"

namespace ascp::mcu {

namespace {
// PSW flag bit positions.
constexpr int kCy = 7, kAc = 6, kOv = 2, kP = 0;

constexpr bool parity_of(std::uint8_t v) {
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return v & 1;
}
}  // namespace

Core8051::Core8051() { reset(); }

void Core8051::reset() {
  iram_.fill(0);
  sfrs_.fill(0);
  sfr_raw_set(sfr::SP, 0x07);
  sfr_raw_set(sfr::P0, 0xFF);
  sfr_raw_set(sfr::P1, 0xFF);
  sfr_raw_set(sfr::P2, 0xFF);
  sfr_raw_set(sfr::P3, 0xFF);
  pc_ = 0;
  cycles_ = 0;
  halted_ = false;
  jammed_ = false;
  in_isr_low_ = in_isr_high_ = false;
  int0_prev_ = int1_prev_ = false;
  tx_countdown_ = -1;
}

void Core8051::load_program(const std::vector<std::uint8_t>& image, std::uint16_t base) {
  for (std::size_t i = 0; i < image.size() && base + i < code_.size(); ++i)
    code_.set(base + i, image[i]);
}

std::uint8_t Core8051::reg_addr(int n) const {
  const int bank = (sfr_raw(sfr::PSW) >> 3) & 0x03;
  return static_cast<std::uint8_t>(bank * 8 + n);
}

std::uint8_t Core8051::reg(int n) const { return iram_[reg_addr(n)]; }

std::uint16_t Core8051::dptr() const {
  return static_cast<std::uint16_t>(sfr_raw(sfr::DPH) << 8 | sfr_raw(sfr::DPL));
}

void Core8051::set_dptr(std::uint16_t v) {
  sfr_raw_set(sfr::DPH, static_cast<std::uint8_t>(v >> 8));
  sfr_raw_set(sfr::DPL, static_cast<std::uint8_t>(v & 0xFF));
}

void Core8051::push(std::uint8_t v) {
  const std::uint8_t sp = static_cast<std::uint8_t>(sfr_raw(sfr::SP) + 1);
  sfr_raw_set(sfr::SP, sp);
  iram_[sp] = v;
}

std::uint8_t Core8051::pop() {
  const std::uint8_t sp = sfr_raw(sfr::SP);
  sfr_raw_set(sfr::SP, static_cast<std::uint8_t>(sp - 1));
  return iram_[sp];
}

void Core8051::set_flag(int bit, bool v) {
  std::uint8_t p = sfr_raw(sfr::PSW);
  p = static_cast<std::uint8_t>(v ? (p | (1u << bit)) : (p & ~(1u << bit)));
  sfr_raw_set(sfr::PSW, p);
}

void Core8051::update_parity() { set_flag(kP, parity_of(a())); }

std::uint8_t Core8051::sfr_read(std::uint8_t addr) {
  if (addr == sfr::PSW) update_parity();
  if (addr == sfr::SBUF) return rx_buf_;
  // Core-owned SFRs read from the backing store; anything else is offered to
  // the attached devices first.
  switch (addr) {
    case sfr::P0: case sfr::SP: case sfr::DPL: case sfr::DPH: case sfr::PCON:
    case sfr::TCON: case sfr::TMOD: case sfr::TL0: case sfr::TL1: case sfr::TH0: case sfr::TH1:
    case sfr::P1: case sfr::SCON: case sfr::P2: case sfr::IE: case sfr::P3: case sfr::IP:
    case sfr::PSW: case sfr::ACC: case sfr::B:
      return sfr_raw(addr);
    default:
      for (SfrDevice* dev : sfr_devices_)
        if (dev->owns(addr)) return dev->read(addr);
      return sfr_raw(addr);
  }
}

void Core8051::sfr_write(std::uint8_t addr, std::uint8_t value) {
  if (addr == sfr::SBUF) {
    // Start a transmission: frame time from timer-1 mode-2 reload when
    // configured (bit time = 32·(256−TH1) machine cycles, SMOD=0), else a
    // nominal 1024-cycle frame. Modes 2/3 append TB8 as the ninth bit.
    tx_shift_ = value;
    tx_shift_bit9_ = (sfr_raw(sfr::SCON) & 0x08) != 0;  // TB8
    const std::uint8_t tmod = sfr_raw(sfr::TMOD);
    const bool t1_mode2 = ((tmod >> 4) & 0x03) == 2;
    const int bit_cycles = t1_mode2 ? 32 * (256 - sfr_raw(sfr::TH1)) : 102;
    tx_countdown_ = 10 * (bit_cycles > 0 ? bit_cycles : 102);
    return;
  }
  switch (addr) {
    case sfr::P0: case sfr::SP: case sfr::DPL: case sfr::DPH: case sfr::PCON:
    case sfr::TCON: case sfr::TMOD: case sfr::TL0: case sfr::TL1: case sfr::TH0: case sfr::TH1:
    case sfr::P1: case sfr::SCON: case sfr::P2: case sfr::IE: case sfr::P3: case sfr::IP:
    case sfr::PSW: case sfr::ACC: case sfr::B:
      sfr_raw_set(addr, value);
      return;
    default:
      for (SfrDevice* dev : sfr_devices_) {
        if (dev->owns(addr)) {
          dev->write(addr, value);
          return;
        }
      }
      sfr_raw_set(addr, value);
  }
}

std::uint8_t Core8051::direct_read(std::uint8_t addr) {
  return addr < 0x80 ? iram_[addr] : sfr_read(addr);
}

void Core8051::direct_write(std::uint8_t addr, std::uint8_t value) {
  if (addr < 0x80)
    iram_[addr] = value;
  else
    sfr_write(addr, value);
}

bool Core8051::bit_read(std::uint8_t bit_addr) {
  if (bit_addr < 0x80) {
    const std::uint8_t byte = iram_[0x20 + (bit_addr >> 3)];
    return (byte >> (bit_addr & 7)) & 1;
  }
  const std::uint8_t sfr_addr = bit_addr & 0xF8;
  return (sfr_read(sfr_addr) >> (bit_addr & 7)) & 1;
}

void Core8051::bit_write(std::uint8_t bit_addr, bool value) {
  if (bit_addr < 0x80) {
    std::uint8_t& byte = iram_[0x20 + (bit_addr >> 3)];
    byte = static_cast<std::uint8_t>(value ? (byte | (1u << (bit_addr & 7)))
                                           : (byte & ~(1u << (bit_addr & 7))));
    return;
  }
  const std::uint8_t sfr_addr = bit_addr & 0xF8;
  std::uint8_t byte = sfr_read(sfr_addr);
  byte = static_cast<std::uint8_t>(value ? (byte | (1u << (bit_addr & 7)))
                                         : (byte & ~(1u << (bit_addr & 7))));
  sfr_write(sfr_addr, byte);
}

std::uint8_t Core8051::xdata_read(std::uint16_t addr) {
  return xdata_ ? xdata_->read(addr) : 0xFF;
}

void Core8051::xdata_write(std::uint16_t addr, std::uint8_t value) {
  if (xdata_) xdata_->write(addr, value);
}

void Core8051::do_add(std::uint8_t operand, bool with_carry) {
  const int c = with_carry && flag(kCy) ? 1 : 0;
  const int lhs = a();
  const int sum = lhs + operand + c;
  const int half = (lhs & 0x0F) + (operand & 0x0F) + c;
  set_flag(kCy, sum > 0xFF);
  set_flag(kAc, half > 0x0F);
  const int signed_sum = static_cast<std::int8_t>(lhs) + static_cast<std::int8_t>(operand) + c;
  set_flag(kOv, signed_sum < -128 || signed_sum > 127);
  set_a(static_cast<std::uint8_t>(sum));
}

void Core8051::do_subb(std::uint8_t operand) {
  const int c = flag(kCy) ? 1 : 0;
  const int lhs = a();
  const int diff = lhs - operand - c;
  const int half = (lhs & 0x0F) - (operand & 0x0F) - c;
  set_flag(kCy, diff < 0);
  set_flag(kAc, half < 0);
  const int signed_diff = static_cast<std::int8_t>(lhs) - static_cast<std::int8_t>(operand) - c;
  set_flag(kOv, signed_diff < -128 || signed_diff > 127);
  set_a(static_cast<std::uint8_t>(diff & 0xFF));
}

bool Core8051::inject_rx(std::uint8_t byte) { return inject_rx9(byte, true); }

bool Core8051::inject_rx9(std::uint8_t byte, bool bit9) {
  const std::uint8_t scon = sfr_raw(sfr::SCON);
  if (!(scon & 0x10)) return false;  // REN clear — receiver disabled
  const bool nine_bit_mode = (scon & 0x80) != 0;  // SM0: modes 2 and 3
  if ((scon & 0x20) && nine_bit_mode && !bit9) {
    // SM2 address filtering: the frame is on the wire but this node stays
    // silent — no RI, no buffer update.
    return true;
  }
  if (scon & 0x01) return false;  // RI still set — overrun refused
  rx_buf_ = byte;
  std::uint8_t next = static_cast<std::uint8_t>(scon | 0x01);  // RI
  if (nine_bit_mode)
    next = static_cast<std::uint8_t>(bit9 ? (next | 0x04) : (next & ~0x04));  // RB8
  sfr_raw_set(sfr::SCON, next);
  return true;
}

void Core8051::tick_timer(int idx, int cycles) {
  const std::uint8_t tcon = sfr_raw(sfr::TCON);
  const bool running = idx == 0 ? (tcon & 0x10) : (tcon & 0x40);
  if (!running) return;
  const std::uint8_t tmod = sfr_raw(sfr::TMOD);
  const int mode = (idx == 0 ? tmod : tmod >> 4) & 0x03;
  const std::uint8_t tl_addr = idx == 0 ? sfr::TL0 : sfr::TL1;
  const std::uint8_t th_addr = idx == 0 ? sfr::TH0 : sfr::TH1;
  const std::uint8_t tf_mask = idx == 0 ? 0x20 : 0x80;

  if (mode == 2) {
    // 8-bit auto-reload from TH.
    int tl = sfr_raw(tl_addr);
    for (int i = 0; i < cycles; ++i) {
      if (++tl > 0xFF) {
        tl = sfr_raw(th_addr);
        sfr_raw_set(sfr::TCON, static_cast<std::uint8_t>(sfr_raw(sfr::TCON) | tf_mask));
      }
    }
    sfr_raw_set(tl_addr, static_cast<std::uint8_t>(tl));
    return;
  }
  // Modes 0/1/3 approximated as the 16-bit counter (mode 1) — the form the
  // platform firmware uses.
  long count = (sfr_raw(th_addr) << 8) | sfr_raw(tl_addr);
  count += cycles;
  if (count > 0xFFFF) {
    count &= 0xFFFF;
    sfr_raw_set(sfr::TCON, static_cast<std::uint8_t>(sfr_raw(sfr::TCON) | tf_mask));
  }
  sfr_raw_set(th_addr, static_cast<std::uint8_t>(count >> 8));
  sfr_raw_set(tl_addr, static_cast<std::uint8_t>(count & 0xFF));
}

void Core8051::tick_peripherals(int machine_cycles) {
  tick_timer(0, machine_cycles);
  tick_timer(1, machine_cycles);

  // Serial transmit completion.
  if (tx_countdown_ >= 0) {
    tx_countdown_ -= machine_cycles;
    if (tx_countdown_ < 0) {
      sfr_raw_set(sfr::SCON, static_cast<std::uint8_t>(sfr_raw(sfr::SCON) | 0x02));  // TI
      last_tx_bit9_ = tx_shift_bit9_;
      if (on_tx_) on_tx_(tx_shift_);
    }
  }

  // External interrupt pins: IT0/IT1 select edge (1) or level (0) mode.
  const std::uint8_t tcon = sfr_raw(sfr::TCON);
  const bool it0 = tcon & 0x01, it1 = tcon & 0x04;
  std::uint8_t new_tcon = tcon;
  if (it0) {
    if (int0_pin_ && !int0_prev_) new_tcon |= 0x02;  // IE0 on asserting edge
  } else {
    new_tcon = static_cast<std::uint8_t>(int0_pin_ ? (new_tcon | 0x02) : (new_tcon & ~0x02));
  }
  if (it1) {
    if (int1_pin_ && !int1_prev_) new_tcon |= 0x08;  // IE1
  } else {
    new_tcon = static_cast<std::uint8_t>(int1_pin_ ? (new_tcon | 0x08) : (new_tcon & ~0x08));
  }
  sfr_raw_set(sfr::TCON, new_tcon);
  int0_prev_ = int0_pin_;
  int1_prev_ = int1_pin_;
}

void Core8051::jump_to_isr(std::uint16_t vector, bool high_priority) {
  push(static_cast<std::uint8_t>(pc_ & 0xFF));
  push(static_cast<std::uint8_t>(pc_ >> 8));
  pc_ = vector;
  if (high_priority)
    in_isr_high_ = true;
  else
    in_isr_low_ = true;
  halted_ = false;  // an interrupt wakes a spinning idle loop
  if (profiler_) profiler_->record_isr_enter(vector, static_cast<std::uint64_t>(cycles_));
}

bool Core8051::service_interrupts() {
  const std::uint8_t ie = sfr_raw(sfr::IE);
  if (!(ie & 0x80)) return false;  // EA
  if (in_isr_high_) return false;

  const std::uint8_t ip = sfr_raw(sfr::IP);
  const std::uint8_t tcon = sfr_raw(sfr::TCON);
  const std::uint8_t scon = sfr_raw(sfr::SCON);

  struct Source {
    bool enabled, pending, high;
    std::uint16_t vector;
    std::uint8_t clear_mask;  // TCON flag cleared by hardware (0 = none)
  };
  const Source sources[5] = {
      {(ie & 0x01) != 0, (tcon & 0x02) != 0, (ip & 0x01) != 0, vect::EXT0,
       static_cast<std::uint8_t>((tcon & 0x01) ? 0x02 : 0x00)},
      {(ie & 0x02) != 0, (tcon & 0x20) != 0, (ip & 0x02) != 0, vect::TIMER0, 0x20},
      {(ie & 0x04) != 0, (tcon & 0x08) != 0, (ip & 0x04) != 0, vect::EXT1,
       static_cast<std::uint8_t>((tcon & 0x04) ? 0x08 : 0x00)},
      {(ie & 0x08) != 0, (tcon & 0x80) != 0, (ip & 0x08) != 0, vect::TIMER1, 0x80},
      {(ie & 0x10) != 0, (scon & 0x03) != 0, (ip & 0x10) != 0, vect::SERIAL, 0x00},
  };

  // High-priority pass first, then low (only if not already in a low ISR).
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_high = pass == 0;
    if (!want_high && in_isr_low_) break;
    for (const Source& s : sources) {
      if (!s.enabled || !s.pending || s.high != want_high) continue;
      if (s.clear_mask)
        sfr_raw_set(sfr::TCON, static_cast<std::uint8_t>(sfr_raw(sfr::TCON) & ~s.clear_mask));
      jump_to_isr(s.vector, want_high);
      return true;
    }
  }
  return false;
}

int Core8051::step() {
  if (jammed_) {
    // Crashed core: time advances, peripherals tick, nothing executes.
    cycles_ += 1;
    tick_peripherals(1);
    return 1;
  }
  if (service_interrupts()) {
    sfr_raw_set(sfr::PCON, static_cast<std::uint8_t>(sfr_raw(sfr::PCON) & ~0x01));  // wake
    cycles_ += 2;
    tick_peripherals(2);
    return 2;
  }
  if (sfr_raw(sfr::PCON) & 0x01) {
    // IDL: the CPU clock is gated; peripherals keep running until an
    // enabled interrupt clears the idle latch.
    cycles_ += 1;
    tick_peripherals(1);
    return 1;
  }
  const std::uint16_t pc_before = pc_;
  const std::uint8_t opcode = code_[pc_before];
  const int c = execute();
  cycles_ += c;
  if (profiler_)
    profiler_->record_exec(pc_before, opcode, c, static_cast<std::uint64_t>(cycles_));
  tick_peripherals(c);
  return c;
}

long Core8051::run_cycles(long cycles) {
  long used = 0;
  while (used < cycles) used += step();
  return used;
}

int Core8051::execute() {
  const std::uint16_t op_pc = pc_;
  const std::uint8_t op = fetch();
  int cycles = 1;

  switch (op) {
    case 0x00:  // NOP
      break;

    // ---- jumps / calls --------------------------------------------------
    case 0x01: case 0x21: case 0x41: case 0x61:
    case 0x81: case 0xA1: case 0xC1: case 0xE1: {  // AJMP addr11
      const std::uint8_t lo = fetch();
      const std::uint16_t target =
          static_cast<std::uint16_t>((pc_ & 0xF800) | ((op & 0xE0) << 3) | lo);
      halted_ = target == op_pc;
      pc_ = target;
      cycles = 2;
      break;
    }
    case 0x11: case 0x31: case 0x51: case 0x71:
    case 0x91: case 0xB1: case 0xD1: case 0xF1: {  // ACALL addr11
      const std::uint8_t lo = fetch();
      push(static_cast<std::uint8_t>(pc_ & 0xFF));
      push(static_cast<std::uint8_t>(pc_ >> 8));
      pc_ = static_cast<std::uint16_t>((pc_ & 0xF800) | ((op & 0xE0) << 3) | lo);
      cycles = 2;
      break;
    }
    case 0x02: {  // LJMP addr16
      const std::uint8_t hi = fetch(), lo = fetch();
      const std::uint16_t target = static_cast<std::uint16_t>(hi << 8 | lo);
      halted_ = target == op_pc;
      pc_ = target;
      cycles = 2;
      break;
    }
    case 0x12: {  // LCALL addr16
      const std::uint8_t hi = fetch(), lo = fetch();
      push(static_cast<std::uint8_t>(pc_ & 0xFF));
      push(static_cast<std::uint8_t>(pc_ >> 8));
      pc_ = static_cast<std::uint16_t>(hi << 8 | lo);
      cycles = 2;
      break;
    }
    case 0x22: {  // RET
      const std::uint8_t hi = pop(), lo = pop();
      pc_ = static_cast<std::uint16_t>(hi << 8 | lo);
      cycles = 2;
      break;
    }
    case 0x32: {  // RETI
      const std::uint8_t hi = pop(), lo = pop();
      pc_ = static_cast<std::uint16_t>(hi << 8 | lo);
      if (in_isr_high_)
        in_isr_high_ = false;
      else
        in_isr_low_ = false;
      cycles = 2;
      break;
    }
    case 0x80: {  // SJMP rel
      const auto rel = static_cast<std::int8_t>(fetch());
      const std::uint16_t target = static_cast<std::uint16_t>(pc_ + rel);
      halted_ = target == op_pc;
      pc_ = target;
      cycles = 2;
      break;
    }
    case 0x73:  // JMP @A+DPTR
      pc_ = static_cast<std::uint16_t>(dptr() + a());
      cycles = 2;
      break;

    // ---- conditional branches -------------------------------------------
    case 0x10: {  // JBC bit,rel
      const std::uint8_t bit = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      if (bit_read(bit)) {
        bit_write(bit, false);
        pc_ = static_cast<std::uint16_t>(pc_ + rel);
      }
      cycles = 2;
      break;
    }
    case 0x20: {  // JB bit,rel
      const std::uint8_t bit = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      if (bit_read(bit)) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0x30: {  // JNB bit,rel
      const std::uint8_t bit = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      if (!bit_read(bit)) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0x40: {  // JC rel
      const auto rel = static_cast<std::int8_t>(fetch());
      if (flag(kCy)) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0x50: {  // JNC rel
      const auto rel = static_cast<std::int8_t>(fetch());
      if (!flag(kCy)) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0x60: {  // JZ rel
      const auto rel = static_cast<std::int8_t>(fetch());
      if (a() == 0) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0x70: {  // JNZ rel
      const auto rel = static_cast<std::int8_t>(fetch());
      if (a() != 0) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }

    // ---- INC / DEC -------------------------------------------------------
    case 0x04: set_a(static_cast<std::uint8_t>(a() + 1)); break;
    case 0x05: {
      const std::uint8_t d = fetch();
      direct_write(d, static_cast<std::uint8_t>(direct_read(d) + 1));
      break;
    }
    case 0x06: case 0x07: {
      const std::uint8_t addr = r(op & 1);
      iram_[addr] = static_cast<std::uint8_t>(iram_[addr] + 1);
      break;
    }
    case 0x08: case 0x09: case 0x0A: case 0x0B:
    case 0x0C: case 0x0D: case 0x0E: case 0x0F:
      set_r(op & 7, static_cast<std::uint8_t>(r(op & 7) + 1));
      break;
    case 0x14: set_a(static_cast<std::uint8_t>(a() - 1)); break;
    case 0x15: {
      const std::uint8_t d = fetch();
      direct_write(d, static_cast<std::uint8_t>(direct_read(d) - 1));
      break;
    }
    case 0x16: case 0x17: {
      const std::uint8_t addr = r(op & 1);
      iram_[addr] = static_cast<std::uint8_t>(iram_[addr] - 1);
      break;
    }
    case 0x18: case 0x19: case 0x1A: case 0x1B:
    case 0x1C: case 0x1D: case 0x1E: case 0x1F:
      set_r(op & 7, static_cast<std::uint8_t>(r(op & 7) - 1));
      break;
    case 0xA3:  // INC DPTR
      set_dptr(static_cast<std::uint16_t>(dptr() + 1));
      cycles = 2;
      break;

    // ---- rotates ----------------------------------------------------------
    case 0x03: set_a(static_cast<std::uint8_t>((a() >> 1) | (a() << 7))); break;  // RR
    case 0x23: set_a(static_cast<std::uint8_t>((a() << 1) | (a() >> 7))); break;  // RL
    case 0x13: {  // RRC
      const bool c = flag(kCy);
      set_flag(kCy, a() & 1);
      set_a(static_cast<std::uint8_t>((a() >> 1) | (c ? 0x80 : 0)));
      break;
    }
    case 0x33: {  // RLC
      const bool c = flag(kCy);
      set_flag(kCy, a() & 0x80);
      set_a(static_cast<std::uint8_t>((a() << 1) | (c ? 1 : 0)));
      break;
    }
    case 0xC4:  // SWAP A
      set_a(static_cast<std::uint8_t>((a() << 4) | (a() >> 4)));
      break;

    // ---- arithmetic --------------------------------------------------------
    case 0x24: do_add(fetch(), false); break;
    case 0x25: do_add(direct_read(fetch()), false); break;
    case 0x26: case 0x27: do_add(iram_[r(op & 1)], false); break;
    case 0x28: case 0x29: case 0x2A: case 0x2B:
    case 0x2C: case 0x2D: case 0x2E: case 0x2F: do_add(r(op & 7), false); break;
    case 0x34: do_add(fetch(), true); break;
    case 0x35: do_add(direct_read(fetch()), true); break;
    case 0x36: case 0x37: do_add(iram_[r(op & 1)], true); break;
    case 0x38: case 0x39: case 0x3A: case 0x3B:
    case 0x3C: case 0x3D: case 0x3E: case 0x3F: do_add(r(op & 7), true); break;
    case 0x94: do_subb(fetch()); break;
    case 0x95: do_subb(direct_read(fetch())); break;
    case 0x96: case 0x97: do_subb(iram_[r(op & 1)]); break;
    case 0x98: case 0x99: case 0x9A: case 0x9B:
    case 0x9C: case 0x9D: case 0x9E: case 0x9F: do_subb(r(op & 7)); break;
    case 0xA4: {  // MUL AB
      const unsigned prod = a() * sfr_raw(sfr::B);
      set_a(static_cast<std::uint8_t>(prod & 0xFF));
      sfr_raw_set(sfr::B, static_cast<std::uint8_t>(prod >> 8));
      set_flag(kCy, false);
      set_flag(kOv, prod > 0xFF);
      cycles = 4;
      break;
    }
    case 0x84: {  // DIV AB
      const std::uint8_t divisor = sfr_raw(sfr::B);
      set_flag(kCy, false);
      if (divisor == 0) {
        set_flag(kOv, true);
      } else {
        const std::uint8_t q = static_cast<std::uint8_t>(a() / divisor);
        const std::uint8_t rem = static_cast<std::uint8_t>(a() % divisor);
        set_a(q);
        sfr_raw_set(sfr::B, rem);
        set_flag(kOv, false);
      }
      cycles = 4;
      break;
    }
    case 0xD4: {  // DA A
      int acc = a();
      if ((acc & 0x0F) > 9 || flag(kAc)) acc += 0x06;
      if (acc > 0xFF) set_flag(kCy, true);
      acc &= 0x1FF;
      if ((acc & 0xF0) > 0x90 || flag(kCy)) acc += 0x60;
      if (acc > 0xFF) set_flag(kCy, true);
      set_a(static_cast<std::uint8_t>(acc & 0xFF));
      break;
    }

    // ---- logic --------------------------------------------------------------
    case 0x42: { const std::uint8_t d = fetch(); direct_write(d, direct_read(d) | a()); break; }
    case 0x43: { const std::uint8_t d = fetch(); direct_write(d, direct_read(d) | fetch()); cycles = 2; break; }
    case 0x44: set_a(a() | fetch()); break;
    case 0x45: set_a(a() | direct_read(fetch())); break;
    case 0x46: case 0x47: set_a(a() | iram_[r(op & 1)]); break;
    case 0x48: case 0x49: case 0x4A: case 0x4B:
    case 0x4C: case 0x4D: case 0x4E: case 0x4F: set_a(a() | r(op & 7)); break;
    case 0x52: { const std::uint8_t d = fetch(); direct_write(d, direct_read(d) & a()); break; }
    case 0x53: { const std::uint8_t d = fetch(); direct_write(d, direct_read(d) & fetch()); cycles = 2; break; }
    case 0x54: set_a(a() & fetch()); break;
    case 0x55: set_a(a() & direct_read(fetch())); break;
    case 0x56: case 0x57: set_a(a() & iram_[r(op & 1)]); break;
    case 0x58: case 0x59: case 0x5A: case 0x5B:
    case 0x5C: case 0x5D: case 0x5E: case 0x5F: set_a(a() & r(op & 7)); break;
    case 0x62: { const std::uint8_t d = fetch(); direct_write(d, direct_read(d) ^ a()); break; }
    case 0x63: { const std::uint8_t d = fetch(); direct_write(d, direct_read(d) ^ fetch()); cycles = 2; break; }
    case 0x64: set_a(a() ^ fetch()); break;
    case 0x65: set_a(a() ^ direct_read(fetch())); break;
    case 0x66: case 0x67: set_a(a() ^ iram_[r(op & 1)]); break;
    case 0x68: case 0x69: case 0x6A: case 0x6B:
    case 0x6C: case 0x6D: case 0x6E: case 0x6F: set_a(a() ^ r(op & 7)); break;
    case 0xE4: set_a(0); break;                                     // CLR A
    case 0xF4: set_a(static_cast<std::uint8_t>(~a())); break;       // CPL A

    // ---- boolean (carry) ------------------------------------------------------
    case 0x72: { const std::uint8_t b = fetch(); set_flag(kCy, flag(kCy) || bit_read(b)); cycles = 2; break; }
    case 0x82: { const std::uint8_t b = fetch(); set_flag(kCy, flag(kCy) && bit_read(b)); cycles = 2; break; }
    case 0xA0: { const std::uint8_t b = fetch(); set_flag(kCy, flag(kCy) || !bit_read(b)); cycles = 2; break; }
    case 0xB0: { const std::uint8_t b = fetch(); set_flag(kCy, flag(kCy) && !bit_read(b)); cycles = 2; break; }
    case 0xA2: set_flag(kCy, bit_read(fetch())); break;       // MOV C,bit
    case 0x92: bit_write(fetch(), flag(kCy)); cycles = 2; break;  // MOV bit,C
    case 0xB2: { const std::uint8_t b = fetch(); bit_write(b, !bit_read(b)); break; }  // CPL bit
    case 0xB3: set_flag(kCy, !flag(kCy)); break;              // CPL C
    case 0xC2: bit_write(fetch(), false); break;              // CLR bit
    case 0xC3: set_flag(kCy, false); break;                   // CLR C
    case 0xD2: bit_write(fetch(), true); break;               // SETB bit
    case 0xD3: set_flag(kCy, true); break;                    // SETB C

    // ---- data moves --------------------------------------------------------------
    case 0x74: set_a(fetch()); break;
    case 0x75: { const std::uint8_t d = fetch(); direct_write(d, fetch()); cycles = 2; break; }
    case 0x76: case 0x77: iram_[r(op & 1)] = fetch(); break;
    case 0x78: case 0x79: case 0x7A: case 0x7B:
    case 0x7C: case 0x7D: case 0x7E: case 0x7F: set_r(op & 7, fetch()); break;
    case 0x85: {  // MOV dir,dir — source operand first in the encoding
      const std::uint8_t src = fetch(), dst = fetch();
      direct_write(dst, direct_read(src));
      cycles = 2;
      break;
    }
    case 0x86: case 0x87: { const std::uint8_t d = fetch(); direct_write(d, iram_[r(op & 1)]); cycles = 2; break; }
    case 0x88: case 0x89: case 0x8A: case 0x8B:
    case 0x8C: case 0x8D: case 0x8E: case 0x8F: {
      const std::uint8_t d = fetch();
      direct_write(d, r(op & 7));
      cycles = 2;
      break;
    }
    case 0x90: {  // MOV DPTR,#imm16
      const std::uint8_t hi = fetch(), lo = fetch();
      set_dptr(static_cast<std::uint16_t>(hi << 8 | lo));
      cycles = 2;
      break;
    }
    case 0xA6: case 0xA7: iram_[r(op & 1)] = direct_read(fetch()); cycles = 2; break;
    case 0xA8: case 0xA9: case 0xAA: case 0xAB:
    case 0xAC: case 0xAD: case 0xAE: case 0xAF:
      set_r(op & 7, direct_read(fetch()));
      cycles = 2;
      break;
    case 0xE5: set_a(direct_read(fetch())); break;
    case 0xE6: case 0xE7: set_a(iram_[r(op & 1)]); break;
    case 0xE8: case 0xE9: case 0xEA: case 0xEB:
    case 0xEC: case 0xED: case 0xEE: case 0xEF: set_a(r(op & 7)); break;
    case 0xF5: direct_write(fetch(), a()); break;
    case 0xF6: case 0xF7: iram_[r(op & 1)] = a(); break;
    case 0xF8: case 0xF9: case 0xFA: case 0xFB:
    case 0xFC: case 0xFD: case 0xFE: case 0xFF: set_r(op & 7, a()); break;

    // ---- code / external memory ----------------------------------------------------
    case 0x83:  // MOVC A,@A+PC
      set_a(code_[static_cast<std::uint16_t>(pc_ + a())]);
      cycles = 2;
      break;
    case 0x93:  // MOVC A,@A+DPTR
      set_a(code_[static_cast<std::uint16_t>(dptr() + a())]);
      cycles = 2;
      break;
    case 0xE0: set_a(xdata_read(dptr())); cycles = 2; break;  // MOVX A,@DPTR
    case 0xE2: case 0xE3:  // MOVX A,@Ri — P2 supplies the page
      set_a(xdata_read(static_cast<std::uint16_t>(sfr_raw(sfr::P2) << 8 | r(op & 1))));
      cycles = 2;
      break;
    case 0xF0: xdata_write(dptr(), a()); cycles = 2; break;   // MOVX @DPTR,A
    case 0xF2: case 0xF3:
      xdata_write(static_cast<std::uint16_t>(sfr_raw(sfr::P2) << 8 | r(op & 1)), a());
      cycles = 2;
      break;

    // ---- stack ------------------------------------------------------------------------
    case 0xC0: push(direct_read(fetch())); cycles = 2; break;
    case 0xD0: direct_write(fetch(), pop()); cycles = 2; break;

    // ---- exchanges ----------------------------------------------------------------------
    case 0xC5: {
      const std::uint8_t d = fetch();
      const std::uint8_t tmp = direct_read(d);
      direct_write(d, a());
      set_a(tmp);
      break;
    }
    case 0xC6: case 0xC7: {
      const std::uint8_t addr = r(op & 1);
      const std::uint8_t tmp = iram_[addr];
      iram_[addr] = a();
      set_a(tmp);
      break;
    }
    case 0xC8: case 0xC9: case 0xCA: case 0xCB:
    case 0xCC: case 0xCD: case 0xCE: case 0xCF: {
      const std::uint8_t tmp = r(op & 7);
      set_r(op & 7, a());
      set_a(tmp);
      break;
    }
    case 0xD6: case 0xD7: {  // XCHD A,@Ri — swap low nibbles
      const std::uint8_t addr = r(op & 1);
      const std::uint8_t mem = iram_[addr];
      iram_[addr] = static_cast<std::uint8_t>((mem & 0xF0) | (a() & 0x0F));
      set_a(static_cast<std::uint8_t>((a() & 0xF0) | (mem & 0x0F)));
      break;
    }

    // ---- compare / loop --------------------------------------------------------------------
    case 0xB4: {  // CJNE A,#imm,rel
      const std::uint8_t imm = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      set_flag(kCy, a() < imm);
      if (a() != imm) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0xB5: {  // CJNE A,dir,rel
      const std::uint8_t val = direct_read(fetch());
      const auto rel = static_cast<std::int8_t>(fetch());
      set_flag(kCy, a() < val);
      if (a() != val) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0xB6: case 0xB7: {  // CJNE @Ri,#imm,rel
      const std::uint8_t val = iram_[r(op & 1)];
      const std::uint8_t imm = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      set_flag(kCy, val < imm);
      if (val != imm) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0xB8: case 0xB9: case 0xBA: case 0xBB:
    case 0xBC: case 0xBD: case 0xBE: case 0xBF: {  // CJNE Rn,#imm,rel
      const std::uint8_t val = r(op & 7);
      const std::uint8_t imm = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      set_flag(kCy, val < imm);
      if (val != imm) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0xD5: {  // DJNZ dir,rel
      const std::uint8_t d = fetch();
      const auto rel = static_cast<std::int8_t>(fetch());
      const std::uint8_t v = static_cast<std::uint8_t>(direct_read(d) - 1);
      direct_write(d, v);
      if (v != 0) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }
    case 0xD8: case 0xD9: case 0xDA: case 0xDB:
    case 0xDC: case 0xDD: case 0xDE: case 0xDF: {  // DJNZ Rn,rel
      const auto rel = static_cast<std::int8_t>(fetch());
      const std::uint8_t v = static_cast<std::uint8_t>(r(op & 7) - 1);
      set_r(op & 7, v);
      if (v != 0) pc_ = static_cast<std::uint16_t>(pc_ + rel);
      cycles = 2;
      break;
    }

    case 0xA5:  // reserved — executes as NOP on most cores
      break;
  }
  return cycles;
}

}  // namespace ascp::mcu
