// core8051.hpp — MCS-51 instruction-set simulator.
//
// The paper's CPU core is the Oregano 8051 soft core (§4.2, [9]): it runs the
// monitoring/communication firmware, while the hardwired DSP does the signal
// processing. This ISS implements the full MCS-51 instruction set, the
// standard SFRs, both timers, the serial port and the five-source interrupt
// system, with machine-cycle accounting (12 clocks per cycle at the paper's
// 20 MHz). Platform peripherals attach through two hooks, matching Fig. 4:
//   * the SFR bus     — unclaimed SFR addresses go to an SfrDevice
//   * the XDATA bus   — MOVX traffic goes to an XdataBus (the 16-bit bridge)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/state_archive.hpp"
#include "mcu/fill_memory.hpp"

namespace ascp::obs {
class McuProfiler;
}

namespace ascp::mcu {

/// Peripheral visible on the 8051 SFR bus (cache controller, UART extensions
/// — paper Fig. 4 places those on the SFR bus).
class SfrDevice {
 public:
  virtual ~SfrDevice() = default;
  virtual bool owns(std::uint8_t addr) const = 0;
  virtual std::uint8_t read(std::uint8_t addr) = 0;
  virtual void write(std::uint8_t addr, std::uint8_t value) = 0;
};

/// External-data bus (MOVX space). The platform's bridge, SRAM controller,
/// SPI, watchdog and DSP register window all live here.
class XdataBus {
 public:
  virtual ~XdataBus() = default;
  virtual std::uint8_t read(std::uint16_t addr) = 0;
  virtual void write(std::uint16_t addr, std::uint8_t value) = 0;
};

/// Standard SFR addresses used by the core.
namespace sfr {
constexpr std::uint8_t P0 = 0x80, SP = 0x81, DPL = 0x82, DPH = 0x83, PCON = 0x87;
constexpr std::uint8_t TCON = 0x88, TMOD = 0x89, TL0 = 0x8A, TL1 = 0x8B, TH0 = 0x8C, TH1 = 0x8D;
constexpr std::uint8_t P1 = 0x90, SCON = 0x98, SBUF = 0x99;
constexpr std::uint8_t P2 = 0xA0, IE = 0xA8, P3 = 0xB0, IP = 0xB8;
constexpr std::uint8_t PSW = 0xD0, ACC = 0xE0, B = 0xF0;

/// Every SFR above, by the name firmware source uses for it.
struct Named {
  const char* name;
  std::uint8_t addr;
};
constexpr Named kNamed[] = {
    {"P0", P0},     {"SP", SP},     {"DPL", DPL}, {"DPH", DPH}, {"PCON", PCON}, {"TCON", TCON},
    {"TMOD", TMOD}, {"TL0", TL0},   {"TL1", TL1}, {"TH0", TH0}, {"TH1", TH1},   {"P1", P1},
    {"SCON", SCON}, {"SBUF", SBUF}, {"P2", P2},   {"IE", IE},   {"P3", P3},     {"IP", IP},
    {"PSW", PSW},   {"ACC", ACC},   {"B", B}};
}  // namespace sfr

/// Interrupt vector addresses.
namespace vect {
constexpr std::uint16_t RESET = 0x00, EXT0 = 0x03, TIMER0 = 0x0B, EXT1 = 0x13, TIMER1 = 0x1B,
                        SERIAL = 0x23;
}

class Core8051 {
 public:
  Core8051();

  // ---- program loading -------------------------------------------------
  /// Copy a program image into code memory at `base`.
  void load_program(const std::vector<std::uint8_t>& image, std::uint16_t base = 0);
  std::uint8_t code_byte(std::uint16_t addr) const { return code_[addr]; }
  /// Writable code view — used by the program-RAM download path (the paper's
  /// "big RAM used as Program Storage" prototype configuration).
  void poke_code(std::uint16_t addr, std::uint8_t value) { code_.set(addr, value); }

  // ---- execution -------------------------------------------------------
  /// Execute one instruction; returns machine cycles consumed (≥1).
  int step();
  /// Run until `cycles` machine cycles have elapsed; returns cycles used.
  long run_cycles(long cycles);
  /// Total machine cycles since reset.
  long cycle_count() const { return cycles_; }

  void reset();

  // ---- register access (tests / monitoring) -----------------------------
  std::uint16_t pc() const { return pc_; }
  void set_pc(std::uint16_t pc) { pc_ = pc; }
  std::uint8_t acc() const { return sfr_raw(sfr::ACC); }
  std::uint8_t psw() const { return sfr_raw(sfr::PSW); }
  std::uint8_t reg(int n) const;          ///< R0..R7 of the active bank
  std::uint8_t iram(std::uint8_t a) const { return iram_[a]; }
  void set_iram(std::uint8_t a, std::uint8_t v) { iram_[a] = v; }
  bool carry() const { return (psw() >> 7) & 1; }

  /// Direct SFR access from the outside (monitor / tests).
  std::uint8_t read_sfr(std::uint8_t addr) { return sfr_read(addr); }
  void write_sfr(std::uint8_t addr, std::uint8_t v) { sfr_write(addr, v); }

  // ---- platform attachment ----------------------------------------------
  void attach_sfr_device(SfrDevice* dev) { sfr_devices_.push_back(dev); }
  void set_xdata_bus(XdataBus* bus) { xdata_ = bus; }

  /// Serial-port host hooks: on_tx fires when the UART finishes sending a
  /// byte; inject_rx delivers one received byte (REN must be set).
  void set_on_tx(std::function<void(std::uint8_t)> cb) { on_tx_ = std::move(cb); }
  bool inject_rx(std::uint8_t byte);

  /// 9-bit reception for modes 2/3 (RS485 multiprocessor operation):
  /// `bit9` lands in RB8. With SM2 set, frames whose 9th bit is 0 are
  /// dropped silently (address filtering) — the call still returns true
  /// because the wire delivered the frame.
  bool inject_rx9(std::uint8_t byte, bool bit9);

  /// TB8 value attached to the byte most recently passed to on_tx (modes
  /// 2/3; always false in mode 1).
  bool last_tx_bit9() const { return last_tx_bit9_; }

  /// External interrupt pins (INT0/INT1, active level/edge per TCON).
  void set_int0(bool asserted) { int0_pin_ = asserted; }
  void set_int1(bool asserted) { int1_pin_ = asserted; }

  /// True when the CPU executed an instruction that looped to itself
  /// (SJMP $) — the conventional firmware "done/idle" marker.
  bool halted() const { return halted_; }

  /// Fault injection: crash the core. Time and peripherals keep running but
  /// no instruction executes (and no watchdog kick happens) until reset() —
  /// the fault the watchdog exists to catch.
  void jam() { jammed_ = true; }
  bool jammed() const { return jammed_; }

  /// Attach an execution profiler (null detaches). The core reports every
  /// retired instruction and interrupt dispatch; the profiler never feeds
  /// back, so firmware behaviour is unchanged.
  void set_profiler(obs::McuProfiler* profiler) { profiler_ = profiler; }
  obs::McuProfiler* profiler() const { return profiler_; }

  /// Architectural state for checkpoint/restore. Attached buses, devices and
  /// hooks are wiring, not state — the restorer re-attaches them.
  void serialize_state(StateArchive& ar) {
    code_.serialize(ar, "code");
    ar.bytes(iram_.data(), iram_.size());
    ar.bytes(sfrs_.data(), sfrs_.size());
    ar.value(pc_);
    std::int64_t cyc = cycles_;
    ar.value(cyc);
    cycles_ = static_cast<long>(cyc);
    ar.value(halted_);
    ar.value(jammed_);
    ar.value(in_isr_low_);
    ar.value(in_isr_high_);
    ar.value(int0_pin_);
    ar.value(int1_pin_);
    ar.value(int0_prev_);
    ar.value(int1_prev_);
    std::int32_t txc = tx_countdown_;
    ar.value(txc);
    tx_countdown_ = txc;
    ar.value(tx_shift_);
    ar.value(tx_shift_bit9_);
    ar.value(last_tx_bit9_);
    ar.value(rx_buf_);
  }

 private:
  // Memory spaces. Code reads as zeros (NOP) until firmware is written.
  FillMemory<std::uint8_t> code_{65536, 0};
  std::array<std::uint8_t, 256> iram_{};
  std::array<std::uint8_t, 128> sfrs_{};  // 0x80..0xFF backing store

  XdataBus* xdata_ = nullptr;
  std::vector<SfrDevice*> sfr_devices_;
  std::function<void(std::uint8_t)> on_tx_;

  std::uint16_t pc_ = 0;
  long cycles_ = 0;
  bool halted_ = false;
  bool jammed_ = false;
  obs::McuProfiler* profiler_ = nullptr;

  // Interrupt bookkeeping.
  bool in_isr_low_ = false, in_isr_high_ = false;
  bool int0_pin_ = false, int1_pin_ = false;
  bool int0_prev_ = false, int1_prev_ = false;

  // Serial engine.
  int tx_countdown_ = -1;
  std::uint8_t tx_shift_ = 0;
  bool tx_shift_bit9_ = false;
  bool last_tx_bit9_ = false;
  std::uint8_t rx_buf_ = 0;

  // ---- helpers -----------------------------------------------------------
  std::uint8_t sfr_raw(std::uint8_t addr) const { return sfrs_[addr - 0x80]; }
  void sfr_raw_set(std::uint8_t addr, std::uint8_t v) { sfrs_[addr - 0x80] = v; }

  std::uint8_t sfr_read(std::uint8_t addr);
  void sfr_write(std::uint8_t addr, std::uint8_t value);

  std::uint8_t direct_read(std::uint8_t addr);
  void direct_write(std::uint8_t addr, std::uint8_t value);

  bool bit_read(std::uint8_t bit_addr);
  void bit_write(std::uint8_t bit_addr, bool value);

  std::uint8_t fetch() { return code_[pc_++]; }
  std::uint16_t dptr() const;
  void set_dptr(std::uint16_t v);

  std::uint8_t a() const { return sfr_raw(sfr::ACC); }
  void set_a(std::uint8_t v) { sfr_raw_set(sfr::ACC, v); }

  std::uint8_t reg_addr(int n) const;
  std::uint8_t r(int n) { return iram_[reg_addr(n)]; }
  void set_r(int n, std::uint8_t v) { iram_[reg_addr(n)] = v; }

  void push(std::uint8_t v);
  std::uint8_t pop();

  void set_flag(int bit, bool v);
  bool flag(int bit) const { return (psw() >> bit) & 1; }

  void do_add(std::uint8_t operand, bool with_carry);
  void do_subb(std::uint8_t operand);
  void update_parity();

  std::uint8_t xdata_read(std::uint16_t addr);
  void xdata_write(std::uint16_t addr, std::uint8_t value);

  void tick_peripherals(int machine_cycles);
  void tick_timer(int idx, int cycles);
  bool service_interrupts();
  void jump_to_isr(std::uint16_t vector, bool high_priority);

  int execute();  ///< decode+execute one instruction, returns cycles
};

}  // namespace ascp::mcu
