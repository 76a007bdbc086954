// cache_ctrl.hpp — cache controller for big external RAM (paper Fig. 4).
//
// §4.2: "ROM/RAM memories and cache controller … the cache (which is
// conceived to access big external RAM with a custom 2-wire protocol)".
// The controller sits on the 8051 SFR bus and fronts an external memory
// larger than the 64 KB XDATA space. It is a direct-mapped, write-through
// cache; the serial 2-wire link makes misses expensive, which is exactly
// what the cache exists to hide.
//
// SFR map (five registers on the SFR bus):
//   CBANK  — external-address bits 23..16
//   CAHI   — external-address bits 15..8
//   CALO   — external-address bits 7..0
//   CDATA  — read/write at the composed address; post-increments CALO/CAHI
//   CSTAT  — bit0: last access missed; write any value to reset statistics
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcu/core8051.hpp"
#include "mcu/fill_memory.hpp"

namespace ascp::mcu {

struct CacheConfig {
  std::uint8_t sfr_base = 0xA1;     ///< CBANK; the next four SFRs follow
  std::size_t external_bytes = 128 * 1024;
  int lines = 16;                   ///< direct-mapped line count (power of 2)
  int line_bytes = 16;              ///< bytes per line (power of 2)
  long miss_penalty_cycles = 34;    ///< 2-wire fill: 2 bits/byte + handshake
};

class CacheController : public SfrDevice {
 public:
  explicit CacheController(const CacheConfig& cfg = {});

  // ---- SfrDevice -----------------------------------------------------------
  bool owns(std::uint8_t addr) const override;
  std::uint8_t read(std::uint8_t addr) override;
  void write(std::uint8_t addr, std::uint8_t value) override;

  // ---- host-side (factory programming / verification) -----------------------
  void load(std::uint32_t addr, const std::vector<std::uint8_t>& data);
  std::uint8_t peek(std::uint32_t addr) const;

  // ---- statistics ------------------------------------------------------------
  long hits() const { return hits_; }
  long misses() const { return misses_; }
  /// Cycles the 2-wire link has cost so far (miss count × penalty).
  long stall_cycles() const { return misses_ * cfg_.miss_penalty_cycles; }
  void reset_stats() { hits_ = misses_ = 0; }

  const CacheConfig& config() const { return cfg_; }

  void serialize_state(StateArchive& ar) {
    external_.serialize_counted(ar, "cache external RAM");
    ar.value(data_);
    const std::size_t line_store = static_cast<std::size_t>(cfg_.lines) * cfg_.line_bytes;
    if (data_.size() != line_store)
      throw StateError("checkpoint cache line store size " + std::to_string(data_.size()) +
                       " differs from the configured " + std::to_string(line_store));
    for (auto& t : tags_) ar.value(t);
    ar.value(bank_);
    ar.value(ahi_);
    ar.value(alo_);
    ar.value(last_missed_);
    std::int64_t h = hits_, m = misses_;
    ar.value(h);
    ar.value(m);
    hits_ = static_cast<long>(h);
    misses_ = static_cast<long>(m);
  }

 private:
  std::uint32_t address() const;
  void post_increment();
  std::uint8_t* lookup(std::uint32_t addr);  ///< cached byte (fills on miss)

  CacheConfig cfg_;
  FillMemory<std::uint8_t> external_;  ///< erased (0xFF) until written
  std::vector<std::uint8_t> data_;   ///< lines × line_bytes
  std::vector<std::int64_t> tags_;   ///< -1 = invalid
  std::uint8_t bank_ = 0, ahi_ = 0, alo_ = 0;
  bool last_missed_ = false;
  long hits_ = 0, misses_ = 0;
};

}  // namespace ascp::mcu
