#include "mcu/cache_ctrl.hpp"

#include <algorithm>
#include <cassert>

namespace ascp::mcu {

CacheController::CacheController(const CacheConfig& cfg)
    : cfg_(cfg),
      external_(cfg.external_bytes, 0xFF),
      data_(static_cast<std::size_t>(cfg.lines) * cfg.line_bytes, 0),
      tags_(static_cast<std::size_t>(cfg.lines), -1) {
  assert((cfg.lines & (cfg.lines - 1)) == 0);
  assert((cfg.line_bytes & (cfg.line_bytes - 1)) == 0);
}

bool CacheController::owns(std::uint8_t addr) const {
  return addr >= cfg_.sfr_base && addr < cfg_.sfr_base + 5;
}

std::uint32_t CacheController::address() const {
  return (static_cast<std::uint32_t>(bank_) << 16 | static_cast<std::uint32_t>(ahi_) << 8 |
          alo_) %
         static_cast<std::uint32_t>(external_.size());
}

void CacheController::post_increment() {
  if (++alo_ == 0) {
    if (++ahi_ == 0) ++bank_;
  }
}

std::uint8_t* CacheController::lookup(std::uint32_t addr) {
  const std::uint32_t line_addr = addr / cfg_.line_bytes;
  const std::uint32_t index = line_addr % cfg_.lines;
  const auto tag = static_cast<std::int64_t>(line_addr / cfg_.lines);
  std::uint8_t* line = &data_[static_cast<std::size_t>(index) * cfg_.line_bytes];
  if (tags_[index] == tag) {
    last_missed_ = false;
    ++hits_;
  } else {
    last_missed_ = true;
    ++misses_;
    // Fill over the 2-wire link (write-through cache: no dirty write-back).
    const std::size_t from = static_cast<std::size_t>(line_addr) * cfg_.line_bytes;
    for (int i = 0; i < cfg_.line_bytes; ++i) line[i] = external_[from + i];
    tags_[index] = tag;
  }
  return &line[addr % cfg_.line_bytes];
}

std::uint8_t CacheController::read(std::uint8_t addr) {
  switch (addr - cfg_.sfr_base) {
    case 0: return bank_;
    case 1: return ahi_;
    case 2: return alo_;
    case 3: {
      const std::uint8_t v = *lookup(address());
      post_increment();
      return v;
    }
    case 4: return last_missed_ ? 1 : 0;
    default: return 0xFF;
  }
}

void CacheController::write(std::uint8_t addr, std::uint8_t value) {
  switch (addr - cfg_.sfr_base) {
    case 0: bank_ = value; break;
    case 1: ahi_ = value; break;
    case 2: alo_ = value; break;
    case 3: {
      const std::uint32_t a = address();
      *lookup(a) = value;
      external_.set(a, value);  // write-through over the 2-wire link
      post_increment();
      break;
    }
    case 4:
      hits_ = misses_ = 0;
      break;
    default:
      break;
  }
}

void CacheController::load(std::uint32_t addr, const std::vector<std::uint8_t>& data) {
  for (std::size_t i = 0; i < data.size(); ++i)
    external_.set((addr + i) % external_.size(), data[i]);
  // Backing store changed behind the cache: invalidate.
  std::fill(tags_.begin(), tags_.end(), -1);
}

std::uint8_t CacheController::peek(std::uint32_t addr) const {
  return external_[addr % external_.size()];
}

}  // namespace ascp::mcu
