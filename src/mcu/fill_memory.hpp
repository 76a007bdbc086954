// fill_memory.hpp — a fixed-size memory that holds no storage until its
// first write.
//
// The paper's 8051 side carries memories that only the prototyping flow
// uses: program RAM "used as Program Storage" for download-and-execute and
// a 512 Kb SRAM "used during the prototyping phase" to capture chain nodes
// (§4.2), plus the code store, the cache's big external RAM and the boot
// EEPROM. A channel that runs no firmware never writes them. Each reads as
// its fill value (what it holds at power-on) until the first write, which
// allocates size() copies of the fill and stores into them.
//
// A memory saves its state, not its fill: a u64 saved length, one past the
// last value that differs from the fill, then that many values. The length
// is computed from the values, not from whether storage exists, so an
// untouched memory and one written with its own fill both save a length of
// 0. A restore of length 0 leaves the memory untouched (releasing storage
// it held), so a restored channel is as small as a new one.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::mcu {

template <typename T>
class FillMemory {
 public:
  FillMemory() = default;  ///< no addresses: an unmapped window
  FillMemory(std::size_t size, T fill) : size_(size), fill_(fill) {}

  std::size_t size() const { return size_; }
  /// True once a write has allocated the storage.
  bool allocated() const { return !data_.empty(); }

  /// The value at `i` (< size()).
  T operator[](std::size_t i) const { return data_.empty() ? fill_ : data_[i]; }

  /// Store `v` at `i` (< size()); the first write allocates the memory.
  void set(std::size_t i, T v) {
    if (data_.empty()) [[unlikely]]
      data_.assign(size_, fill_);
    data_[i] = v;
  }

  /// The saved length, then that many values. A load refuses a length
  /// above size() with an error naming the memory `what`; a length of 0
  /// releases the storage, and any other allocates the memory, reads that
  /// many values and leaves every later address at the fill.
  void serialize(StateArchive& ar, const char* what) {
    std::uint64_t n = ar.saving() ? saved_length() : 0;
    ar.value(n);
    if (!ar.saving()) {
      if (n > size_)
        throw StateError(std::string("checkpoint ") + what + " saved length " + std::to_string(n) +
                         " exceeds the configured " + std::to_string(size_));
      if (n == 0)
        data_ = std::vector<T>();  // releases the storage (`= {}` would keep it)
      else
        data_.assign(size_, fill_);
    }
    if (n == 0) return;
    if constexpr (std::is_same_v<T, std::uint8_t>)
      ar.bytes(data_.data(), n);  // one bulk copy
    else
      ar.values(data_.data(), n);
  }

  /// serialize() behind the u64 count StateArchive::value(std::vector&)
  /// writes. A load refuses any count but size(), naming the memory `what`:
  /// every access indexes the configured size.
  void serialize_counted(StateArchive& ar, const char* what) {
    std::uint64_t n = size_;
    ar.value(n);
    if (n != size_)
      throw StateError(std::string("checkpoint ") + what + " size " + std::to_string(n) +
                       " differs from the configured " + std::to_string(size_));
    serialize(ar, what);
  }

 private:
  /// One past the last value that differs from the fill; 0 when none does.
  /// Skips whole fill-valued blocks from the end (an OR of each block's
  /// differences, which the compiler vectorizes), then finishes inside the
  /// last block one value at a time.
  std::size_t saved_length() const {
    constexpr std::size_t kBlock = 64 / sizeof(T);
    std::size_t n = data_.size();
    for (; n >= kBlock; n -= kBlock) {
      T diff = 0;
      for (std::size_t i = n - kBlock; i < n; ++i) diff |= static_cast<T>(data_[i] ^ fill_);
      if (diff != 0) break;
    }
    while (n > 0 && data_[n - 1] == fill_) --n;
    return n;
  }

  std::size_t size_ = 0;
  T fill_{};
  std::vector<T> data_;  ///< empty until the first write
};

}  // namespace ascp::mcu
