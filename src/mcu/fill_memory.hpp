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
// Saved bytes do not depend on whether the storage exists: an untouched
// memory saves size() copies of its fill, and a restore whose values all
// equal the fill leaves the memory untouched (releasing storage it held),
// so a restored channel is as small as a new one.
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

  /// size() values, the bytes StateArchive::values() writes for them.
  void serialize(StateArchive& ar) {
    if (ar.saving() && data_.empty()) {
      ar.repeat(fill_, size_);
    } else if (!ar.saving() && ar.skip_repeat(fill_, size_)) {
      data_ = std::vector<T>();  // releases the storage (`= {}` would keep it)
    } else {
      data_.resize(size_);
      if constexpr (std::is_same_v<T, std::uint8_t>)
        ar.bytes(data_.data(), size_);  // one bulk copy
      else
        ar.values(data_.data(), size_);
    }
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
    serialize(ar);
  }

 private:
  std::size_t size_ = 0;
  T fill_{};
  std::vector<T> data_;  ///< empty until the first write
};

}  // namespace ascp::mcu
