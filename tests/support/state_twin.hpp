// state_twin.hpp — helpers for tests that compare a component against a
// twin built from the same config and seed and loaded from its state.
//
// A twin built fresh and loaded before every step holds none of the
// component's input-keyed coefficient caches (they are not serialized), so
// stepping both with the same inputs proves the caches invisible.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::state_twin {

/// The component's serialized state.
template <typename T>
std::vector<std::uint8_t> state_of(T& c) {
  StateArchive ar = StateArchive::saver();
  c.serialize_state(ar);
  return ar.take();
}

/// Load `bytes` (from state_of) into `c`.
template <typename T>
void load(T& c, const std::vector<std::uint8_t>& bytes) {
  StateArchive ar = StateArchive::loader(bytes);
  c.serialize_state(ar);
}

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Temperatures [°C] with repeats, both zeros and, near the end, NaNs (a
/// NaN temperature poisons the MEMS modal state for good).
inline const std::vector<double> kCacheTemps = {
    25.0, 25.0, 40.0, 40.0, 40.0, -0.0, 0.0,  -0.0,         -0.0,         0.0,
    -40.0, -40.0, 125.0, 25.0, 25.0, 85.0, std::nan(""), std::nan(""), 30.0, 30.0};

}  // namespace ascp::state_twin
