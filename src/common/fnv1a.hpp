// fnv1a.hpp — FNV-1a-64, the fingerprint behind every pinned output hash
// (channel output_hash(), the golden traces) and the container byte-layout
// pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ascp {

/// The standard FNV-1a-64 offset basis; the container byte-layout pins use it.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/// The basis of the channel output hash and the golden traces: the standard
/// value with its last digit missing. Every pinned output hash and corpus
/// hash was computed from it, so it stays as it is.
inline constexpr std::uint64_t kFnv1aOutputBasis = 1469598103934665603ull;

inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// Continue FNV-1a hash `h` over `n` bytes.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// Continue FNV-1a hash `h` over `n` doubles, each as the eight
/// little-endian bytes of its IEEE-754 bit pattern.
inline std::uint64_t fnv1a_doubles(std::uint64_t h, const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t u;
    std::memcpy(&u, &p[i], sizeof u);
    std::uint8_t le[8];
    for (int b = 0; b < 8; ++b) le[b] = static_cast<std::uint8_t>(u >> (8 * b));
    h = fnv1a_bytes(h, le, sizeof le);
  }
  return h;
}

}  // namespace ascp
