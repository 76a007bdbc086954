// frame.hpp — the one framed-container codec behind every binary artifact
// the platform hands to a host: `.ckpt` channel checkpoints, `.strace`
// stimulus traces and `.blackbox` crash images.
//
// All three share one little-endian layout, so a reader can reject garbage
// before interpreting any of it:
//
//   offset  size  field
//   0       8     magic (format identity, e.g. "ASCPCKPT")
//   8       4     format version (u32)
//   12      m     meta: a u32 word, then — when m = 12 — a u64 word
//   12+m    8     payload length in format units (u64)
//   20+m    4     CRC-32 of the payload (crc32 below)
//   24+m    n     payload
//
// A constant Format descriptor per container records everything that
// differs: magic, version, the name its error messages carry, the meta
// width and the length unit. The payload codecs stay with their owners; the
// header writer, the bounds/version/CRC-checking reader, the non-throwing
// inspect and the file I/O live only here.
//
// Versioning rules, shared by every format: any payload-layout change bumps
// the owner's version, readers reject versions they do not know, and there
// is no cross-version migration — an image is a point-in-time artifact of
// one build, not an interchange format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::frame {

/// What distinguishes one framed container from another.
struct Format {
  const char* magic;      ///< exactly 8 bytes on disk, no terminator
  std::uint32_t version;  ///< the only version this build reads and writes
  const char* name;       ///< prefix of every error message: "<name> bad magic"
  std::size_t meta_size;  ///< 4 (u32 word) or 12 (u32 + u64 word)
  std::size_t unit;       ///< payload bytes per length unit

  constexpr std::size_t header_size() const { return 24 + meta_size; }
};

/// The per-format header words between version and length.
struct Meta {
  std::uint32_t word = 0;  ///< channel kind, or a trace's interpolation mode
  std::uint64_t wide = 0;  ///< a trace's sample-rate bit pattern (12-byte meta only)
};

/// A parsed header, as inspect() reports it.
struct Header {
  std::uint32_t version = 0;
  Meta meta;
  std::uint64_t length = 0;  ///< in format units
  std::uint32_t crc = 0;     ///< as stored
  bool crc_ok = false;       ///< payload present in full and matching crc
};

/// A validated image: its meta plus the payload, viewed in place.
struct Frame {
  Meta meta;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;  ///< payload bytes
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// Frame the payload `write` appends to the archive. The archive writes
/// straight behind a reserved header (reserve `size_hint` payload bytes when
/// known), so the image is the only copy of the payload and its CRC is
/// computed once.
std::vector<std::uint8_t> encode(const Format& f, const Meta& meta,
                                 const std::function<void(StateArchive&)>& write,
                                 std::size_t size_hint = 0);

/// Validate magic, version, length and CRC, and view the payload in place
/// (valid while `image` lives). Throws StateError "<name> truncated: no
/// header", "<name> bad magic", "<name> version N unsupported", "<name>
/// truncated: payload shorter than declared" or "<name> CRC mismatch:
/// payload corrupted".
Frame decode(const Format& f, const std::vector<std::uint8_t>& image);

/// Parse the header without throwing: false only when the image is too short
/// for a header or the magic is wrong. `out` may be null.
bool inspect(const Format& f, const std::vector<std::uint8_t>& image, Header* out);

/// Whole-file I/O; both throw StateError naming the path on failure.
std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

}  // namespace ascp::frame
