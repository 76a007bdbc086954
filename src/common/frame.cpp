#include "common/frame.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace ascp::frame {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return x;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

[[noreturn]] void fail(const Format& f, const std::string& what) {
  throw StateError(std::string(f.name) + " " + what);
}

Header read_header(const Format& f, const std::uint8_t* p) {
  Header h;
  h.version = get_u32(p + 8);
  h.meta.word = get_u32(p + 12);
  if (f.meta_size == 12) h.meta.wide = get_u64(p + 16);
  h.length = get_u64(p + 12 + f.meta_size);
  h.crc = get_u32(p + 20 + f.meta_size);
  return h;
}

/// Overflow-safe: compares in units, so a forged length can never wrap
/// header + length·unit past 2^64 into an over-read.
bool payload_present(const Format& f, const Header& h, std::size_t image_size) {
  return h.length <= (image_size - f.header_size()) / f.unit;
}

/// Slicing-by-8 tables: kCrc[0][b] is the CRC register after feeding byte
/// b through the reflected polynomial, and kCrc[k][b] advances that by k
/// more zero bytes, so eight bytes fold in with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  // Slicing-by-8 over 8 KB of tables. Per pass in a Release build on an
  // x86-64 Xeon VM: 0.19 ms for a 311 KB GyroFull checkpoint and 11.6 ms for
  // an 18.4 MB trace, against 4.1 ms and 243 ms for the bitwise loop it
  // replaced. The values are the same; tests/common/test_frame.cpp keeps
  // the bitwise loop as the reference.
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = get_u32(data) ^ crc;
    const std::uint32_t hi = get_u32(data + 4);
    crc = kCrc[7][lo & 0xFF] ^ kCrc[6][(lo >> 8) & 0xFF] ^ kCrc[5][(lo >> 16) & 0xFF] ^
          kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFF] ^ kCrc[2][(hi >> 8) & 0xFF] ^
          kCrc[1][(hi >> 16) & 0xFF] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; --len) crc = (crc >> 8) ^ kCrc[0][(crc ^ *data++) & 0xFF];
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode(const Format& f, const Meta& meta,
                                 const std::function<void(StateArchive&)>& write,
                                 std::size_t size_hint) {
  const std::size_t hs = f.header_size();
  std::vector<std::uint8_t> image;
  image.reserve(hs + size_hint);
  image.resize(hs);
  StateArchive ar = StateArchive::saver(std::move(image));
  write(ar);
  image = ar.take();

  const std::size_t n = image.size() - hs;
  std::uint8_t* p = image.data();
  std::memcpy(p, f.magic, 8);
  put_u32(p + 8, f.version);
  put_u32(p + 12, meta.word);
  if (f.meta_size == 12) put_u64(p + 16, meta.wide);
  put_u64(p + 12 + f.meta_size, n / f.unit);
  put_u32(p + 20 + f.meta_size, crc32(p + hs, n));
  return image;
}

Frame decode(const Format& f, const std::vector<std::uint8_t>& image) {
  if (image.size() < f.header_size()) fail(f, "truncated: no header");
  if (std::memcmp(image.data(), f.magic, 8) != 0) fail(f, "bad magic");
  const Header h = read_header(f, image.data());
  if (h.version != f.version) fail(f, "version " + std::to_string(h.version) + " unsupported");
  if (!payload_present(f, h, image.size())) fail(f, "truncated: payload shorter than declared");
  Frame out;
  out.meta = h.meta;
  out.payload = image.data() + f.header_size();
  out.size = static_cast<std::size_t>(h.length) * f.unit;
  if (crc32(out.payload, out.size) != h.crc) fail(f, "CRC mismatch: payload corrupted");
  return out;
}

bool inspect(const Format& f, const std::vector<std::uint8_t>& image, Header* out) {
  if (image.size() < f.header_size() || std::memcmp(image.data(), f.magic, 8) != 0)
    return false;
  Header h = read_header(f, image.data());
  h.crc_ok = payload_present(f, h, image.size()) &&
             crc32(image.data() + f.header_size(),
                   static_cast<std::size_t>(h.length) * f.unit) == h.crc;
  if (out) *out = h;
  return true;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (!fp) throw StateError("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, fp)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  const bool failed = std::ferror(fp) != 0;
  std::fclose(fp);
  if (failed) throw StateError("cannot read " + path);
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (!fp) throw StateError("cannot open " + path + " for writing");
  const std::size_t n = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), fp);
  if (std::fclose(fp) != 0 || n != bytes.size()) throw StateError("short write to " + path);
}

}  // namespace ascp::frame
