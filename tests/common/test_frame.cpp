// The framed-container codec on a toy format: header placement, in-place
// payload view, the five error messages, the overflow-safe length check,
// non-throwing inspect, file I/O, a CRC-32 known answer and the table CRC
// against a bitwise reference. The three real formats are pinned
// byte-for-byte in engine/test_frame_layout.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/frame.hpp"
#include "common/rng.hpp"

namespace ascp::frame {
namespace {

constexpr Format kToy{"TOYFRAME", 3, "toy", 12, 4};

std::vector<std::uint8_t> toy_image(std::uint32_t words = 3) {
  return encode(kToy, {7, 0x1122334455667788ull}, [words](StateArchive& ar) {
    for (std::uint32_t i = 0; i < words; ++i) ar.value(i);
  });
}

void set_length(std::vector<std::uint8_t>& image, std::uint64_t length) {
  const std::size_t at = kToy.header_size() - 12;
  for (int i = 0; i < 8; ++i) image[at + i] = static_cast<std::uint8_t>(length >> (8 * i));
}

std::string decode_error(const std::vector<std::uint8_t>& image) {
  try {
    decode(kToy, image);
  } catch (const StateError& e) {
    return e.what();
  }
  return "decoded";
}

/// The bitwise reflected CRC-32 the table-driven codec must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  Rng rng(seed);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64() >> 56);
  return v;
}

TEST(Frame, Crc32KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// Every length 0..64 from every start offset 0..7 covers each alignment of
// the 8-byte body and every tail length.
TEST(Frame, Crc32MatchesBitwiseReferenceAtEveryOffsetAndLength) {
  const auto buf = random_bytes(64 + 8, 13);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 64; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len), crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
}

TEST(Frame, Crc32MatchesBitwiseReferenceOnACheckpointSizedBuffer) {
  const auto buf = random_bytes(311 * 1024 + 5, 2026);
  EXPECT_EQ(crc32(buf.data(), buf.size()), crc32_bitwise(buf.data(), buf.size()));
}

TEST(Frame, HeaderPrecedesPayloadAndLengthCountsUnits) {
  const auto image = toy_image();
  ASSERT_EQ(image.size(), kToy.header_size() + 12);
  EXPECT_EQ(std::string(image.begin(), image.begin() + 8), "TOYFRAME");

  Header h;
  ASSERT_TRUE(inspect(kToy, image, &h));
  EXPECT_EQ(h.version, 3u);
  EXPECT_EQ(h.meta.word, 7u);
  EXPECT_EQ(h.meta.wide, 0x1122334455667788ull);
  EXPECT_EQ(h.length, 3u);
  EXPECT_EQ(h.crc, crc32(image.data() + kToy.header_size(), 12));
  EXPECT_TRUE(h.crc_ok);
}

TEST(Frame, DecodeViewsThePayloadInPlace) {
  const auto image = toy_image();
  const Frame f = decode(kToy, image);
  EXPECT_EQ(f.payload, image.data() + kToy.header_size());
  EXPECT_EQ(f.size, 12u);
  EXPECT_EQ(f.meta.word, 7u);
  StateArchive ar = StateArchive::loader(f.payload, f.size);
  std::uint32_t v = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ar.value(v);
    EXPECT_EQ(v, i);
  }
}

TEST(Frame, EachFailureHasItsOwnMessage) {
  const auto good = toy_image();

  auto short_header = good;
  short_header.resize(kToy.header_size() - 1);
  EXPECT_EQ(decode_error(short_header), "toy truncated: no header");

  auto magic = good;
  magic[0] = 'X';
  EXPECT_EQ(decode_error(magic), "toy bad magic");

  auto version = good;
  version[8] = 9;
  EXPECT_EQ(decode_error(version), "toy version 9 unsupported");

  auto truncated = good;
  truncated.pop_back();
  EXPECT_EQ(decode_error(truncated), "toy truncated: payload shorter than declared");

  auto flipped = good;
  flipped[kToy.header_size() + 5] ^= 0x01;
  EXPECT_EQ(decode_error(flipped), "toy CRC mismatch: payload corrupted");
}

// header + length·unit must never be formed: lengths that would wrap it past
// 2^64 (to a small number) read as truncation, and inspect reports a bad CRC
// without touching memory past the image.
TEST(Frame, ForgedLengthsReadAsTruncation) {
  for (const std::uint64_t forged : {~0ull, ~0ull - 8, (~0ull / 4) + 1, 4ull}) {
    auto image = toy_image();
    set_length(image, forged);
    EXPECT_EQ(decode_error(image), "toy truncated: payload shorter than declared") << forged;
    Header h;
    ASSERT_TRUE(inspect(kToy, image, &h));
    EXPECT_EQ(h.length, forged);
    EXPECT_FALSE(h.crc_ok);
  }
}

TEST(Frame, TrailingBytesBeyondTheDeclaredLengthAreIgnored) {
  auto image = toy_image();
  image.push_back(0xAA);
  EXPECT_EQ(decode(kToy, image).size, 12u);
}

TEST(Frame, InspectIsFalseOnlyForShortOrForeignImages) {
  const auto image = toy_image(0);
  EXPECT_TRUE(inspect(kToy, image, nullptr));
  EXPECT_FALSE(inspect(kToy, {image.begin(), image.end() - 1}, nullptr));
  auto foreign = image;
  foreign[7] = 'X';
  EXPECT_FALSE(inspect(kToy, foreign, nullptr));
}

TEST(Frame, FileRoundTripAndErrors) {
  const char* path = "frame_roundtrip_test.bin";
  const auto image = toy_image();
  write_file(path, image);
  EXPECT_EQ(read_file(path), image);
  std::remove(path);
  EXPECT_THROW(read_file(path), StateError);
  EXPECT_THROW(write_file("no_such_dir/frame.bin", image), StateError);
}

}  // namespace
}  // namespace ascp::frame
