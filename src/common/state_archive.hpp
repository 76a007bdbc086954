// state_archive.hpp — direction-tagged binary archive for bit-exact
// checkpoint/restore.
//
// Every stateful component implements one `serialize_state(StateArchive&)`
// member that lists its persistent fields once; the same statement sequence
// runs for save and load, so the two directions can never drift apart.
// Encoding is little-endian fixed-width; doubles round-trip through their
// IEEE-754 bit pattern, which is what makes a restored run bit-exact rather
// than merely close.
//
// Archives are section-framed: `begin_section("CHAN") … end_section()`
// brackets a component's fields with a fourcc tag and a byte length. On load
// the tag and length are verified, so a field added on one side of a
// save/load pair fails loudly (StateError) instead of silently shearing the
// byte stream. The framing also lets tools/ascp_tool walk a checkpoint
// without linking the whole platform.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ascp {

/// Any structural problem while loading: truncation, tag mismatch, length
/// disagreement, oversized counts. The message says what went wrong where.
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

class StateArchive {
 public:
  /// Save mode; the encoded bytes append to `prefix` (a container header
  /// the caller fills in once the payload is complete).
  static StateArchive saver(std::vector<std::uint8_t> prefix = {});
  static StateArchive loader(const std::uint8_t* data, std::size_t len);
  static StateArchive loader(const std::vector<std::uint8_t>& bytes);

  bool saving() const { return saving_; }

  // --- scalars (fixed-width little-endian) ------------------------------
  void value(bool& v);
  void value(std::uint8_t& v);
  void value(std::uint16_t& v);
  void value(std::uint32_t& v);
  void value(std::uint64_t& v);
  void value(std::int32_t& v);
  void value(std::int64_t& v);
  void value(double& v);

  /// Enums ride as u32 of their underlying value.
  template <typename E>
  void enum_value(E& e) {
    std::uint32_t raw = static_cast<std::uint32_t>(e);
    value(raw);
    if (!saving_) e = static_cast<E>(raw);
  }

  // --- raw buffers (bulk copy; for code/data memories) ------------------
  void bytes(std::uint8_t* p, std::size_t n);

  /// `n` contiguous fixed-width scalars, no count prefix: the same bytes as
  /// n value() calls, each element little-endian like value(), but with one
  /// buffer growth on save and one bounds check on load.
  template <typename T>
  void values(T* p, std::size_t n) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                  "values() takes fixed-width scalars; bool is range-checked by value()");
    using U = Bits<T>;
    static_assert(sizeof(U) == sizeof(T));
    if (saving_) {
      const std::size_t at = out_.size();
      out_.resize(at + n * sizeof(T));
      for (std::size_t i = 0; i < n; ++i) {
        U u;
        std::memcpy(&u, p + i, sizeof(U));
        store_le(u, out_.data() + at + i * sizeof(U));
      }
      pos_ += n * sizeof(T);
      size_ = out_.size();
    } else {
      const std::size_t fit = remaining() / sizeof(T);
      if (n > fit) {
        // Fail where the element-by-element read would: at the first
        // element that does not fit.
        pos_ += fit * sizeof(T);
        fail_truncated(sizeof(T));
      }
      for (std::size_t i = 0; i < n; ++i) {
        const U u = load_le<U>(in_ + pos_ + i * sizeof(U));
        std::memcpy(p + i, &u, sizeof(U));
      }
      pos_ += n * sizeof(T);
    }
  }

  // --- containers -------------------------------------------------------
  void value(std::vector<std::uint8_t>& v);
  void value(std::optional<double>& v);
  void value(std::deque<std::uint8_t>& v);

  template <typename T>
  void value(std::vector<T>& v) {
    std::uint64_t n = v.size();
    value(n);
    if (!saving_) {
      // Arithmetic elements encode at their full width; others (an
      // optional<double> takes 1 or 9 bytes) at no less than one byte.
      guard_count(n, std::is_arithmetic_v<T> ? sizeof(T) : 1);
      v.resize(static_cast<std::size_t>(n));
    }
    for (auto& e : v) value(e);
  }

  template <typename T, std::size_t N>
  void value(std::array<T, N>& v) {
    for (auto& e : v) value(e);
  }

  // --- section framing --------------------------------------------------
  void begin_section(const char* fourcc);
  void end_section();

  // --- terminal ---------------------------------------------------------
  /// Save mode: hand over the encoded bytes.
  std::vector<std::uint8_t> take();
  /// Load mode: true once every byte has been consumed.
  bool exhausted() const { return pos_ == size_; }
  /// Load mode: bytes left to read in the innermost open section (in the
  /// whole archive outside any). A decoded count must fit in these before
  /// it sizes an allocation.
  std::size_t remaining() const { return limit() - pos_; }

 private:
  explicit StateArchive(bool saving) : saving_(saving) {}

  /// The unsigned type whose little-endian bytes encode a T in values().
  template <typename T>
  using Bits = std::conditional_t<
      sizeof(T) == 1, std::uint8_t,
      std::conditional_t<sizeof(T) == 2, std::uint16_t,
                         std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>>>;

  std::size_t limit() const { return limits_.empty() ? size_ : limits_.back(); }
  // put/get run once per scalar (a 1.15 M-sample trace is 2.3 M doubles),
  // so they are inline; only the error path is out of line.
  void put(const std::uint8_t* p, std::size_t n) {
    out_.insert(out_.end(), p, p + n);
    pos_ += n;
    size_ = out_.size();
  }
  void get(std::uint8_t* p, std::size_t n) {
    if (pos_ + n > limit()) fail_truncated(n);
    std::memcpy(p, in_ + pos_, n);
    pos_ += n;
  }
  [[noreturn]] void fail_truncated(std::size_t n) const;
  /// Throws StateError unless `n` elements of at least `encoded_size` bytes
  /// each fit in remaining().
  void guard_count(std::uint64_t n, std::size_t encoded_size) const;

  /// The one encoding of an unsigned scalar: little-endian, whatever the
  /// host's byte order.
  template <typename U>
  static void store_le(U x, std::uint8_t* buf) {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf[i] = static_cast<std::uint8_t>(x & 0xFF);
      x = static_cast<U>(x >> 8);
    }
  }
  template <typename U>
  static U load_le(const std::uint8_t* buf) {
    U x = 0;
    for (std::size_t i = sizeof(U); i-- > 0;) x = static_cast<U>((x << 8) | buf[i]);
    return x;
  }

  template <typename U>
  void scalar(U& v) {
    std::uint8_t buf[sizeof(U)];
    if (saving_) {
      store_le(v, buf);
      put(buf, sizeof(U));
    } else {
      get(buf, sizeof(U));
      v = load_le<U>(buf);
    }
  }

  bool saving_;
  std::vector<std::uint8_t> out_;               // save mode
  const std::uint8_t* in_ = nullptr;            // load mode
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::vector<std::size_t> patch_;              // save: length-field offsets
  std::vector<std::size_t> limits_;             // load: section end offsets
};

}  // namespace ascp
