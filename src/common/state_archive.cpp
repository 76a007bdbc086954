#include "common/state_archive.hpp"

namespace ascp {

StateArchive StateArchive::saver(std::vector<std::uint8_t> prefix) {
  StateArchive ar(true);
  ar.out_ = std::move(prefix);
  return ar;
}

StateArchive StateArchive::loader(const std::uint8_t* data, std::size_t len) {
  StateArchive ar(false);
  ar.in_ = data;
  ar.size_ = len;
  return ar;
}

StateArchive StateArchive::loader(const std::vector<std::uint8_t>& bytes) {
  return loader(bytes.data(), bytes.size());
}

void StateArchive::fail_truncated(std::size_t n) const {
  throw StateError("archive truncated: need " + std::to_string(n) +
                   " bytes at offset " + std::to_string(pos_) + ", have " +
                   std::to_string(limit() - pos_));
}

void StateArchive::guard_count(std::uint64_t n, std::size_t encoded_size) const {
  // A corrupted length prefix must fail as StateError before it sizes an
  // allocation. Dividing the bytes left, rather than multiplying the count,
  // cannot overflow.
  if (n > remaining() / encoded_size)
    throw StateError("archive count " + std::to_string(n) +
                     " exceeds remaining bytes at offset " +
                     std::to_string(pos_));
}

void StateArchive::value(bool& v) {
  std::uint8_t b = v ? 1 : 0;
  scalar(b);
  if (!saving_) {
    if (b > 1)
      throw StateError("archive bool out of range at offset " +
                       std::to_string(pos_ - 1));
    v = (b != 0);
  }
}

void StateArchive::value(std::uint8_t& v) { scalar(v); }
void StateArchive::value(std::uint16_t& v) { scalar(v); }
void StateArchive::value(std::uint32_t& v) { scalar(v); }
void StateArchive::value(std::uint64_t& v) { scalar(v); }

void StateArchive::value(std::int32_t& v) {
  std::uint32_t u = static_cast<std::uint32_t>(v);
  scalar(u);
  if (!saving_) v = static_cast<std::int32_t>(u);
}

void StateArchive::value(std::int64_t& v) {
  std::uint64_t u = static_cast<std::uint64_t>(v);
  scalar(u);
  if (!saving_) v = static_cast<std::int64_t>(u);
}

void StateArchive::value(double& v) {
  // IEEE-754 bit pattern, not a decimal round-trip: restored state must be
  // the same 64 bits, or the replay hash diverges.
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  scalar(u);
  if (!saving_) std::memcpy(&v, &u, sizeof(v));
}

void StateArchive::bytes(std::uint8_t* p, std::size_t n) {
  if (saving_)
    put(p, n);
  else
    get(p, n);
}

void StateArchive::value(std::vector<std::uint8_t>& v) {
  std::uint64_t n = v.size();
  value(n);
  if (!saving_) {
    guard_count(n, 1);
    v.resize(static_cast<std::size_t>(n));
  }
  if (n) bytes(v.data(), static_cast<std::size_t>(n));
}

void StateArchive::value(std::optional<double>& v) {
  bool engaged = v.has_value();
  value(engaged);
  if (engaged) {
    double d = v.value_or(0.0);
    value(d);
    if (!saving_) v = d;
  } else if (!saving_) {
    v.reset();
  }
}

void StateArchive::value(std::deque<std::uint8_t>& v) {
  std::uint64_t n = v.size();
  value(n);
  if (!saving_) {
    guard_count(n, 1);
    v.resize(static_cast<std::size_t>(n));
  }
  for (auto& b : v) value(b);
}

void StateArchive::begin_section(const char* fourcc) {
  std::uint8_t tag[4];
  std::memcpy(tag, fourcc, 4);
  if (saving_) {
    put(tag, 4);
    patch_.push_back(out_.size());
    std::uint32_t placeholder = 0;
    value(placeholder);
  } else {
    std::uint8_t got[4];
    get(got, 4);
    if (std::memcmp(got, tag, 4) != 0)
      throw StateError(std::string("archive section mismatch: expected '") +
                       fourcc + "', found '" +
                       std::string(reinterpret_cast<char*>(got), 4) + "'");
    std::uint32_t len = 0;
    value(len);
    if (pos_ + len > limit())
      throw StateError(std::string("archive section '") + fourcc +
                       "' length " + std::to_string(len) +
                       " overruns the archive");
    limits_.push_back(pos_ + len);
  }
}

void StateArchive::end_section() {
  if (saving_) {
    const std::size_t at = patch_.back();
    patch_.pop_back();
    const std::uint32_t len = static_cast<std::uint32_t>(out_.size() - at - 4);
    out_[at + 0] = static_cast<std::uint8_t>(len & 0xFF);
    out_[at + 1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
    out_[at + 2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
    out_[at + 3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
  } else {
    const std::size_t end = limits_.back();
    limits_.pop_back();
    if (pos_ != end)
      throw StateError("archive section size mismatch: consumed to offset " +
                       std::to_string(pos_) + ", section ends at " +
                       std::to_string(end));
  }
}

std::vector<std::uint8_t> StateArchive::take() { return std::move(out_); }

}  // namespace ascp
