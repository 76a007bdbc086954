// ledger.hpp — the ledger's own statistics, bound checks and JSON.
//
// Everything perf_ledger concludes from its samples goes through here, so
// selftest.cpp can pin the rules:
//   * percentiles use the nearest-rank index ceil(p/100·n) − 1, and a
//     percentile is refused unless at least kMinBeyond samples lie above it
//     (a p99 needs ≥ 1000 samples);
//   * quartiles follow Python's statistics.quantiles(n=4) ("exclusive"), the
//     rule the run-to-run spread check uses;
//   * a metric regresses when it is worse than the baseline by more than its
//     bound, in the metric's own direction;
//   * the result line is one JSON object with validated metric names.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/export.hpp"

namespace ledger {

/// Samples that must lie beyond a reported percentile.
constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index of percentile `p` (0 < p <= 100) among `n` sorted samples.
inline std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("rank_index: no samples");
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  if (r <= 1.0) return 0;
  return std::min(n, static_cast<std::size_t>(r)) - 1;
}

/// The p-th percentile of `v`, or nullopt when fewer than `min_beyond`
/// samples lie above its rank.
inline std::optional<double> percentile(std::vector<double> v, double p,
                                        std::size_t min_beyond = kMinBeyond) {
  if (v.empty()) return std::nullopt;
  const std::size_t k = rank_index(v.size(), p);
  if (v.size() - (k + 1) < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// Median (mean of the two middle samples for even counts).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median: no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Q1, Q2, Q3 exactly as Python's statistics.quantiles(v, n=4) computes them
/// (method "exclusive", which needs at least two samples).
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles: need at least two samples");
  std::sort(v.begin(), v.end());
  const long n = 4;
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return q;
}

/// Inter-quartile distance as a share of the median.
inline double spread(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return (q[2] - q[0]) / median(v);
}

enum class Better { Lower, Higher };

inline std::optional<Better> parse_better(std::string_view s) {
  if (s == "lower") return Better::Lower;
  if (s == "higher") return Better::Higher;
  return std::nullopt;
}

/// Share of `base` by which `current` is worse (negative when better).
inline double worse_by(double base, double current, Better better) {
  if (base == 0.0) throw std::invalid_argument("worse_by: zero baseline");
  const double d = (current - base) / std::fabs(base);
  return better == Better::Lower ? d : -d;
}

inline bool regressed(double base, double current, Better better, double bound) {
  return worse_by(base, current, better) > bound;
}

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-'; at most 64.
inline bool valid_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  return std::all_of(s.begin(), s.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`.
inline std::string number(double v) {
  char buf[32];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// `"metrics": {...}` body entries; throws on a bad name or a non-finite value.
inline std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_name(m.name)) throw std::invalid_argument("invalid metric name: " + m.name);
    if (!std::isfinite(m.value)) throw std::invalid_argument("non-finite metric: " + m.name);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           ascp::obs::json_escape(m.unit) + "\"}";
  }
  return out + "}";
}

/// The one-line result object every run ends its standard output with.
inline std::string result_line(bool correct, long attempted, long failed,
                               const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " +
         std::to_string(failed) + ", \"metrics\": " + metrics_object(metrics) + "}";
}

// ---- JSON reader (result files, baseline, BENCHMARK.json) -------------------

struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* find(std::string_view key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Json parse() {
    Json v = value(0);
    ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at offset " + std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected character");
  }
  bool literal(std::string_view w) {
    if (s_.substr(i_, w.size()) != w) return false;
    i_ += w.size();
    return true;
  }

  std::string string_body() {
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          const unsigned long cp = std::strtoul(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16);
          i_ += 4;
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json value(int depth) {
    if (depth > 64) fail("nesting too deep");
    ws();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.type = Json::Type::Object;
      if (eat('}')) return v;
      do {
        expect('"');
        std::string key = string_body();
        expect(':');
        v.obj.emplace_back(std::move(key), value(depth + 1));
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.type = Json::Type::Array;
      if (eat(']')) return v;
      do v.arr.push_back(value(depth + 1));
      while (eat(','));
      expect(']');
    } else if (c == '"') {
      ++i_;
      v.type = Json::Type::String;
      v.str = string_body();
    } else if (literal("true")) {
      v.type = Json::Type::Bool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Json::Type::Bool;
    } else if (literal("null")) {
    } else {
      const std::string rest(s_.substr(i_, std::min<std::size_t>(64, s_.size() - i_)));
      char* end = nullptr;
      v.num = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) fail("bad value");
      v.type = Json::Type::Number;
      i_ += static_cast<std::size_t>(end - rest.c_str());
    }
    return v;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

inline Json parse_json(std::string_view text) { return JsonParser(text).parse(); }

}  // namespace ledger
