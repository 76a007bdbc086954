// selftest — checks the ledger's own statistics, bound rule and JSON.
//
// Reference quartiles come from Python's statistics.quantiles(v, n=4), the
// rule the run-to-run spread check is defined by. Exit status 0 when every
// check passes, 1 otherwise. Run with `run.sh selftest`.
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "ledger.hpp"

using namespace ledger;

namespace {

int g_failed = 0;
int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(x) check((x), #x, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void percentile_rule() {
  CHECK(rank_index(100, 99.0) == 98);
  CHECK(rank_index(1000, 99.0) == 989);
  CHECK(rank_index(10, 50.0) == 4);
  CHECK(rank_index(11, 50.0) == 5);
  CHECK(rank_index(7, 100.0) == 6);
  CHECK(rank_index(7, 0.1) == 0);
  CHECK(throws([] { (void)rank_index(0, 50.0); }));

  // p99 needs 1000 samples: ten beyond its rank.
  CHECK(!percentile(iota(999), 99.0).has_value());
  CHECK(percentile(iota(1000), 99.0) == 990.0);
  // Order of the input does not matter.
  std::vector<double> rev = iota(1000);
  std::reverse(rev.begin(), rev.end());
  CHECK(percentile(rev, 99.0) == 990.0);
  // p50 with 20 samples has exactly ten beyond it; with 19 it is refused.
  CHECK(percentile(iota(20), 50.0) == 10.0);
  CHECK(!percentile(iota(19), 50.0).has_value());
  CHECK(percentile(iota(3), 50.0, 1) == 2.0);
  CHECK(!percentile({}, 50.0).has_value());

  CHECK(median(iota(5)) == 3.0);
  CHECK(median(iota(4)) == 2.5);
  CHECK(throws([] { (void)median({}); }));
}

void quartile_rule() {
  auto q = quartiles(iota(10));
  CHECK(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
  q = quartiles({1.0, 2.0});
  CHECK(near(q[0], 0.75) && near(q[1], 1.5) && near(q[2], 2.25));
  q = quartiles({5.0, 1.0, 4.0, 2.0, 3.0});
  CHECK(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5));
  q = quartiles({3.5, 1.25, 9.0, 7.75, 2.0, 6.5, 4.0, 8.25, 5.5, 0.5});
  CHECK(near(q[0], 1.8125) && near(q[1], 4.75) && near(q[2], 7.875));
  CHECK(throws([] { (void)quartiles({1.0}); }));
  CHECK(near(spread(iota(10)), (8.25 - 2.75) / 5.5));
}

void bound_rule() {
  // Lower is better: a rise is a regression.
  CHECK(near(worse_by(10.0, 11.0, Better::Lower), 0.1));
  CHECK(near(worse_by(10.0, 9.0, Better::Lower), -0.1));
  CHECK(!regressed(10.0, 11.0, Better::Lower, 0.10));
  CHECK(regressed(10.0, 11.01, Better::Lower, 0.10));
  CHECK(!regressed(10.0, 5.0, Better::Lower, 0.10));
  // Higher is better: a drop is a regression.
  CHECK(near(worse_by(10.0, 9.0, Better::Higher), 0.1));
  CHECK(!regressed(10.0, 9.0, Better::Higher, 0.10));
  CHECK(regressed(10.0, 8.99, Better::Higher, 0.10));
  CHECK(!regressed(10.0, 20.0, Better::Higher, 0.10));
  CHECK(throws([] { (void)worse_by(0.0, 1.0, Better::Lower); }));
  CHECK(parse_better("lower") == Better::Lower);
  CHECK(parse_better("higher") == Better::Higher);
  CHECK(!parse_better("up").has_value());
}

void json_emitter() {
  CHECK(valid_name("channel_s_per_s"));
  CHECK(valid_name("engine.pool_efficiency"));
  CHECK(valid_name("9-lives_v1.2"));
  CHECK(!valid_name(""));
  CHECK(!valid_name(".hidden"));
  CHECK(!valid_name("_x"));
  CHECK(!valid_name("a b"));
  CHECK(!valid_name("a/b"));
  CHECK(!valid_name("a\"b"));
  CHECK(!valid_name("caf\xc3\xa9"));
  CHECK(valid_name(std::string(64, 'x')));
  CHECK(!valid_name(std::string(65, 'x')));

  CHECK(result_line(true, 3, 0, {{"x", 1.5, "ms"}}) ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
  CHECK(result_line(false, 1, 1, {}) ==
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}");
  // Units are escaped; names are refused rather than escaped.
  CHECK(metrics_object({{"u", 2.0, "a\"b\\c\n\x01"}}) ==
        "{\"u\": {\"value\": 2, \"unit\": \"a\\\"b\\\\c\\n\\u0001\"}}");
  CHECK(throws([] { (void)metrics_object({{"bad name", 1.0, "s"}}); }));
  CHECK(throws([] {
    (void)metrics_object({{"nan", std::numeric_limits<double>::quiet_NaN(), "s"}});
  }));
  CHECK(throws([] {
    (void)metrics_object({{"inf", std::numeric_limits<double>::infinity(), "s"}});
  }));

  // Numbers keep every digit: the text reads back as the same double.
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -2.5e17}) {
    const std::string t = number(v);
    CHECK(std::strtod(t.c_str(), nullptr) == v);
  }
  CHECK(number(0.1) == "0.1");

  // The reader takes back what the emitter wrote.
  const Json j = parse_json(result_line(true, 7, 2, {{"a.b", 1.0 / 3.0, "1/s"}}));
  const Json* m = j.find("metrics") ? j.find("metrics")->find("a.b") : nullptr;
  CHECK(j.find("correct") && j.find("correct")->boolean);
  CHECK(j.find("attempted") && j.find("attempted")->num == 7.0);
  CHECK(m && m->find("value") && m->find("value")->num == 1.0 / 3.0);
  CHECK(m && m->find("unit") && m->find("unit")->str == "1/s");
  CHECK(parse_json("[1, \"a\\u0041\", null, {}]").arr.size() == 4);
  CHECK(parse_json("\"a\\u0041\"").str == "aA");
  CHECK(throws([] { (void)parse_json("{\"a\": 1"); }));
  CHECK(throws([] { (void)parse_json("{} x"); }));
  CHECK(throws([] { (void)parse_json("[nul]"); }));
}

}  // namespace

int main() {
  percentile_rule();
  quartile_rule();
  bound_rule();
  json_emitter();
  std::printf("ledger selftest: %d/%d checks passed\n", g_checks - g_failed, g_checks);
  return g_failed ? 1 : 0;
}
