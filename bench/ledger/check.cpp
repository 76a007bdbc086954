// check.cpp — perf_ledger --check: medians of several runs against a baseline.
//
//   perf_ledger --check --bounds BENCHMARK.json --baseline baseline.json RUN.json...
//       For every workload in the runs: the median of each metric, compared
//       with the baseline median under the bound and direction BENCHMARK.json
//       gives each end-to-end metric; a metric whose runs spread (quartile
//       distance over median) wider than its bound is reported unresolved.
//       Names the end-to-end metric and the per-layer metric that moved most
//       (by relative change, leaving out percentages and timings under 10 ns).
//       Exit 1 on a regression or on any run that failed its correctness
//       checks.
//   perf_ledger --check --write-baseline FILE RUN.json...
//       Write the runs' medians (and every run's value) as a new baseline.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/utsname.h>
#include <vector>

#include "ledger.hpp"

using namespace ledger;

namespace {

Json load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return parse_json(ss.str());
}

const Json& member(const Json& j, const char* key, const std::string& where) {
  const Json* v = j.find(key);
  if (!v) throw std::runtime_error(where + ": missing \"" + key + "\"");
  return *v;
}

/// Per workload, per section ("end_to_end" / "per_layer"), per metric: the
/// values of every run and the unit.
struct Series {
  std::string unit;
  std::vector<double> values;
};
using Section = std::map<std::string, Series>;
struct WorkloadRuns {
  std::map<std::string, Section> sections;
  int runs = 0;
  int incorrect = 0;
};

void add_section(const Json& run, const char* name, WorkloadRuns& wr, const std::string& where) {
  const Json* sec = run.find(name);
  if (!sec) return;
  for (const auto& [metric, v] : sec->obj) {
    Series& s = wr.sections[name][metric];
    s.unit = member(v, "unit", where).str;
    s.values.push_back(member(v, "value", where).num);
  }
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

int write_baseline(const std::string& path, const std::map<std::string, WorkloadRuns>& all) {
  utsname u{};
  uname(&u);
  std::string js = "{\"note\": \"medians of perf_ledger runs; regenerate with run.sh baseline\",\n"
                   " \"host\": {\"cpu\": \"" + ascp::obs::json_escape(cpu_model()) +
                   "\", \"machine\": \"" + ascp::obs::json_escape(u.machine) + "\"},\n"
                   " \"workloads\": {";
  bool first_w = true;
  for (const auto& [w, wr] : all) {
    js += std::string(first_w ? "" : ",") + "\n  \"" + w + "\": {\"runs\": " +
          std::to_string(wr.runs);
    first_w = false;
    for (const auto& [sec, metrics] : wr.sections) {
      js += ",\n   \"" + sec + "\": {";
      bool first_m = true;
      for (const auto& [name, s] : metrics) {
        js += std::string(first_m ? "" : ",") + "\n    \"" + name + "\": {\"value\": " +
              number(median(s.values)) + ", \"unit\": \"" + ascp::obs::json_escape(s.unit) +
              "\", \"runs\": [";
        first_m = false;
        for (std::size_t i = 0; i < s.values.size(); ++i)
          js += (i ? ", " : "") + number(s.values[i]);
        js += "]}";
      }
      js += "}";
    }
    js += "}";
  }
  js += "\n }\n}\n";
  std::ofstream f(path, std::ios::binary);
  f << js;
  if (!f) {
    std::fprintf(stderr, "perf_ledger --check: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu workloads)\n", path.c_str(), all.size());
  return 0;
}

}  // namespace

int run_check(int argc, char** argv) {
  std::string bounds_path, baseline_path, write_path;
  std::vector<std::string> runs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--bounds" && i + 1 < argc) bounds_path = argv[++i];
    else if (a == "--baseline" && i + 1 < argc) baseline_path = argv[++i];
    else if (a == "--write-baseline" && i + 1 < argc) write_path = argv[++i];
    else runs.push_back(a);
  }
  if (runs.empty() || (write_path.empty() && (bounds_path.empty() || baseline_path.empty()))) {
    std::fprintf(stderr,
                 "usage: perf_ledger --check --bounds BENCHMARK.json --baseline FILE RUN.json...\n"
                 "       perf_ledger --check --write-baseline FILE RUN.json...\n");
    return 2;
  }

  try {
    std::map<std::string, WorkloadRuns> all;
    for (const auto& path : runs) {
      const Json run = load(path);
      WorkloadRuns& wr = all[member(run, "workload", path).str];
      ++wr.runs;
      if (!member(run, "correct", path).boolean) ++wr.incorrect;
      // A traced run's own end-to-end figures cover half its frames; only
      // its per-layer figures count.
      if (member(run, "trace", path).num != 0.0)
        add_section(run, "per_layer", wr, path);
      else
        add_section(run, "end_to_end", wr, path);
    }
    if (!write_path.empty()) return write_baseline(write_path, all);

    const Json bounds = load(bounds_path);
    const Json baseline = load(baseline_path);
    const Json& base_w = member(baseline, "workloads", baseline_path);
    bool ok = true;
    for (const auto& [w, wr] : all) {
      std::printf("== %s: %d run(s) vs baseline ==\n", w.c_str(), wr.runs);
      if (wr.incorrect) {
        std::printf("  FAIL %d run(s) failed their correctness checks\n", wr.incorrect);
        ok = false;
      }
      const Json* bw = base_w.find(w);
      if (!bw) {
        std::printf("  (no baseline for this workload)\n");
        continue;
      }
      std::string e2e_most, layer_most;
      double e2e_move = 0.0, layer_move = 0.0;
      std::printf("  %-24s %14s %14s %9s %7s %7s\n", "metric", "baseline", "median", "worse by",
                  "bound", "spread");
      for (const Json& spec : member(bounds, "end_to_end", bounds_path).arr) {
        const std::string name = member(spec, "name", bounds_path).str;
        const auto better = parse_better(member(spec, "better", bounds_path).str);
        const double bound = member(spec, "bound", bounds_path).num;
        const Json* be = bw->find("end_to_end");
        const Json* bm = be ? be->find(name) : nullptr;
        const auto sec = wr.sections.find("end_to_end");
        if (!better || !bm || sec == wr.sections.end() || !sec->second.count(name)) continue;
        const std::vector<double>& values = sec->second.at(name).values;
        const double base = member(*bm, "value", baseline_path).num;
        const double cur = median(values);
        const double worse = worse_by(base, cur, *better);
        // Runs that spread wider than the bound cannot tell a regression from
        // noise: the metric is unresolved rather than passed or failed.
        const double sp = values.size() >= 2 ? spread(values) : 0.0;
        const bool unresolved = sp > bound;
        const bool bad = !unresolved && regressed(base, cur, *better, bound);
        ok = ok && !bad;
        std::printf("  %-24s %14.6g %14.6g %8.1f%% %6.0f%% %6.1f%%%s\n", name.c_str(), base, cur,
                    100.0 * worse, 100.0 * bound, 100.0 * sp,
                    bad ? "  REGRESSED" : unresolved ? "  unresolved" : "");
        if (std::fabs(worse) > std::fabs(e2e_move)) {
          e2e_move = worse;
          e2e_most = name;
        }
      }
      const auto sec = wr.sections.find("per_layer");
      const Json* bl = bw->find("per_layer");
      if (sec != wr.sections.end() && bl) {
        for (const auto& [name, s] : sec->second) {
          const Json* bm = bl->find(name);
          if (!bm) continue;
          const double base = member(*bm, "value", baseline_path).num;
          // A relative change of a percentage means nothing, and timings
          // under 10 ns move by more than themselves from run to run.
          if (base == 0.0 || s.unit == "%" || (s.unit == "ns" && std::fabs(base) < 10.0))
            continue;
          const double change = median(s.values) / base - 1.0;
          if (std::fabs(change) > std::fabs(layer_move)) {
            layer_move = change;
            layer_most = name;
          }
        }
      }
      if (!e2e_most.empty())
        std::printf("  moved most: end-to-end %s (%+.1f%% worse)", e2e_most.c_str(),
                    100.0 * e2e_move);
      if (!layer_most.empty())
        std::printf("; per-layer %s (%+.1f%%)", layer_most.c_str(), 100.0 * layer_move);
      std::printf("\n");
    }
    std::printf("check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger --check: %s\n", e.what());
    return 2;
  }
}
