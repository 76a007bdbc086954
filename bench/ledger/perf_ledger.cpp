// perf_ledger — end-to-end and per-layer benchmark of the platform simulator.
//
// One workload per process:
//   perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-out FILE] [--smoke] [--json FILE]
//   perf_ledger --check --bounds BENCHMARK.json --baseline FILE RUN.json...
//   perf_ledger --check --write-baseline FILE RUN.json...
//
// A run sets the workload up three times (construction, input generation
// and 0.25 sim-s of warm-up frames; setup_s is the median), then runs closed-loop
// frames for --seconds and checks every frame's outputs. With --trace 0 it
// reports the end-to-end metrics. With --trace 1 it alternates untraced and
// traced blocks (the difference is ledger.trace_overhead_pct), writes the
// traced spans as a Chrome trace, and replays the layers of the workload's
// reference channel (layers.hpp) to report the per-layer metrics.
// --smoke runs about one second with the same checks.
//
// Every metric is printed with its name and unit; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "workloads.hpp"

using namespace ledger;

int run_check(int argc, char** argv);  // check.cpp

namespace {

constexpr std::uint64_t kDefaultSeed = 2026;
constexpr int kSetups = 3;             ///< set-ups per run; setup_s is their median
constexpr double kBlockSeconds = 0.25;  ///< traced runs alternate blocks this long
constexpr long kP99Frames = 1000;       ///< a p99 needs ten frames beyond it
constexpr std::size_t kSpanCapacity = 1 << 16;

/// Folded output hashes of the first hash_frames() frames at seed 2026.
struct Pin {
  const char* workload;
  std::uint64_t hash;
};
constexpr Pin kPins[] = {
    {"hil_full", 0xeb5aa712c37747e0ull},
    {"sweep_ideal", 0x1b569529340a1debull},
    {"fleet_mixed", 0xb2854da44f6e1f04ull},
    {"ingest_replay", 0xbf2fcefb2b5c142dull},
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 12.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string json_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                   [--trace-out FILE] [--smoke] [--json FILE]\n"
               "       perf_ledger --check ...   (see check.cpp)\n"
               "workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (!end || *end) return false;
    } else if (a == "--seconds" && has) {
      o.seconds = std::atof(argv[++i]);
      if (!(o.seconds > 0.0 && o.seconds <= 120.0)) return false;
    } else if (a == "--trace" && has) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--trace-out" && has) {
      o.trace_out = argv[++i];
    } else if (a == "--json" && has) {
      o.json_out = argv[++i];
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

/// Peak resident set of this process image. /proc's VmHWM rather than
/// getrusage: ru_maxrss survives exec, so it would also count whatever
/// launched the benchmark.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double since(Tracer::Clock::time_point t0) {
  return std::chrono::duration<double>(Tracer::Clock::now() - t0).count();
}

struct Frame {
  double raw_s = 0.0;
  double channel_s = 0.0;
  double scale = 1.0;     ///< host-speed rescaling from the probes around it
  bool traced = false;
  std::size_t block = 0;  ///< traced runs: the alternating block it ran in
};

struct Run {
  Tally tally;
  std::uint64_t hash = 0;
  bool hash_taken = false;
  std::vector<Frame> frames;
};

/// One frame between two host-speed probes; `probe` carries the last probe
/// from one frame to the next.
void one_frame(Workload& w, Tracer& tr, HostSpeed& host, double& probe, Run& run, bool traced,
               std::size_t block) {
  w.prepare();
  const std::vector<double> mark = traced ? tr.mark() : std::vector<double>();
  const auto t0 = Tracer::Clock::now();
  {
    Tracer::Scope f(tr, "frame");
    w.frame(tr);
  }
  const double raw = since(t0);
  const double before = probe;
  probe = host.probe();
  const double scale = host.rescale(1.0, before, probe);
  if (traced) tr.rescale_since(mark, scale);
  run.frames.push_back({raw, w.channel_seconds_per_frame(), scale, traced, block});
  w.check_frame(run.tally);
  if (static_cast<long>(run.frames.size()) == w.hash_frames()) {
    run.hash = w.output_hash();
    run.hash_taken = true;
  }
}

/// End-to-end figures over a set of frames, each rescaled by `scale`.
struct Figures {
  double channel_s_per_s = 0.0;
  std::optional<double> p50_ms, p99_ms;
};

/// Throughput is the median over consecutive blocks of this many kept frames,
/// so a burst on the host moves a few blocks rather than the figure. A
/// multiple of the fleet's checkpoint interval: every block holds the same
/// mix of plain and checkpoint ticks.
constexpr std::size_t kRateBlockFrames = 40;

template <typename Scale, typename Keep>
Figures figures(const std::vector<Frame>& frames, Scale&& scale, Keep&& keep) {
  std::vector<double> ms, rates;
  double sim = 0.0, wall = 0.0, block_sim = 0.0, block_wall = 0.0;
  for (const Frame& f : frames) {
    if (!keep(f)) continue;
    const double s = f.raw_s * scale(f);
    ms.push_back(s * 1e3);
    wall += s;
    sim += f.channel_s;
    block_wall += s;
    block_sim += f.channel_s;
    if (ms.size() % kRateBlockFrames == 0) {
      rates.push_back(block_sim / block_wall);
      block_sim = block_wall = 0.0;
    }
  }
  Figures out;
  if (!rates.empty())
    out.channel_s_per_s = median(rates);
  else if (wall > 0)
    out.channel_s_per_s = sim / wall;
  out.p50_ms = percentile(ms, 50.0);
  out.p99_ms = percentile(ms, 99.0);
  return out;
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool write_text(const std::string& path, const std::string& text) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--check")) return run_check(argc - 1, argv + 1);
  Options o;
  if (!parse(argc, argv, o)) return usage();
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) return usage();
  if (o.smoke) o.seconds = 1.0;
  const int setups = o.smoke || o.trace ? 1 : kSetups;

  std::printf("perf_ledger: workload=%s seed=%llu seconds=%g mode=%s threads=%u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? "traced" : o.smoke ? "smoke" : "end-to-end", kWorkerThreads);

  // ---- set-up ------------------------------------------------------------------
  // Construction, then kWarmupSeconds of frames; each piece is timed between
  // host-speed probes, like the measured frames.
  HostSpeed host(host_sensitivity(o.workload));
  Tracer off, on;
  std::vector<double> setup_s, setup_raw;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < setups; ++r) {
    w.reset();
    double probe = host.probe(), raw = 0.0, rescaled = 0.0;
    const auto timed = [&](auto&& fn) {
      const auto t0 = Tracer::Clock::now();
      fn();
      const double s = since(t0), before = probe;
      probe = host.probe();
      raw += s;
      rescaled += host.rescale(s, before, probe);
    };
    timed([&] { w = make_workload(o.workload, o.seed); });
    const long warm_frames = std::lround(kWarmupSeconds / w->frame_seconds());
    for (long f = 0; f < warm_frames; ++f)
      timed([&] {
        w->prepare();
        w->frame(off);
      });
    setup_s.push_back(rescaled);
    setup_raw.push_back(raw);
  }

  // ---- measured window -----------------------------------------------------------
  Run run;
  ascp::obs::SpanLog spans(kSpanCapacity);
  const auto start = Tracer::Clock::now();
  const auto more = [&] {
    return !w->exhausted() &&
           (since(start) < o.seconds || static_cast<long>(run.frames.size()) < w->hash_frames());
  };
  // A traced run alternates untraced and traced blocks of frames.
  if (o.trace) on.enable(&spans);
  double probe = host.probe();
  for (std::size_t block = 0; more(); ++block) {
    const bool tracing = o.trace && block % 2 == 1;
    const auto b0 = Tracer::Clock::now();
    do one_frame(*w, tracing ? on : off, host, probe, run, tracing, block);
    while (more() && (!o.trace || since(b0) < kBlockSeconds));
  }
  w->final_check(run.tally);

  // ---- correctness -------------------------------------------------------------------
  std::string pin_state = "unpinned";
  if (!run.hash_taken) {
    run.tally.fail(1, "run ended before the hashed prefix");
  } else if (o.seed == kDefaultSeed) {
    for (const Pin& p : kPins)
      if (o.workload == p.workload) {
        pin_state = p.hash == run.hash ? "match" : "MISMATCH";
        if (p.hash != run.hash)
          run.tally.fail(w->hash_frames() * w->ops_per_frame(),
                         "output hash " + hex(run.hash) + " differs from the pinned " +
                             hex(p.hash));
      }
  }
  const bool correct = run.tally.failed == 0;
  const double error_rate =
      run.tally.attempted ? static_cast<double>(run.tally.failed) / run.tally.attempted : 0.0;

  // ---- end-to-end metrics -------------------------------------------------------------
  const auto rescale = [](const Frame& f) { return f.scale; };
  const auto untraced = [](const Frame& f) { return !f.traced; };
  const Figures fig = figures(run.frames, rescale, untraced);
  const Figures raw = figures(run.frames, [](const Frame&) { return 1.0; }, untraced);

  std::vector<Metric> e2e;
  e2e.push_back({"channel_s_per_s", fig.channel_s_per_s, "sim-s/s"});
  e2e.push_back({"frame_p50_ms", fig.p50_ms.value_or(0.0), "ms"});
  e2e.push_back({"setup_s", median(setup_s), "s"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  // The p99 is printed but not bounded: host hiccups shorter than a frame
  // move it by ~10 % between runs on sweep_ideal and ingest_replay.
  std::vector<Metric> info;
  if (fig.p99_ms) info.push_back({"frame_p99_ms", *fig.p99_ms, "ms"});
  info.push_back({"raw.channel_s_per_s", raw.channel_s_per_s, "sim-s/s"});
  info.push_back({"raw.frame_p50_ms", raw.p50_ms.value_or(0.0), "ms"});
  if (raw.p99_ms) info.push_back({"raw.frame_p99_ms", *raw.p99_ms, "ms"});
  info.push_back({"raw.setup_s", median(setup_raw), "s"});
  info.push_back({"host.median_slowdown", median(host.probes()) / kProbeReferenceSeconds, "ratio"});
  info.push_back({"host.probes", static_cast<double>(host.probes().size()), "count"});
  w->info(info);

  const long plain_frames = std::count_if(run.frames.begin(), run.frames.end(), untraced);
  std::printf("== end to end (%ld untraced frames; times rescaled to the unloaded host) ==\n",
              plain_frames);
  for (const Metric& x : e2e) print_metric(x);
  std::printf("== information ==\n");
  if (!fig.p99_ms)
    std::printf("  %-36s %16s  (fewer than %ld frames)\n", "frame_p99_ms", "n/a", kP99Frames);
  for (const Metric& x : info) print_metric(x);

  std::printf("== correctness ==\n");
  std::printf("  attempted %ld  failed %ld  error_rate %g  (%s)\n", run.tally.attempted,
              run.tally.failed, error_rate, w->ops_per_frame() > 1 ? "channel-ticks" : "frames");
  std::printf("  output hash %s over %ld frames (seed %llu: %s)\n", hex(run.hash).c_str(),
              w->hash_frames(), static_cast<unsigned long long>(o.seed), pin_state.c_str());
  for (const auto& p : run.tally.problems) std::printf("  FAIL %s\n", p.c_str());

  // ---- per-layer metrics (traced run) -------------------------------------------------
  std::vector<Metric> layer;
  if (o.trace) {
    EngineFigures ef;
    w->engine_figures(on, host, ef);
    const LayerReport lr = replay_layers(w->reference_config(), ef.advance_ns_per_tick, on, host);
    layer = lr.metrics;
    layer.insert(layer.end(), ef.metrics.begin(), ef.metrics.end());
    layer.push_back({"sensor.underruns", static_cast<double>(w->underruns()), "count"});
    // Rescaled throughput of each untraced block over that of the traced
    // block after it: neighbours share the host's conditions, so the median
    // ratio is the tracing cost.
    const auto rate = [&](std::size_t b) {
      return figures(run.frames, rescale, [b](const Frame& f) { return f.block == b; })
          .channel_s_per_s;
    };
    std::vector<double> ratios;
    for (std::size_t b = 1; b <= run.frames.back().block; b += 2)
      if (rate(b) > 0) ratios.push_back(rate(b - 1) / rate(b));
    const double overhead = ratios.empty() ? 0.0 : (median(ratios) - 1.0) * 100.0;
    layer.push_back({"ledger.trace_overhead_pct", overhead, "%"});

    std::printf("== per layer: %s reference channel, %zu traced frames ==\n", o.workload.c_str(),
                run.frames.size() - static_cast<std::size_t>(plain_frames));
    std::printf("  %-36s %12s %11s %12s %7s\n", "kernel", "ns/call", "calls/tick", "ns/tick",
                "share");
    for (const LayerRow& r : lr.rows) {
      const double per_tick = r.ns_per_call * r.calls_per_tick;
      std::printf("  %-36s %12.2f %11.6f %12.2f %6.1f%%\n", r.metric.c_str(), r.ns_per_call,
                  r.calls_per_tick, per_tick, 100.0 * per_tick / lr.advance_ns_per_tick);
    }
    std::printf("  %-36s %12s %11s %12.2f %6.1f%%\n", "sum of kernels", "", "",
                lr.kernels_ns_per_tick, 100.0 * lr.kernels_ns_per_tick / lr.advance_ns_per_tick);
    std::printf("  %-36s %12s %11s %12.2f %6.1f%%\n", "residual (dispatch, glue)", "", "",
                lr.residual_ns_per_tick, 100.0 * lr.residual_ns_per_tick / lr.advance_ns_per_tick);
    std::printf("  %-36s %12s %11s %12.2f\n", "traced advance", "", "", lr.advance_ns_per_tick);
    std::printf("== per-layer metrics ==\n");
    for (const Metric& x : layer) print_metric(x);
    for (const Metric& x : ef.info) print_metric(x);

    if (o.trace_out.empty())
      o.trace_out = "build/ledger/traces/" + o.workload + "-" + std::to_string(o.seed) + ".json";
    ascp::obs::TaskProfiler no_tasks;
    if (!write_text(o.trace_out, ascp::obs::chrome_trace_json(no_tasks, nullptr, &spans))) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    std::printf("  chrome trace: %s (%llu spans, %zu kept)\n", o.trace_out.c_str(),
                static_cast<unsigned long long>(spans.total()), spans.size());
  }

  if (!o.json_out.empty()) {
    std::string js = "{\"workload\": \"" + o.workload + "\", \"seed\": " +
                     std::to_string(o.seed) + ", \"seconds\": " + number(o.seconds) +
                     ", \"trace\": " + (o.trace ? "1" : "0") +
                     ", \"smoke\": " + (o.smoke ? "true" : "false") +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.tally.attempted) +
                     ", \"failed\": " + std::to_string(run.tally.failed) +
                     ", \"error_rate\": " + number(error_rate) +
                     ", \"frames\": " + std::to_string(run.frames.size()) +
                     ", \"output_hash\": \"" + hex(run.hash) +
                     "\", \"hash_frames\": " + std::to_string(w->hash_frames()) +
                     ", \"hash_pin\": \"" + pin_state +
                     "\", \"threads\": " + std::to_string(kWorkerThreads) +
                     ",\n \"end_to_end\": " + metrics_object(e2e);
    if (o.trace) js += ",\n \"per_layer\": " + metrics_object(layer);
    js += ",\n \"info\": " + metrics_object(info) + "}\n";
    if (!write_text(o.json_out, js)) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n", o.json_out.c_str());
      return 1;
    }
  }

  std::printf("%s\n", result_line(correct, run.tally.attempted, run.tally.failed,
                                   o.trace ? layer : e2e)
                          .c_str());
  return correct ? 0 : 1;
}
