// perf_channel_farm — throughput of the parallel conditioning farm.
//
// Sweeps {1, 4, 16, 64} channels × {1, T} worker threads and reports, for
// each configuration:
//   * samples/s          — decimated output samples produced per wall second
//   * channel-s/s        — simulated channel-seconds per wall second (the
//                          farm's capacity metric: how much device time the
//                          host buys per second)
//   * speedup            — vs the 1-thread farm of the same fleet size
// Every multi-threaded run is checked byte-identical to its single-threaded
// twin before its row is accepted. Results go to stdout and to
// BENCH_channel_farm.json in the working directory.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "platform/engine/channel_farm.hpp"

using namespace ascp;

namespace {

struct Row {
  std::size_t channels = 0;
  unsigned threads = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  double samples_per_sec = 0.0;
  double channel_sec_per_sec = 0.0;
  double speedup = 1.0;
  bool bit_identical = true;
};

// Homogeneous Ideal-fidelity fleet — the configuration a Monte Carlo
// characterization sweep would scale out.
std::vector<engine::ChannelConfig> fleet(std::size_t n) {
  std::vector<engine::ChannelConfig> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].kind = engine::ChannelKind::GyroIdeal;
    specs[i].rate_dps = 10.0 + static_cast<double>(i % 7) * 12.5;
  }
  return specs;
}

struct RunResult {
  double wall = 0.0;
  std::size_t samples = 0;
  std::vector<std::uint64_t> hashes;
};

RunResult run_fleet(std::size_t n_channels, unsigned threads, double sim_seconds,
                    obs::MetricRegistry* metrics) {
  engine::FarmConfig fc;
  fc.root_seed = 2025;
  fc.threads = threads;
  fc.shared_metrics = metrics;
  engine::ChannelFarm farm(fleet(n_channels), fc);
  farm.advance(0.002);  // warmup: touch every channel once, fault in pages

  const auto t0 = std::chrono::steady_clock::now();
  farm.advance(sim_seconds);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall = std::chrono::duration<double>(t1 - t0).count();
  r.samples = farm.total_samples();
  for (std::size_t i = 0; i < farm.size(); ++i) r.hashes.push_back(farm.channel(i).output_hash());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());

  // Sharded farm metrics: every run (serial and pooled) records into the same
  // registry, and the merged snapshot is embedded in BENCH_channel_farm.json.
  obs::MetricRegistry metrics;

  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    // CI smoke: a small pooled farm vs its single-threaded twin, checked
    // byte-identical. Exercises the pool handshake without the full sweep's
    // runtime.
    const auto solo = run_fleet(4, 1, 0.1, &metrics);
    const auto pooled = run_fleet(4, hw, 0.1, &metrics);
    const bool ok = pooled.hashes == solo.hashes && pooled.samples == solo.samples;
    const auto snap = metrics.snapshot();
    std::printf("farm smoke: 4 channels, 0.1 s, %u threads: %zu samples, %s "
                "(%.0f advances metered)\n",
                hw, pooled.samples, ok ? "bit-identical" : "MISMATCH",
                snap.counter_value("farm.channel_advances"));
    return ok ? 0 : 1;
  }
  // Per-channel simulated time shrinks as the fleet grows so total simulated
  // channel-seconds (and the bench's runtime) stays roughly constant.
  const std::size_t kChannels[] = {1, 4, 16, 64};
  std::vector<Row> rows;

  std::printf("channel farm throughput (T = %u hardware threads)\n", hw);
  std::printf("%9s %8s %8s %10s %12s %14s %9s %6s\n", "channels", "threads", "sim_s", "wall_s",
              "samples/s", "channel-s/s", "speedup", "ident");

  for (const std::size_t n : kChannels) {
    const double sim_seconds = 1.28 / static_cast<double>(n);
    const auto solo = run_fleet(n, 1, sim_seconds, &metrics);
    for (const unsigned threads : {1u, hw}) {
      const auto r = threads == 1 ? solo : run_fleet(n, threads, sim_seconds, &metrics);
      Row row;
      row.channels = n;
      row.threads = threads;
      row.sim_seconds = sim_seconds;
      row.wall_seconds = r.wall;
      row.samples_per_sec = static_cast<double>(r.samples) / r.wall;
      row.channel_sec_per_sec = static_cast<double>(n) * sim_seconds / r.wall;
      row.speedup = solo.wall / r.wall;
      row.bit_identical = r.hashes == solo.hashes;
      rows.push_back(row);
      std::printf("%9zu %8u %8.4f %10.4f %12.3e %14.3f %9.2f %6s\n", row.channels, row.threads,
                  row.sim_seconds, row.wall_seconds, row.samples_per_sec, row.channel_sec_per_sec,
                  row.speedup, row.bit_identical ? "yes" : "NO");
    }
  }

  FILE* f = std::fopen("BENCH_channel_farm.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"bench\": \"channel_farm\",\n  \"hardware_threads\": %u,\n", hw);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"channels\": %zu, \"threads\": %u, \"sim_seconds\": %.6f, "
                   "\"wall_seconds\": %.6f, \"samples_per_sec\": %.3f, "
                   "\"channel_seconds_per_sec\": %.4f, \"speedup\": %.3f, "
                   "\"bit_identical\": %s}%s\n",
                   r.channels, r.threads, r.sim_seconds, r.wall_seconds, r.samples_per_sec,
                   r.channel_sec_per_sec, r.speedup, r.bit_identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Merged sharded-metrics snapshot across every run above; the counter
    // totals are thread-count-independent (only commutative sums are shared).
    const std::string snap = obs::json_snapshot(metrics.snapshot());
    std::fprintf(f, "  \"observability\": %s\n}\n", snap.c_str());
    std::fclose(f);
    std::printf("wrote BENCH_channel_farm.json\n");
  }

  bool ok = true;
  for (const Row& r : rows) ok = ok && r.bit_identical;
  return ok ? 0 : 1;
}
