// scenario_fuzz — differential conformance fuzzer driver.
//
// Modes:
//   --smoke [--seed N] [--runs N] [--emit-dir D] [--emit-every K]
//       Generate and run N randomized scenarios from the seed, checking the
//       full oracle on each. Every Kth scenario is written to D and replayed
//       from its file, asserting a bit-identical output hash. One batch of
//       equal-length scenarios is additionally executed through a
//       ChannelFarm on 1 and 4 threads, asserting thread-count invariance
//       and farm-vs-solo stream identity. Failing scenarios are auto-shrunk
//       to a minimal repro written next to the emit dir.
//   --replay FILE...
//       Re-run checked-in `.scenario` files (corpus or bug repros): oracle
//       plus a second run proving same-file ⇒ same-hash.
//   --corpus DIR
//       Replay every `*.scenario` under DIR (sorted), as the CI stage does.
//   --gen-corpus DIR
//       Regenerate the curated seed corpus into DIR (one file per catalogue
//       fault plus differential/ISS/burst coverage).
//
// Exit status: 0 = no violations, 1 = any oracle violation or replay
// divergence, 2 = usage/IO error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "conformance/generator.hpp"
#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "conformance/shrink.hpp"
#include "platform/engine/channel_farm.hpp"

namespace fs = std::filesystem;
using namespace ascp;
using namespace ascp::conformance;

namespace {

int g_failures = 0;

void report(const Scenario& s, const ScenarioReport& rep, const char* context) {
  if (rep.ok()) return;
  ++g_failures;
  std::printf("FAIL [%s] seed=%llu class=%s:\n%s", context,
              static_cast<unsigned long long>(s.seed), class_name(s.cls), rep.summary().c_str());
}

/// Shrink a failing scenario against "any oracle violation" and write the
/// minimal repro.
void shrink_and_emit(const Scenario& s, const std::string& dir) {
  ShrinkStats st;
  const Scenario min_s = shrink_scenario(
      s, [](const Scenario& c) { return !run_scenario(c).ok(); }, /*max_attempts=*/60, &st);
  fs::create_directories(dir);
  const std::string path =
      dir + "/fail-seed" + std::to_string(min_s.seed) + ".scenario";
  save_scenario(path, min_s);
  std::printf("  shrunk (%d/%d edits kept) -> %s\n  replay: scenario_fuzz --replay %s\n",
              st.accepted, st.attempts, path.c_str(), path.c_str());
}

int run_replay_file(const std::string& path) {
  Scenario s;
  try {
    s = load_scenario(path);
  } catch (const std::exception& e) {
    std::printf("ERROR: %s\n", e.what());
    return 2;
  }
  const auto rep1 = run_scenario(s);
  report(s, rep1, "replay");
  const auto rep2 = run_scenario(s);
  if (rep2.output_hash != rep1.output_hash) {
    ++g_failures;
    std::printf("FAIL [replay] %s: non-deterministic — run hashes differ\n", path.c_str());
  }
  std::printf("%-52s %s  samples=%zu hash=%016llx\n", fs::path(path).filename().c_str(),
              rep1.ok() && rep2.output_hash == rep1.output_hash ? "ok " : "BAD", rep1.outputs,
              static_cast<unsigned long long>(rep1.output_hash));
  return 0;
}

/// Farm determinism stage: the same scenario batch through ChannelFarm with
/// 1 worker and 4 workers must produce identical per-channel hashes, each
/// matching the solo-run hash of that scenario.
void farm_stage(std::uint64_t seed) {
  GeneratorConfig gc;
  gc.w_invariant = 1.0;
  gc.w_diff = gc.w_fault = gc.w_iss = 0.0;
  constexpr int kBatch = 12;
  constexpr double kDur = 0.08;

  std::vector<Scenario> batch;
  std::vector<std::uint64_t> solo;
  std::vector<engine::ChannelConfig> specs;
  for (int i = 0; i < kBatch; ++i) {
    Scenario s = generate_scenario(seed ^ (0xFA12ull << 16) ^ static_cast<std::uint64_t>(i), gc);
    s.duration_s = kDur;  // equal length: one farm advance() covers the batch
    solo.push_back(run_scenario(s).output_hash);
    specs.push_back(channel_config(s));
    batch.push_back(std::move(s));
  }

  auto run_farm = [&](unsigned threads) {
    engine::FarmConfig fc;
    fc.reseed_channels = false;  // keep each scenario's own seed → solo-comparable
    fc.threads = threads;
    engine::ChannelFarm farm(specs, fc);
    farm.advance(kDur);
    std::vector<std::uint64_t> h;
    for (std::size_t i = 0; i < farm.size(); ++i) h.push_back(farm.channel(i).output_hash());
    return h;
  };
  const auto h1 = run_farm(1);
  const auto h4 = run_farm(4);
  int farm_failures = 0;
  for (int i = 0; i < kBatch; ++i) {
    if (h1[i] != h4[i]) {
      ++farm_failures;
      std::printf("FAIL [farm] channel %d: 1-thread and 4-thread hashes differ\n", i);
    }
    if (h1[i] != solo[i]) {
      ++farm_failures;
      std::printf("FAIL [farm] channel %d: farm stream differs from solo run (seed=%llu)\n", i,
                  static_cast<unsigned long long>(batch[static_cast<std::size_t>(i)].seed));
    }
  }
  g_failures += farm_failures;
  std::printf("farm: %d channels, 1==4 threads, farm==solo: %s\n", kBatch,
              farm_failures == 0 ? "ok" : "VIOLATIONS");
}

int run_smoke(std::uint64_t seed, int runs, const std::string& emit_dir, int emit_every) {
  std::map<std::string, int> by_class;
  std::map<std::string, int> by_fault;
  std::vector<std::pair<std::string, std::uint64_t>> emitted;  // path, hash

  for (int i = 0; i < runs; ++i) {
    const Scenario s = generate_scenario(seed + static_cast<std::uint64_t>(i) * 0x9E37ull);
    const auto rep = run_scenario(s);
    ++by_class[class_name(s.cls)];
    for (const auto& f : s.faults) ++by_fault[fault_kind_name(f.kind)];
    report(s, rep, "smoke");
    if (!rep.ok()) shrink_and_emit(s, emit_dir);

    if (emit_every > 0 && i % emit_every == 0) {
      fs::create_directories(emit_dir);
      const std::string path = emit_dir + "/smoke-" + std::to_string(i) + ".scenario";
      if (save_scenario(path, s)) emitted.emplace_back(path, rep.output_hash);
    }
  }

  // Replay every emitted file: file round-trip + rerun must reproduce the
  // recorded hash bit-exactly.
  int replayed = 0;
  for (const auto& [path, hash] : emitted) {
    const auto rep = run_scenario(load_scenario(path));
    if (rep.output_hash != hash) {
      ++g_failures;
      std::printf("FAIL [emit-replay] %s: hash differs from original run\n", path.c_str());
    }
    ++replayed;
  }

  farm_stage(seed);

  std::printf("scenario_fuzz: %d scenarios, %d violations, %d emitted+replayed\n", runs,
              g_failures, replayed);
  std::printf("  classes:");
  for (const auto& [k, v] : by_class) std::printf(" %s=%d", k.c_str(), v);
  std::printf("\n  faults:");
  for (const auto& [k, v] : by_fault) std::printf(" %s=%d", k.c_str(), v);
  std::printf("\n");
  return g_failures ? 1 : 0;
}

/// Curated corpus: every catalogue fault once, plus differential, ISS,
/// burst/vibration, open-loop, and wordlength-ablation coverage.
int gen_corpus(const std::string& dir) {
  fs::create_directories(dir);
  int written = 0;
  auto emit = [&](const char* name, const Scenario& s) {
    const std::string path = dir + "/" + name + ".scenario";
    if (!save_scenario(path, s)) {
      std::printf("ERROR: cannot write %s\n", path.c_str());
      return;
    }
    ++written;
  };

  // One scenario per catalogue fault, at catalogue-default magnitudes.
  static constexpr FaultKind kAll[] = {
      FaultKind::DriveElectrodeOpen, FaultKind::DriveElectrodeStuck, FaultKind::QuadratureStep,
      FaultKind::PrimaryAdcStuck,    FaultKind::SenseAdcStuckNull,   FaultKind::ReferenceDrift,
      FaultKind::PgaGainError,       FaultKind::ChargeAmpOpen,       FaultKind::NcoPhaseJump,
      FaultKind::RegisterBitFlip,    FaultKind::FirmwareHang,        FaultKind::EepromCalCorruption,
  };
  std::uint64_t seed = 7001;
  for (FaultKind k : kAll) {
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::Fault;
    s.full_fidelity = fault_requires_full(k);
    // The hang repro needs watchdog bite + MCU recovery + PLL reacquisition
    // (~0.21 s cold) after the 0.55 s injection point before the relock
    // oracle can see a settled lock.
    s.duration_s = k == FaultKind::FirmwareHang ? 1.2 : 0.85;
    s.rate.push_back({SegKind::Constant, s.duration_s, 30.0, 0, 0, 0, {}});
    s.temp.push_back({SegKind::Constant, s.duration_s, 25.0, 0, 0, 0, {}});
    s.faults.push_back({k, 132000, -1, 0.0});
    emit(fault_kind_name(k), s);
  }
  {
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::DiffIdeal;
    s.duration_s = 0.15;
    s.rate.push_back({SegKind::Sine, s.duration_s, 80.0, 10.0, 5.0, 0, {}});
    s.temp.push_back({SegKind::Ramp, s.duration_s, 20.0, 60.0, 0, 0, {}});
    emit("diff_ideal_sine", s);
  }
  {
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::Iss;
    s.full_fidelity = false;
    s.duration_s = 0.15;
    s.rate.push_back({SegKind::Constant, s.duration_s, 45.0, 0, 0, 0, {}});
    emit("iss_monitor", s);
  }
  {
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::Invariant;
    s.duration_s = 0.12;
    s.rate.push_back({SegKind::Chirp, s.duration_s, 60.0, 0.0, 2.0, 25.0, {}});
    s.bursts.push_back({0.04, 0.02, 90.0, 400.0});  // vibration burst
    s.bursts.push_back({0.08, 0.01, 80.0, 0.0});    // half-sine shock
    emit("vibration_shock", s);
  }
  {
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::Invariant;
    s.open_loop = true;
    s.duration_s = 0.12;
    s.rate.push_back({SegKind::Sine, s.duration_s, 50.0, 0.0, 15.0, 0, {}});
    emit("open_loop_batched", s);
  }
  {
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::Invariant;
    s.datapath_bits = 18;
    s.output_bw_hz = 25.0;
    s.duration_s = 0.12;
    s.rate.push_back({SegKind::Ramp, s.duration_s, -120.0, 120.0, 0, 0, {}});
    s.regs.push_back({false, 17, 96});  // sense PGA gain 6.0 via register
    emit("wordlength_regs", s);
  }
  {
    // Recorded-trace stimulus: the rate axis is a raw sample list replayed
    // zero-order-hold at f0, exercising the Trace segment evaluator and the
    // oracle's record→replay proof on a checked-in corpus entry.
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::Invariant;
    s.duration_s = 0.12;
    Segment tr{SegKind::Trace, s.duration_s, 0, 0, 800.0, 0, {}};
    double v = -40.0;
    for (int i = 0; i < 96; ++i) {
      v += (i % 7 < 4) ? 3.5 : -4.25;  // deterministic jagged walk
      tr.samples.push_back(v);
    }
    s.rate.push_back(tr);
    s.temp.push_back({SegKind::Ramp, s.duration_s, 15.0, 55.0, 0, 0, {}});
    emit("trace_segment_replay", s);
  }
  {
    // Damped-oscillation trace driven through the Full-vs-Ideal differential
    // oracle: step-like ZOH edges must not open a fidelity gap.
    Scenario s;
    s.seed = seed++;
    s.cls = ScenarioClass::DiffIdeal;
    s.duration_s = 0.15;
    Segment tr{SegKind::Trace, s.duration_s, 0, 0, 400.0, 0, {}};
    for (int i = 0; i < 60; ++i)
      tr.samples.push_back(70.0 * std::sin(0.35 * i) * std::exp(-0.02 * i));
    s.rate.push_back(tr);
    s.temp.push_back({SegKind::Constant, s.duration_s, 25.0, 0, 0, 0, {}});
    emit("trace_diff_ideal", s);
  }
  std::printf("gen-corpus: wrote %d scenarios to %s\n", written, dir.c_str());
  return 0;
}

int usage() {
  std::printf(
      "usage: scenario_fuzz --smoke [--seed N] [--runs N] [--emit-dir D] [--emit-every K]\n"
      "       scenario_fuzz --replay FILE...\n"
      "       scenario_fuzz --corpus DIR\n"
      "       scenario_fuzz --gen-corpus DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 2026;
  int runs = 200;
  std::string emit_dir = "fuzz_out";
  int emit_every = 10;
  std::string mode;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--smoke" || a == "--gen-corpus" || a == "--corpus" || a == "--replay")
      mode = a;
    else if (a == "--seed") {
      if (const char* v = next()) seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--runs") {
      if (const char* v = next()) runs = std::atoi(v);
    } else if (a == "--emit-dir") {
      if (const char* v = next()) emit_dir = v;
    } else if (a == "--emit-every") {
      if (const char* v = next()) emit_every = std::atoi(v);
    } else if (!a.empty() && a[0] != '-') {
      files.push_back(a);
    } else {
      return usage();
    }
  }

  try {
    if (mode == "--smoke") return run_smoke(seed, runs, emit_dir, emit_every);
    if (mode == "--gen-corpus") {
      if (files.size() != 1) return usage();
      return gen_corpus(files[0]);
    }
    if (mode == "--corpus") {
      if (files.size() != 1) return usage();
      std::vector<std::string> paths;
      for (const auto& e : fs::directory_iterator(files[0]))
        if (e.path().extension() == ".scenario") paths.push_back(e.path().string());
      std::sort(paths.begin(), paths.end());
      if (paths.empty()) {
        std::printf("ERROR: no .scenario files under %s\n", files[0].c_str());
        return 2;
      }
      for (const auto& p : paths)
        if (int rc = run_replay_file(p)) return rc;
      std::printf("corpus: %zu scenarios, %d violations\n", paths.size(), g_failures);
      return g_failures ? 1 : 0;
    }
    if (mode == "--replay") {
      if (files.empty()) return usage();
      for (const auto& p : files)
        if (int rc = run_replay_file(p)) return rc;
      return g_failures ? 1 : 0;
    }
  } catch (const std::exception& e) {
    std::printf("ERROR: %s\n", e.what());
    return 2;
  }
  return usage();
}
