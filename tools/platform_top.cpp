// platform_top — live telemetry digest for the conditioning platform.
//
// Runs the standard gyro scenario (Full fidelity, safety supervisor, 8051
// monitor running the watchdog-kicker firmware) with the full observability
// stack attached, printing a one-line digest per simulated chunk and a final
// report: per-task counts and walls, the MCU PC-histogram top-10 (with
// disassembly), ISR costs and the structured-event digest. The "top(1) for
// the simulated chip".
//
//   platform_top                 2 s of simulated time, default scenario
//   platform_top --seconds S     simulate S seconds
//   platform_top --smoke         short run (CI): 0.25 s, all outputs checked
//   platform_top --faults        attach the standard fault campaign
//   platform_top --trace FILE    write a Chrome trace_event JSON (Perfetto):
//                                task tracks, causal spans, event instants
//   platform_top --json FILE     write the full JSON snapshot
//                                (BENCH_platform_top.json by default)
//   platform_top --fleet         supervised-fleet mode: run a small mixed
//                                fleet with flight recorders + causal spans
//                                armed and print a per-channel health table
//
// Exit status: 0 on success, 1 when the run produced no output samples, its
// task walls do not sum to its run wall (1e-9 relative), or an export
// failed, 2 on usage errors.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/firmware_corpus.hpp"
#include "core/gyro_system.hpp"
#include "mcu/opcode_table.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "platform/engine/fleet.hpp"
#include "safety/standard_faults.hpp"
#include "sensor/environment.hpp"

using namespace ascp;

namespace {

bool write_file(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

// ---- supervised-fleet mode: top(1) for a fleet, not a chip -----------------
// A small mixed fleet with flight recorders + causal spans armed, advanced a
// deterministic number of fleet ticks; the digest is a per-channel health
// table sourced from supervisor state, channel telemetry and span stats.
int run_fleet_mode(bool smoke) {
  obs::Observability fo;  // supervisor-side telemetry bundle
  engine::FleetConfig fc;
  fc.root_seed = 424242;
  fc.threads = 4;
  fc.tick_seconds = 0.002;
  fc.checkpoint_interval = 4;
  fc.flight_recorders = true;
  fc.metrics = &fo.metrics;
  fc.events = &fo.events;
  fc.spans = &fo.spans;

  const engine::ChannelKind kinds[] = {
      engine::ChannelKind::GyroIdeal, engine::ChannelKind::GyroIdeal,
      engine::ChannelKind::Adxrs300, engine::ChannelKind::Gyrostar};
  std::vector<engine::FleetChannelSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].config.kind = kinds[i];
    specs[i].config.rate_dps = 10.0 + static_cast<double>(i) * 15.0;
    specs[i].config.queue_capacity = 4096;
    specs[i].priority = static_cast<int>(i % 2);
  }
  engine::FleetSupervisor fleet(std::move(specs), fc);
  const long ticks = smoke ? 25 : 100;
  fleet.run_ticks(ticks);

  std::printf("fleet: %zu channels, %ld ticks of %.3f ms, %u workers\n", fleet.size(),
              fleet.ticks_run(), fc.tick_seconds * 1e3, fc.threads);
  std::printf("%3s %-10s %-11s %8s %10s %10s %7s %6s %7s %8s\n", "ch", "kind", "health",
              "restarts", "ticks", "underruns", "drops", "dtcs", "spans", "records");
  bool healthy = true;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    auto& ch = fleet.channel(i);
    const auto* obs = ch.observability();
    const auto* rec = ch.flight_recorder();
    std::printf("%3zu %-10s %-11s %8d %10ld %10llu %7llu 0x%04X %7llu %8llu\n", i,
                engine::channel_kind_name(ch.config().kind),
                engine::channel_health_name(fleet.health(i)),
                fleet.restarts(i), fleet.ticks_done(i),
                static_cast<unsigned long long>(ch.stimulus()->underruns()),
                static_cast<unsigned long long>(ch.dropped_outputs()), fleet.fleet_dtcs(i),
                static_cast<unsigned long long>(obs ? obs->spans.total() : 0),
                static_cast<unsigned long long>(rec ? rec->total() : 0));
    healthy = healthy && fleet.health(i) == engine::ChannelHealth::Running &&
              fleet.ticks_done(i) == fleet.ticks_run();
  }

  const auto snap = fo.metrics.snapshot();
  std::printf("== fleet counters ==\n");
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("fleet.", 0) == 0) std::printf("  %-28s %12.0f\n", name.c_str(), value);
  // Every fleet tick is one span; anything beyond that is a lifecycle edge
  // (stall_detect / incident / restart / catch_up / …).
  const std::uint64_t fleet_spans = fo.spans.count(obs::SpanCategory::Fleet);
  const std::uint64_t tick_spans = static_cast<std::uint64_t>(fleet.ticks_run());
  std::printf("== fleet spans ==\n");
  std::printf("  total %llu retained %zu (ticks %llu, lifecycle %llu) open %zu dropped %llu\n",
              static_cast<unsigned long long>(fo.spans.total()), fo.spans.size(),
              static_cast<unsigned long long>(tick_spans),
              static_cast<unsigned long long>(
                  fleet_spans > tick_spans ? fleet_spans - tick_spans : 0),
              fo.spans.open_depth(),
              static_cast<unsigned long long>(fo.spans.dropped() + fo.spans.open_dropped()));

  if (!healthy) {
    std::fprintf(stderr, "platform_top: fleet ended unhealthy\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 2.0;
  bool smoke = false;
  bool faults = false;
  bool fleet_mode = false;
  const char* trace_path = nullptr;
  const char* json_path = "BENCH_platform_top.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else if (!std::strcmp(argv[i], "--faults")) {
      faults = true;
    } else if (!std::strcmp(argv[i], "--fleet")) {
      fleet_mode = true;
    } else if (!std::strcmp(argv[i], "--seconds") && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: platform_top [--smoke] [--faults] [--fleet] [--seconds S] "
                   "[--trace FILE] [--json FILE]\n");
      return 2;
    }
  }
  if (fleet_mode) return run_fleet_mode(smoke);
  if (smoke) seconds = 0.25;
  if (seconds <= 0.0) {
    std::fprintf(stderr, "platform_top: --seconds must be > 0\n");
    return 2;
  }

  // ---- the standard scenario: Full gyro + supervisor + 8051 monitor -------
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.with_safety = true;
  cfg.with_mcu = true;
  core::GyroSystem gyro(cfg);
  gyro.platform().load_firmware(
      analysis::corpus::assemble_watchdog_kicker(gyro.platform().config().map).image);
  gyro.power_on(1);
  if (auto* wd = gyro.platform().watchdog()) {
    wd->write_reg(1, 30000);  // 1.5 ms of machine cycles at 20 MHz
    wd->write_reg(2, 1);
  }

  obs::Observability obs;
  gyro.set_observability(obs.sink());

  const double fs_dsp = cfg.analog_fs / cfg.adc_div;
  safety::FaultCampaign campaign;
  if (faults) {
    const long n = static_cast<long>(seconds * fs_dsp);
    safety::faults::add_register_bit_flip(campaign, gyro, /*at=*/n * 2 / 5);
    safety::faults::add_primary_adc_stuck(campaign, gyro, /*at=*/n * 3 / 5,
                                          /*code=*/1234, /*clear_after=*/n / 5);
    gyro.set_fault_campaign(&campaign);
  }

  // ---- chunked run with a one-line digest per chunk ------------------------
  const auto rate = sensor::Profile::constant(30.0);
  const auto temp = sensor::Profile::constant(25.0);
  const int chunks = smoke ? 2 : 8;
  std::vector<double> out;
  std::printf("platform_top: %.3f s simulated, %d chunk(s)%s\n", seconds, chunks,
              faults ? ", fault campaign attached" : "");
  for (int c = 0; c < chunks; ++c) {
    gyro.run(rate, temp, seconds / chunks, &out);
    const auto* sup = gyro.supervisor();
    std::printf(
        "  t=%7.3fs out=%6zu samples rate=%.4fV pll=%s state=%s dtc=0x%03X "
        "events=%llu sim/wall=%.2f\n",
        static_cast<double>(gyro.dsp_samples()) / fs_dsp, out.size(), gyro.last_output(),
        gyro.locked() ? "lock" : "....", safety::state_name(sup->state()), sup->dtcs(),
        static_cast<unsigned long long>(obs.events.total()), obs.tasks.sim_per_wall());
  }
  if (out.empty()) {
    std::fprintf(stderr, "platform_top: scenario produced no output samples\n");
    return 1;
  }

  // ---- final report --------------------------------------------------------
  const auto snap = obs.metrics.snapshot();
  std::fputs(obs::text_report(snap, &obs.events, &obs.tasks, &obs.mcu).c_str(), stdout);

  // Top-10 PCs again, with disassembly — the text report shows raw counts;
  // here the decoder names the instruction behind each hot address.
  std::vector<std::uint8_t> code(65536);
  for (std::size_t a = 0; a < code.size(); ++a)
    code[a] = gyro.platform().cpu().code_byte(static_cast<std::uint16_t>(a));
  std::printf("== mcu hot spots (disassembled) ==\n");
  for (const auto& p : obs.mcu.top_pcs(10)) {
    const auto insn = mcu::decode(code, 0, p.pc);
    std::printf("  0x%04X  %-20s %llu\n", p.pc, insn.text().c_str(),
                static_cast<unsigned long long>(p.count));
  }

  // The task walls share out the run wall, so they must add up to it.
  int rc = 0;
  double task_wall = 0.0;
  for (const auto& t : obs.tasks.stats()) task_wall += t.wall_seconds;
  if (!(std::abs(task_wall - obs.tasks.wall_seconds()) <= 1e-9 * obs.tasks.wall_seconds())) {
    std::fprintf(stderr, "platform_top: task walls sum to %.9g s, the run wall is %.9g s\n",
                 task_wall, obs.tasks.wall_seconds());
    rc = 1;
  }

  // ---- exports -------------------------------------------------------------
  if (json_path) {
    const std::string js = obs::json_snapshot(snap, &obs.events, &obs.tasks, &obs.mcu);
    if (write_file(json_path, js)) {
      std::printf("platform_top: wrote %s (%zu bytes)\n", json_path, js.size());
    } else {
      std::fprintf(stderr, "platform_top: cannot write %s\n", json_path);
      rc = 1;
    }
  }
  if (trace_path) {
    const std::string tr = obs::chrome_trace_json(obs.tasks, &obs.events, &obs.spans);
    if (write_file(trace_path, tr)) {
      std::printf("platform_top: wrote %s (%zu bytes, load in Perfetto)\n", trace_path,
                  tr.size());
    } else {
      std::fprintf(stderr, "platform_top: cannot write %s\n", trace_path);
      rc = 1;
    }
  }
  return rc;
}
