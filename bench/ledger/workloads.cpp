#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "analysis/firmware_corpus.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/gyro_system.hpp"
#include "platform/engine/channel_farm.hpp"
#include "platform/engine/fleet.hpp"
#include "sensor/stimulus_source.hpp"

namespace ledger {

using namespace ascp;
using engine::ChannelConfig;
using engine::ChannelKind;
using engine::ConditioningChannel;

// ---- Tracer -----------------------------------------------------------------

Tracer::Stat& Tracer::stat(std::string_view name) {
  for (Stat& s : stats_)
    if (s.name == name) return s;
  stats_.push_back({std::string(name)});
  return stats_.back();
}

const Tracer::Stat* Tracer::find(std::string_view name) const {
  for (const Stat& s : stats_)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<double> Tracer::mark() const {
  std::vector<double> m;
  for (const Stat& s : stats_) m.push_back(s.ns);
  return m;
}

void Tracer::rescale_since(const std::vector<double>& mark, double scale) {
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const double base = i < mark.size() ? mark[i] : 0.0;
    stats_[i].ns = base + (stats_[i].ns - base) * scale;
  }
}

double Tracer::ns_per_unit(std::string_view name) const {
  const Stat* s = find(name);
  if (!s || s->calls == 0) return 0.0;
  return s->ns / (s->units > 0.0 ? s->units : static_cast<double>(s->calls));
}

double Tracer::ns_per_call(std::string_view name) const {
  const Stat* s = find(name);
  return s && s->calls ? s->ns / static_cast<double>(s->calls) : 0.0;
}

// ---- shared helpers ---------------------------------------------------------

std::uint64_t fold_hash(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

double solo_ns_per_tick(ConditioningChannel& ch, long ticks, int rounds, HostSpeed& host) {
  std::vector<double> per_tick;
  for (int r = 0; r < rounds; ++r) {
    per_tick.push_back(host.time([&] { ch.advance(ticks); }) * 1e9 / static_cast<double>(ticks));
    (void)ch.take_outputs();
  }
  return median(per_tick);
}

namespace {

constexpr double kBaseRate = 1.92e6;  ///< every channel kind's analog tick rate
constexpr long kFrameTicks = 3840;    ///< 2 ms of simulated time
constexpr long kTicksPerOutput = 1024;  ///< analog ticks per decimated output

long ticks_of(double seconds) { return std::llround(seconds * kBaseRate); }

template <typename Fn>
double wall_of(Fn&& fn) {
  const auto t0 = Tracer::Clock::now();
  fn();
  return std::chrono::duration<double>(Tracer::Clock::now() - t0).count();
}

bool output_ok(double v) { return std::isfinite(v) && v >= 0.0 && v <= 5.0; }

/// Why a channel's frame failed ("" when it did not): out-of-envelope
/// outputs, stimulus underruns, or a lifetime sample count that disagrees
/// with the simulated time.
std::string channel_problem(const ConditioningChannel& ch, const std::vector<double>& drained) {
  for (double v : drained)
    if (!output_ok(v)) return "output outside [0, 5] V: " + number(v);
  if (ch.stimulus()->underruns() != 0) return "stimulus underrun";
  const long expect = ch.ticks_advanced() / kTicksPerOutput;
  if (std::labs(static_cast<long>(ch.total_outputs()) - expect) > 1)
    return "sample count " + std::to_string(ch.total_outputs()) + ", expected " +
           std::to_string(expect);
  return {};
}

/// Triangle wave between `lo` and `hi` with period `period_s`, starting at
/// phase `phase` (0..1). Changes on every tick.
sensor::Profile triangle(double lo, double hi, double period_s, double phase) {
  return sensor::Profile([=](double t) {
    double u = t / period_s + phase;
    u -= std::floor(u);
    return lo + (hi - lo) * (u < 0.5 ? 2.0 * u : 2.0 - 2.0 * u);
  });
}

// ---- hil_full ---------------------------------------------------------------
// The paper's case study as a hardware-in-the-loop target: GyroFull, safety
// supervisor, the 8051 running the watchdog-kicker firmware, closed-loop
// sense. The temperature sweeps −40…85 °C and changes on every tick.
class HilFull final : public Workload {
 public:
  explicit HilFull(std::uint64_t seed) {
    Rng rng(seed);
    cfg_.kind = ChannelKind::GyroFull;
    cfg_.seed = rng.next_u64();
    cfg_.with_safety = true;
    const double amp = rng.uniform(20.0, 150.0);
    const double freq = rng.uniform(1.0, 20.0);
    cfg_.rate_profile = sensor::Profile::sine(amp, freq);
    cfg_.temp_profile = triangle(-40.0, 85.0, 25.0, rng.uniform());
    cfg_.configure = [](core::GyroSystemConfig& c) { c.with_mcu = true; };
    cfg_.customize = [](core::GyroSystem& g) {
      g.platform().load_firmware(
          analysis::corpus::assemble_watchdog_kicker(g.platform().config().map).image);
      if (auto* wd = g.platform().watchdog()) {
        wd->write_reg(1, 30000);  // PERIOD: 18 ms of machine cycles at 20 MHz
        wd->write_reg(2, 1);      // CTRL: enable
      }
    };
    ch_ = std::make_unique<ConditioningChannel>(cfg_);
  }

  double frame_seconds() const override { return kFrameTicks / kBaseRate; }

  void frame(Tracer& tr) override {
    {
      Tracer::Scope s(tr, "advance", kFrameTicks);
      ch_->advance(kFrameTicks);
    }
    Tracer::Scope s(tr, "take_outputs");
    out_ = ch_->take_outputs();
  }

  void check_frame(Tally& t) override {
    ++t.attempted;
    const std::string why = channel_problem(*ch_, out_);
    if (!why.empty()) t.fail(1, "hil_full: " + why);
  }

  double channel_seconds_per_frame() const override { return kFrameTicks / kBaseRate; }
  std::uint64_t underruns() const override { return ch_->stimulus()->underruns(); }
  long hash_frames() const override { return 250; }
  std::uint64_t output_hash() const override { return fold_hash(kFnvBasis, ch_->output_hash()); }
  void final_check(Tally&) override {}
  ChannelConfig reference_config() const override { return ch_->config(); }

  void engine_figures(Tracer& tr, HostSpeed&, EngineFigures& out) override {
    out.advance_ns_per_tick = tr.ns_per_unit("advance");
    const Tracer::Stat* adv = tr.find("advance");
    const Tracer::Stat* frame = tr.find("frame");
    out.set("engine.take_outputs_ns", tr.ns_per_call("take_outputs"), "ns");
    out.set("engine.pool_efficiency",
            adv && frame && frame->ns > 0 ? adv->ns / frame->ns : 0.0, "ratio");
  }

  void info(std::vector<Metric>& out) const override {
    core::GyroSystem* g = ch_->gyro();
    const auto* sup = g->supervisor();
    out.push_back({"hil.supervisor_dtcs", sup ? static_cast<double>(sup->dtcs()) : 0.0, "mask"});
    out.push_back({"hil.locked", g->locked() ? 1.0 : 0.0, "bool"});
  }

 private:
  ChannelConfig cfg_;
  std::unique_ptr<ConditioningChannel> ch_;
  std::vector<double> out_;
};

// ---- sweep_ideal ------------------------------------------------------------
// A Monte Carlo characterization sweep: 64 GyroIdeal open-loop channels in a
// ChannelFarm, each with a constant seed-drawn rate at one of the three
// temperature corners. Only the MEMS model, the batched DSP path and the farm
// work; the temperature never changes.
class SweepIdeal final : public Workload {
 public:
  static constexpr std::size_t kChannels = 64;
  /// 2.5 ms of simulated time per frame: short enough that a 12 s run holds
  /// a few hundred frames.
  static constexpr long kTicks = 4800;

  explicit SweepIdeal(std::uint64_t seed) {
    Rng rng(seed);
    const double corners[] = {-40.0, 25.0, 85.0};
    std::vector<ChannelConfig> specs(kChannels);
    for (std::size_t i = 0; i < kChannels; ++i) {
      specs[i].kind = ChannelKind::GyroIdeal;
      specs[i].rate_dps = rng.uniform(-150.0, 150.0);
      specs[i].temp_c = corners[i % 3];
      specs[i].configure = [](core::GyroSystemConfig& c) {
        c.sense.mode = core::SenseMode::OpenLoop;
      };
    }
    engine::FarmConfig fc;
    fc.root_seed = rng.next_u64();
    fc.threads = kWorkerThreads;
    farm_ = std::make_unique<engine::ChannelFarm>(std::move(specs), fc);
    out_.resize(kChannels);
  }

  double frame_seconds() const override { return kTicks / kBaseRate; }

  void frame(Tracer& tr) override {
    {
      Tracer::Scope s(tr, "farm.advance", static_cast<double>(kTicks * kChannels));
      farm_->advance(kTicks / kBaseRate);
    }
    for (std::size_t i = 0; i < kChannels; ++i) {
      Tracer::Scope s(tr, "take_outputs");
      out_[i] = farm_->channel(i).take_outputs();
    }
  }

  void check_frame(Tally& t) override {
    ++t.attempted;
    for (std::size_t i = 0; i < kChannels; ++i) {
      std::string why = farm_->channel_failed(i) ? "channel threw: " + farm_->channel_error(i)
                                                 : channel_problem(farm_->channel(i), out_[i]);
      if (!why.empty()) {
        t.fail(1, "sweep_ideal channel " + std::to_string(i) + ": " + why);
        return;
      }
    }
  }

  double channel_seconds_per_frame() const override {
    return static_cast<double>(kChannels * kTicks) / kBaseRate;
  }
  std::uint64_t underruns() const override {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kChannels; ++i) n += farm_->channel(i).stimulus()->underruns();
    return n;
  }
  long hash_frames() const override { return 80; }
  std::uint64_t output_hash() const override {
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < kChannels; ++i) h = fold_hash(h, farm_->channel(i).output_hash());
    return h;
  }
  void final_check(Tally&) override {}
  ChannelConfig reference_config() const override { return farm_->channel(0).config(); }

  void engine_figures(Tracer& tr, HostSpeed& host, EngineFigures& out) override {
    // Solo busy time: every channel advanced directly, one at a time, over a
    // frame, alternating with farm frames. Σ solo ÷ (threads × farm) is the
    // share of the farm's capacity it turns into channel work; with one
    // worker, what the farm's dispatch leaves. It compares raw times taken
    // back to back.
    constexpr int kFrames = 4;
    const auto drain = [this] {
      for (std::size_t i = 0; i < kChannels; ++i) (void)farm_->channel(i).take_outputs();
    };
    std::vector<double> solo_raw, pooled_raw;
    double solo_s = 0.0;
    for (int f = 0; f < kFrames; ++f) {
      pooled_raw.push_back(wall_of([&] { farm_->advance(kTicks / kBaseRate); }));
      drain();
      Tracer::Scope s(tr, "solo.frame", static_cast<double>(kTicks * kChannels));
      const double before = host.probe();
      solo_raw.push_back(wall_of([&] {
        for (std::size_t i = 0; i < kChannels; ++i) farm_->channel(i).advance(kTicks);
      }));
      solo_s += host.rescale(solo_raw.back(), before, host.probe());
      drain();
    }
    out.advance_ns_per_tick = 1e9 * solo_s / static_cast<double>(kFrames * kChannels * kTicks);
    out.set("engine.take_outputs_ns", tr.ns_per_call("take_outputs"), "ns");
    out.set("engine.pool_efficiency",
            median(solo_raw) / (farm_->threads() * median(pooled_raw)), "ratio");
  }

 private:
  std::unique_ptr<engine::ChannelFarm> farm_;
  std::vector<std::vector<double>> out_;
};

// ---- fleet_mixed ------------------------------------------------------------
// The production fleet: 16 mixed channels under the FleetSupervisor with
// checkpoints, flight recorders, metrics, events and spans on, bounded
// queues drained by a consumer, and one channel that crashes at four
// seed-drawn ticks and is restored from its last checkpoint.
class FleetMixed final : public Workload {
 public:
  static constexpr std::size_t kChannels = 16;
  static constexpr std::size_t kCrashChannel = 0;
  static constexpr std::size_t kFullChannel = 8;  ///< first GyroFull: the layer reference
  static constexpr double kTickSeconds = 0.0025;
  static constexpr long kWarmTicks = 100;  ///< set-up's frames: kWarmupSeconds / kTickSeconds
  static constexpr long kCheckpointInterval = 8;

  explicit FleetMixed(std::uint64_t seed) {
    Rng rng(seed);
    // Four crashes between ticks 116 and 363, at least 40 ticks apart so each
    // restart has caught up before the next.
    for (int k = 0; k < 4; ++k)
      crash_ticks_.push_back(kWarmTicks + 16 + 72L * k + static_cast<long>(rng.uniform(0.0, 32.0)));
    std::vector<engine::FleetChannelSpec> specs(kChannels);
    for (std::size_t i = 0; i < kChannels; ++i) {
      ChannelConfig& c = specs[i].config;
      c.kind = i < 8 ? ChannelKind::GyroIdeal
               : i < 12 ? ChannelKind::GyroFull
               : i < 14 ? ChannelKind::Adxrs300
                        : ChannelKind::Gyrostar;
      c.rate_dps = rng.uniform(-100.0, 100.0);
      c.temp_c = rng.uniform(-20.0, 60.0);
      c.queue_capacity = 4096;
      c.queue_policy = engine::QueuePolicy::DropOldest;
    }
    specs[kCrashChannel].before_advance = [ticks = crash_ticks_](long tick) {
      if (std::find(ticks.begin(), ticks.end(), tick) != ticks.end())
        throw std::runtime_error("injected crash");
    };
    engine::FleetConfig fc;
    fc.root_seed = rng.next_u64();
    fc.threads = kWorkerThreads;
    fc.tick_seconds = kTickSeconds;
    fc.checkpoint_interval = kCheckpointInterval;
    fc.max_restarts = 8;
    fc.flight_recorders = true;
    fc.metrics = &fobs_.metrics;
    fc.events = &fobs_.events;
    fc.spans = &fobs_.spans;
    // Crash images stay in memory, as a collecting service would hold them.
    fc.blackbox_sink = [this](std::size_t, const std::vector<std::uint8_t>& image) {
      blackbox_bytes_ += static_cast<double>(image.size());
      blackboxes_.push_back(image);
    };
    fleet_ = std::make_unique<engine::FleetSupervisor>(std::move(specs), fc);
    bad_.assign(kChannels, std::string());
    fleet_->set_consumer([this](std::size_t i, std::vector<double>&& v) {
      Tracer::Scope s(*tr_, "consume");
      for (double x : v)
        if (!output_ok(x) && bad_[i].empty()) bad_[i] = "output outside [0, 5] V: " + number(x);
    });
  }

  double frame_seconds() const override { return kTickSeconds; }

  void frame(Tracer& tr) override {
    tr_ = &tr;
    const bool checkpoint = (fleet_->ticks_run() + 1) % kCheckpointInterval == 0;
    Tracer::Scope s(tr, checkpoint ? "run_ticks.checkpoint" : "run_ticks");
    fleet_->run_ticks(1);
  }

  void check_frame(Tally& t) override {
    t.attempted += static_cast<long>(kChannels);
    for (std::size_t i = 0; i < kChannels; ++i) {
      std::string why = bad_[i];
      if (fleet_->health(i) == engine::ChannelHealth::Quarantined)
        why = "quarantined: " + fleet_->last_error(i);
      else if (fleet_->ticks_done(i) != fleet_->ticks_run())
        why = "behind the fleet";
      else if (why.empty())
        why = channel_problem(fleet_->channel(i), {});
      if (!why.empty()) t.fail(1, "fleet_mixed channel " + std::to_string(i) + ": " + why);
      bad_[i].clear();
    }
  }

  long ops_per_frame() const override { return static_cast<long>(kChannels); }
  double channel_seconds_per_frame() const override { return kChannels * kTickSeconds; }
  std::uint64_t underruns() const override {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kChannels; ++i) n += fleet_->channel(i).stimulus()->underruns();
    return n;
  }
  long hash_frames() const override { return 80; }
  std::uint64_t output_hash() const override {
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < kChannels; ++i) h = fold_hash(h, fleet_->channel(i).output_hash());
    return h;
  }

  void final_check(Tally& t) override {
    long due = 0;
    for (long tick : crash_ticks_) due += tick < fleet_->ticks_run() ? 1 : 0;
    if (fleet_->restarts(kCrashChannel) != due)
      t.fail(1, "fleet_mixed: " + std::to_string(fleet_->restarts(kCrashChannel)) +
                    " restarts for " + std::to_string(due) + " injected crashes");
    // The crash-injected channel, restored and caught up, must be bit-exact
    // with a clean solo twin built from its own config.
    const ConditioningChannel& crashed = fleet_->channel(kCrashChannel);
    ConditioningChannel twin(crashed.config());
    twin.advance(crashed.ticks_advanced());
    if (twin.output_hash() != crashed.output_hash())
      t.fail(1, "fleet_mixed: crash-restored channel diverged from its clean twin");
  }

  ChannelConfig reference_config() const override {
    return fleet_->channel(kFullChannel).config();
  }

  void engine_figures(Tracer& tr, HostSpeed& host, EngineFigures& out) override {
    // A fleet tick mixes every channel with supervision and obs, so a
    // channel's per-tick cost comes from solo twins, one per kind, built from
    // the fleet's configs (flight recorder armed).
    const long ticks = ticks_per_fleet_tick();
    const std::pair<const char*, std::size_t> kinds[] = {
        {"GyroIdeal", 1}, {"GyroFull", kFullChannel}, {"Adxrs300", 12}, {"Gyrostar", 14}};
    const double counts[] = {8, 4, 2, 2};
    std::vector<std::unique_ptr<ConditioningChannel>> twins;
    for (const auto& [kind, index] : kinds) {
      Tracer::Scope s(tr, "solo.twin");
      twins.push_back(std::make_unique<ConditioningChannel>(fleet_->channel(index).config()));
      twins.back()->advance(ticks_of(kWarmupSeconds));
      (void)twins.back()->take_outputs();
      const double ns = solo_ns_per_tick(*twins.back(), ticks, 40, host);
      if (index == kFullChannel) out.advance_ns_per_tick = ns;
      out.info.push_back({std::string("engine.advance_ns_per_tick.") + kind, ns, "ns"});
    }
    // Pool efficiency (with one worker: the share of a plain tick that is
    // channel work) from raw times taken back to back: a plain fleet tick,
    // then every kind's twin over one tick, weighted by how many the fleet has.
    std::vector<double> pooled, solo;
    while (pooled.size() < 8) {
      const bool checkpoint = (fleet_->ticks_run() + 1) % kCheckpointInterval == 0;
      const double raw = wall_of([&] { fleet_->run_ticks(1); });
      if (checkpoint) continue;
      pooled.push_back(raw);
      double sum = 0.0;
      for (std::size_t k = 0; k < twins.size(); ++k) {
        sum += counts[k] * wall_of([&] { twins[k]->advance(ticks); });
        (void)twins[k]->take_outputs();
      }
      solo.push_back(sum);
    }
    const auto& st = fleet_->stats();
    // Checkpoint ticks cost their plain-tick time plus the snapshots.
    const double plain = tr.ns_per_call("run_ticks");
    const Tracer::Stat* p = tr.find("run_ticks");
    const Tracer::Stat* cp = tr.find("run_ticks.checkpoint");
    const double all = (p ? p->ns : 0.0) + (cp ? cp->ns : 0.0);
    const double excess = cp ? cp->ns - static_cast<double>(cp->calls) * plain : 0.0;
    out.set("engine.take_outputs_ns", tr.ns_per_call("consume"), "ns");
    out.set("engine.pool_efficiency", median(solo) / (kWorkerThreads * median(pooled)),
            "ratio");
    out.set("engine.checkpoint_share", all > 0 ? excess / all : 0.0, "ratio");
    out.set("engine.checkpoints", static_cast<double>(st.checkpoints), "count");
    out.set("engine.restarts", static_cast<double>(st.restarts), "count");
    out.set("obs.blackbox_bytes", blackbox_bytes_, "B");
    if (!st.mttr_ms.empty()) out.info.push_back({"engine.mttr_ms", median(st.mttr_ms), "ms"});
  }

  void info(std::vector<Metric>& out) const override {
    const auto& st = fleet_->stats();
    out.push_back({"fleet.restarts", static_cast<double>(st.restarts), "count"});
    out.push_back({"fleet.checkpoints", static_cast<double>(st.checkpoints), "count"});
    out.push_back({"fleet.quarantined", static_cast<double>(st.quarantined), "count"});
    out.push_back({"fleet.blackbox_dumps", static_cast<double>(st.blackbox_dumps), "count"});
    if (!st.mttr_ms.empty()) out.push_back({"fleet.mttr_ms", median(st.mttr_ms), "ms"});
  }

 private:
  long ticks_per_fleet_tick() const { return std::llround(kTickSeconds * kBaseRate); }

  Tracer untraced_;
  Tracer* tr_ = &untraced_;  ///< the consumer's tracer: the current frame's
  obs::Observability fobs_;
  std::unique_ptr<engine::FleetSupervisor> fleet_;
  std::vector<long> crash_ticks_;
  std::vector<std::string> bad_;
  std::vector<std::vector<std::uint8_t>> blackboxes_;
  double blackbox_bytes_ = 0.0;
};

// ---- ingest_replay ----------------------------------------------------------
// The external-data path: two GyroFull closed-loop channels on the calling
// thread. A replays a recorded .strace chirp (48 kHz, linear interpolation,
// temperature in 0.125 °C steps — the kTemp register's resolution); B is fed
// 3840 pushed samples per frame through a QueueSource.
class IngestReplay final : public Workload {
 public:
  static constexpr double kTraceRate = 48e3;
  static constexpr double kTraceSeconds = 24.0;

  explicit IngestReplay(std::uint64_t seed) {
    Rng rng(seed);
    const double amp = rng.uniform(50.0, 150.0);
    const double f0 = rng.uniform(1.0, 5.0);
    const double f1 = rng.uniform(20.0, 60.0);
    const double t0_c = rng.uniform(-30.0, 0.0);
    const auto chirp = sensor::Profile::chirp(amp, f0, f1, 0.0, kTraceSeconds);
    sensor::StimulusTrace trace;
    trace.sample_rate_hz = kTraceRate;
    trace.interp = sensor::TraceInterp::Linear;
    const std::size_t n = static_cast<std::size_t>(kTraceSeconds * kTraceRate);
    trace.samples.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(k) / kTraceRate;
      trace.samples[k] = {chirp.at(t), t0_c + 0.125 * std::floor(t / 0.05)};
    }
    // The trace crosses the codec in memory, as a captured file would.
    const std::vector<std::uint8_t> bytes = sensor::encode_strace(trace);
    auto decoded = std::make_shared<const sensor::StimulusTrace>(sensor::decode_strace(bytes));
    trace_ticks_ = static_cast<long>(static_cast<double>(n) * (kBaseRate / kTraceRate));

    ChannelConfig a;
    a.kind = ChannelKind::GyroFull;
    a.seed = rng.next_u64();
    a.stimulus_factory = [decoded](double fs) {
      return std::make_unique<sensor::RecordedSource>(decoded, fs);
    };
    ChannelConfig b;
    b.kind = ChannelKind::GyroFull;
    b.seed = rng.next_u64();
    b.stimulus_factory = [](double) { return std::make_unique<sensor::QueueSource>(); };
    b_amp_ = rng.uniform(20.0, 120.0);
    b_freq_ = rng.uniform(2.0, 30.0);
    b_temp_ = rng.uniform(-10.0, 40.0);
    a_ = std::make_unique<ConditioningChannel>(a);
    b_ = std::make_unique<ConditioningChannel>(b);
    queue_ = dynamic_cast<sensor::QueueSource*>(b_->stimulus());
    if (!queue_) throw std::logic_error("ingest_replay: channel B has no queue source");
    buf_.resize(kFrameTicks);
  }

  double frame_seconds() const override { return kFrameTicks / kBaseRate; }

  void prepare() override {
    const long t0 = b_->ticks_advanced();
    for (long k = 0; k < kFrameTicks; ++k) {
      const double t = static_cast<double>(t0 + k) / kBaseRate;
      buf_[static_cast<std::size_t>(k)] = {b_amp_ * std::sin(kTwoPi * b_freq_ * t), b_temp_};
    }
  }

  void frame(Tracer& tr) override {
    {
      Tracer::Scope s(tr, "push", kFrameTicks);
      for (const auto& smp : buf_) refused_ += queue_->push(smp) ? 0 : 1;
    }
    {
      Tracer::Scope s(tr, "advance.A", kFrameTicks);
      a_->advance(kFrameTicks);
    }
    {
      Tracer::Scope s(tr, "advance.B", kFrameTicks);
      b_->advance(kFrameTicks);
    }
    Tracer::Scope s(tr, "take_outputs");
    out_a_ = a_->take_outputs();
    out_b_ = b_->take_outputs();
  }

  void check_frame(Tally& t) override {
    ++t.attempted;
    std::string why = refused_ ? "queue refused a push" : channel_problem(*a_, out_a_);
    if (why.empty()) why = channel_problem(*b_, out_b_);
    if (!why.empty()) t.fail(1, "ingest_replay: " + why);
  }

  double channel_seconds_per_frame() const override { return 2.0 * kFrameTicks / kBaseRate; }
  bool exhausted() const override {
    // Linear interpolation reads one trace sample ahead; stop a frame early.
    return a_->ticks_advanced() + 2 * kFrameTicks > trace_ticks_;
  }
  std::uint64_t underruns() const override {
    return a_->stimulus()->underruns() + b_->stimulus()->underruns();
  }
  long hash_frames() const override { return 100; }
  std::uint64_t output_hash() const override {
    return fold_hash(fold_hash(kFnvBasis, a_->output_hash()), b_->output_hash());
  }
  void final_check(Tally&) override {}
  ChannelConfig reference_config() const override { return a_->config(); }

  void engine_figures(Tracer& tr, HostSpeed&, EngineFigures& out) override {
    out.advance_ns_per_tick = tr.ns_per_unit("advance.A");
    const Tracer::Stat* a = tr.find("advance.A");
    const Tracer::Stat* b = tr.find("advance.B");
    const Tracer::Stat* frame = tr.find("frame");
    out.set("engine.take_outputs_ns", tr.ns_per_call("take_outputs") / 2, "ns");
    out.set("engine.pool_efficiency",
            a && b && frame && frame->ns > 0 ? (a->ns + b->ns) / frame->ns : 0.0, "ratio");
    out.info.push_back({"ingest.push_ns", tr.ns_per_unit("push"), "ns"});
    out.info.push_back({"ingest.advance_ns_per_tick.B", tr.ns_per_unit("advance.B"), "ns"});
  }

 private:
  std::unique_ptr<ConditioningChannel> a_, b_;
  sensor::QueueSource* queue_ = nullptr;
  long trace_ticks_ = 0;
  double b_amp_ = 0.0, b_freq_ = 0.0, b_temp_ = 25.0;
  std::vector<sensor::StimulusSample> buf_;
  long refused_ = 0;
  std::vector<double> out_a_, out_b_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hil_full", "sweep_ideal", "fleet_mixed",
                                                 "ingest_replay"};
  return names;
}

double host_sensitivity(std::string_view name) {
  // Calibrated on the 4-vCPU host the baseline comes from: the exponent that
  // made sixteen same-length runs of each workload agree best while the
  // probe read between 1.1× and 2.2× its unloaded time (README, "Noise"). The
  // GyroFull workloads slow almost like the probe; the 64-channel sweep and
  // the fleet, whose checkpoint ticks copy megabytes, less.
  if (name == "hil_full") return 0.95;
  if (name == "sweep_ideal") return 0.6;
  if (name == "fleet_mixed") return 0.85;
  if (name == "ingest_replay") return 0.9;
  return 1.0;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "hil_full") return std::make_unique<HilFull>(seed);
  if (name == "sweep_ideal") return std::make_unique<SweepIdeal>(seed);
  if (name == "fleet_mixed") return std::make_unique<FleetMixed>(seed);
  if (name == "ingest_replay") return std::make_unique<IngestReplay>(seed);
  return nullptr;
}

}  // namespace ledger
