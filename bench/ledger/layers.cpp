#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "afe/dac.hpp"
#include "afe/reference.hpp"
#include "analysis/firmware_corpus.hpp"
#include "common/rng.hpp"
#include "core/gyro_system.hpp"
#include "safety/supervisor.hpp"
#include "sensor/stimulus_source.hpp"

namespace ledger {

using namespace ascp;
using engine::ChannelConfig;
using engine::ConditioningChannel;

namespace {

constexpr double kCaptureSeconds = 0.1;
/// Repetitions per kernel loop. The fastest is kept: noise from the rest of
/// the machine only ever adds time to an isolated kernel.
constexpr int kReps = 5;

struct Pair {
  double a = 0.0, b = 0.0;
};

/// Read-only capture of the chain taps while armed.
class CaptureProbe final : public sensor::Probe {
 public:
  bool armed = false;
  std::vector<sensor::StimulusSample> stim;  ///< per analog tick
  std::vector<Pair> mems, afe;               ///< per analog tick
  std::vector<Pair> adc;                     ///< per DSP sample
  std::vector<long> adc_tick;
  long first_tick = -1;

  bool wants(sensor::ProbePoint p) const override {
    return p != sensor::ProbePoint::DecimatedOutput;
  }
  void on_frame(const sensor::ProbeFrame& f) override {
    if (!armed) return;
    switch (f.point) {
      case sensor::ProbePoint::Stimulus:
        if (first_tick < 0) first_tick = f.tick;
        stim.push_back({f.a, f.b});
        break;
      case sensor::ProbePoint::PostMems: mems.push_back({f.a, f.b}); break;
      case sensor::ProbePoint::PostAfe: afe.push_back({f.a, f.b}); break;
      case sensor::ProbePoint::PostAdc:
        adc.push_back({f.a, f.b});
        adc_tick.push_back(f.tick);
        break;
      case sensor::ProbePoint::DecimatedOutput: break;
    }
  }
};

volatile double g_sink = 0.0;  ///< keeps timed results observable

/// Fastest of kReps rescaled runs of `body`, in ns per `units`; each run is
/// a span.
template <typename Fn>
double time_kernel(Tracer& tr, HostSpeed& host, const char* span, double units, Fn&& body) {
  std::vector<double> per_unit;
  for (int r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, span, units);
    per_unit.push_back(host.time(body) * 1e9 / units);
  }
  return *std::min_element(per_unit.begin(), per_unit.end());
}

std::unique_ptr<sensor::StimulusSource> stimulus_of(const ChannelConfig& c, double fs) {
  if (c.stimulus_factory) return c.stimulus_factory(fs);
  return std::make_unique<sensor::SyntheticSource>(
      c.rate_profile ? *c.rate_profile : sensor::Profile::constant(c.rate_dps),
      c.temp_profile ? *c.temp_profile : sensor::Profile::constant(c.temp_c), fs);
}

/// The supervisor configuration GyroSystem derives from its own config.
safety::SupervisorConfig supervisor_config(const core::GyroSystemConfig& c) {
  safety::SupervisorConfig s;
  s.fs = c.analog_fs / c.adc_div;
  s.null_v = c.sense.output_offset;
  s.adc_vref = c.adc.vref;
  s.agc_gain_max = c.drive.agc.gain_max;
  s.ctrl_limit_v = c.sense.ctrl_limit;
  s.drive_amplitude_target = c.drive.agc.target;
  return s;
}

}  // namespace

LayerReport replay_layers(const ChannelConfig& ref, double advance_ns_per_tick, Tracer& tr,
                          HostSpeed& host) {
  LayerReport rep;
  auto put = [&rep](const std::string& name, double v, const char* unit) {
    rep.metrics.push_back({name, v, unit});
  };

  // ---- capture ---------------------------------------------------------------
  CaptureProbe probe;
  core::GyroSystemConfig sys;
  ChannelConfig cc = ref;
  cc.configure = [&sys, user = ref.configure](core::GyroSystemConfig& g) {
    if (user) user(g);
    sys = g;
  };
  cc.probe = &probe;
  ConditioningChannel cap(cc);
  if (!cap.gyro()) throw std::invalid_argument("replay_layers: reference is not a gyro channel");
  const double fs = cap.base_rate_hz();
  {
    Tracer::Scope s(tr, "layer.capture");
    cap.advance(std::llround(kWarmupSeconds * fs));
    probe.armed = true;
    cap.advance(std::llround(kCaptureSeconds * fs));
    probe.armed = false;
  }
  core::GyroSystem& g = *cap.gyro();
  const bool full = sys.fidelity == core::Fidelity::Full;
  const long n_tick = static_cast<long>(probe.stim.size());
  const long n_dsp = static_cast<long>(probe.adc.size());
  if (n_tick == 0 || n_dsp == 0 || static_cast<long>(probe.mems.size()) != n_tick)
    throw std::runtime_error("replay_layers: capture is empty");
  const auto temp_at = [&](long tick) {
    return probe.stim[static_cast<std::size_t>(tick - probe.first_tick)].temp_c;
  };
  const double dt = 1.0 / fs;

  // ---- core: drive loop and sense chain, per DSP sample ------------------------
  std::vector<double> sp(n_dsp), ss(n_dsp), tk(n_dsp), ci(n_dsp), cq(n_dsp), dv(n_dsp), cv(n_dsp);
  for (long k = 0; k < n_dsp; ++k) {
    sp[k] = probe.adc[k].a;
    ss[k] = probe.adc[k].b;
    tk[k] = temp_at(probe.adc_tick[k]);
  }
  core::DriveLoop& drive = g.drive();
  const double drive_ns = time_kernel(tr, host, "layer.drive", n_dsp, [&] {
    for (long k = 0; k < n_dsp; ++k) {
      dv[k] = drive.step(sp[k]);
      ci[k] = drive.carrier_i();
      cq[k] = drive.carrier_q();
    }
  });
  std::vector<safety::FastSample> fast(n_dsp);
  for (long k = 0; k < n_dsp; ++k) {
    drive.step(sp[k]);
    fast[k] = {sp[k], ss[k], drive.pll_locked(), drive.locked(), drive.amplitude_control(),
               drive.amplitude(), 0.0};
  }

  core::SenseChain& sense = g.sense();
  const double sense_ns = time_kernel(tr, host, "layer.sense", n_dsp, [&] {
    for (long k = 0; k < n_dsp; ++k) cv[k] = sense.step(ss[k], ci[k], cq[k]).control_v;
  });
  std::vector<safety::SlowSample> slow;
  const double sense_slow_ns = time_kernel(tr, host, "layer.sense+slow", n_dsp, [&] {
    slow.clear();
    for (long k = 0; k < n_dsp; ++k) {
      cv[k] = sense.step(ss[k], ci[k], cq[k]).control_v;
      if (const auto o = sense.slow_output(tk[k])) slow.push_back({o->rate, o->quad, tk[k]});
    }
  });
  if (slow.empty()) throw std::runtime_error("replay_layers: no decimated output captured");
  for (long k = 0; k < n_dsp; ++k) fast[k].control_v = cv[k];

  core::SenseChainConfig open = sys.sense;
  open.mode = core::SenseMode::OpenLoop;
  core::SenseChain block(open);
  const double block_ns = time_kernel(tr, host, "layer.sense_block", n_dsp, [&] {
    for (long k = 0; k < n_dsp;) {
      const long b = std::min<long>(std::max<long>(block.samples_until_slow(), 1), n_dsp - k);
      block.step_block({ss.data() + k, static_cast<std::size_t>(b)},
                       {ci.data() + k, static_cast<std::size_t>(b)},
                       {cq.data() + k, static_cast<std::size_t>(b)});
      k += b;
    }
  });

  // ---- afe: DACs, charge amplifiers, acquisition, temperature sensor ----------
  Rng rng(ref.seed);
  afe::Dac dac_drive(sys.dac, rng.fork(6)), dac_ctrl(sys.dac, rng.fork(7));
  std::vector<double> vd(n_tick), vc(n_tick);
  const double dac_ns = time_kernel(tr, host, "layer.dac", n_tick, [&] {
    long j = 0;
    for (long k = 0; k < n_tick; ++k) {
      const double t = probe.stim[k].temp_c;
      vd[k] = dac_drive.output(dt, t);
      vc[k] = dac_ctrl.output(dt, t);
      if (k % sys.adc_div == sys.adc_div - 1 && j < n_dsp) {
        dac_drive.write_volts(dv[j]);
        dac_ctrl.write_volts(cv[j]);
        ++j;
      }
    }
  });

  // ---- sensor: MEMS ring, stimulus source, queue, .strace codec -----------------
  sensor::GyroMems& mems = g.mems();
  const double mems_ns = time_kernel(tr, host, "layer.mems", n_tick, [&] {
    double acc = 0.0;
    for (long k = 0; k < n_tick; ++k) {
      sensor::GyroInputs in;
      in.v_drive = vd[k];
      in.v_control = vc[k];
      in.rate_dps = probe.stim[k].rate_dps;
      in.temp_c = probe.stim[k].temp_c;
      acc += mems.step(in).dc_sense;
    }
    g_sink = acc;
  });

  std::vector<double> vp(n_tick), vs(n_tick);
  afe::ChargeAmp& amp_p = *g.champ_primary();
  afe::ChargeAmp& amp_s = *g.champ_sense();
  const double champ_ns = time_kernel(tr, host, "layer.charge_amp", n_tick, [&] {
    for (long k = 0; k < n_tick; ++k) {
      const double t = probe.stim[k].temp_c;
      vp[k] = amp_p.step(probe.mems[k].a, t);
      vs[k] = amp_s.step(probe.mems[k].b, t);
    }
  });
  if (full && static_cast<long>(probe.afe.size()) == n_tick)
    for (long k = 0; k < n_tick; ++k) {
      vp[k] = probe.afe[k].a;
      vs[k] = probe.afe[k].b;
    }
  afe::AcquisitionChannel& acq_p = *g.acq_primary();
  afe::AcquisitionChannel& acq_s = *g.acq_sense();
  const double acq_ns = time_kernel(tr, host, "layer.acq", n_tick, [&] {
    double acc = 0.0;
    for (long k = 0; k < n_tick; ++k) {
      const double t = probe.stim[k].temp_c;
      if (const auto a = acq_p.step(vp[k], t)) acc += *a;
      if (const auto b = acq_s.step(vs[k], t)) acc += *b;
    }
    g_sink = acc;
  });

  afe::TempSensor temp_sensor(0.3, 0.5, rng.fork(8));
  const double temp_ns = time_kernel(tr, host, "layer.temp_read", n_dsp, [&] {
    double acc = 0.0;
    for (long k = 0; k < n_dsp; ++k) acc += temp_sensor.read(tk[k]);
    g_sink = acc;
  });

  auto src = stimulus_of(ref, fs);
  const double stim_ns = time_kernel(tr, host, "layer.stimulus", n_tick, [&] {
    double acc = 0.0;
    for (long k = 0; k < n_tick; ++k) acc += src->sample(probe.first_tick + k).rate_dps;
    g_sink = acc;
  });

  sensor::QueueSource queue;
  constexpr long kChunk = 3840;
  double push_ns = 0.0;
  long pushes = 0;
  {
    Tracer::Scope s(tr, "layer.queue_push", static_cast<double>(n_tick));
    for (long k = 0; k + kChunk <= n_tick; k += kChunk) {
      push_ns += 1e9 * host.time([&] {
        for (long i = k; i < k + kChunk; ++i) queue.push(probe.stim[i]);
      });
      pushes += kChunk;
      for (long i = 0; i < kChunk; ++i) queue.sample(i);
    }
  }

  sensor::StimulusTrace captured;
  captured.sample_rate_hz = fs;
  captured.samples = probe.stim;
  std::vector<std::uint8_t> strace;
  {
    Tracer::Scope s(tr, "strace.encode", static_cast<double>(n_tick));
    strace = sensor::encode_strace(captured);
  }
  const double decode_ns = time_kernel(tr, host, "strace.decode", n_tick, [&] {
    g_sink = static_cast<double>(sensor::decode_strace(strace).samples.size());
  });

  // ---- safety: supervisor fast and slow hooks -----------------------------------
  std::unique_ptr<safety::SafetySupervisor> own_sup;
  safety::SafetySupervisor* sup = g.supervisor();
  if (!sup) {
    own_sup = std::make_unique<safety::SafetySupervisor>(supervisor_config(sys));
    sup = own_sup.get();
  }
  const double fast_ns = time_kernel(tr, host, "layer.on_fast", n_dsp, [&] {
    for (const auto& f : fast) sup->on_fast(f);
  });
  // One decimated output per 128 DSP samples: replay them 16 times over.
  constexpr int kSlowPasses = 16;
  const double slow_calls = static_cast<double>(slow.size() * kSlowPasses);
  const double slow_ns = time_kernel(tr, host, "layer.on_slow", slow_calls, [&] {
    double acc = 0.0;
    for (int r = 0; r < kSlowPasses; ++r)
      for (const auto& s : slow) acc += sup->on_slow(s).output_v;
    g_sink = acc;
  });

  // ---- mcu: the 8051 slice per decimated output ----------------------------------
  std::unique_ptr<platform::McuSubsystem> own_mcu;
  platform::McuSubsystem* mcu = &g.platform();
  if (!sys.with_mcu) {
    own_mcu = std::make_unique<platform::McuSubsystem>();
    own_mcu->load_firmware(
        analysis::corpus::assemble_watchdog_kicker(own_mcu->config().map).image);
    if (auto* wd = own_mcu->watchdog()) {
      wd->write_reg(1, 30000);
      wd->write_reg(2, 1);
    }
    mcu = own_mcu.get();
  }
  const long cycles = mcu->cycles_per_sample(g.output_rate_hz());
  constexpr int kSlices = 300;
  const double slice_ns = time_kernel(tr, host, "layer.run_cpu", kSlices, [&] {
    for (int r = 0; r < kSlices; ++r) mcu->run_cpu(cycles);
  });

  // ---- reconciliation --------------------------------------------------------
  // Calls per base tick of each kernel in the reference pipeline: analog
  // stages every tick, DSP stages every adc_div ticks, the supervisor's slow
  // hook and the 8051 slice once per decimated output.
  const bool safety_on = sys.with_safety;
  const bool mcu_on = sys.with_mcu;
  const bool batched = g.sense().config().mode == core::SenseMode::OpenLoop && !safety_on &&
                       !ref.with_faults && !ref.campaign_factory && !ref.with_trace && !mcu_on;
  const double dsp = 1.0 / sys.adc_div;
  const double out = dsp / sys.sense.cic_ratio;
  const double slow_output_ns = sense_slow_ns - sense_ns;
  rep.rows = {
      {"sensor.stimulus_ns", stim_ns, 1.0},
      {"sensor.mems_step_ns", mems_ns, 1.0},
      {"afe.charge_amp_ns", champ_ns, full ? 1.0 : 0.0},
      {"afe.acq_ns", acq_ns, full ? 1.0 : 0.0},
      {"afe.dac_ns", dac_ns, full ? 1.0 : 0.0},
      {"afe.temp_read_ns", temp_ns, dsp},
      {"core.drive_step_ns", drive_ns, dsp},
      {"core.sense_step_ns", sense_ns, batched ? 0.0 : dsp},
      {"core.sense_block_ns_per_sample", block_ns, batched ? dsp : 0.0},
      {"core.slow_output_ns", slow_output_ns, dsp},
      {"safety.on_fast_ns", fast_ns, safety_on ? dsp : 0.0},
      {"safety.on_slow_ns", slow_ns, safety_on ? out : 0.0},
      {"mcu.run_cpu_ns", slice_ns, mcu_on ? out : 0.0},
  };
  rep.advance_ns_per_tick = advance_ns_per_tick;
  for (const LayerRow& r : rep.rows) rep.kernels_ns_per_tick += r.ns_per_call * r.calls_per_tick;
  rep.residual_ns_per_tick = advance_ns_per_tick - rep.kernels_ns_per_tick;

  for (const LayerRow& r : rep.rows)
    if (r.metric != "mcu.run_cpu_ns") put(r.metric, r.ns_per_call, "ns");
  put("sensor.queue_push_ns", pushes ? push_ns / pushes : 0.0, "ns");
  put("sensor.strace_decode_ns_per_sample", decode_ns, "ns");
  put("mcu.run_cpu_ns_per_cycle", slice_ns / static_cast<double>(cycles), "ns");
  put("mcu.cycles_per_output", mcu_on ? static_cast<double>(cycles) : 0.0, "count");

  put("platform.residual_ns_per_tick", rep.residual_ns_per_tick, "ns");
  put("engine.advance_ns_per_tick", advance_ns_per_tick, "ns");

  // ---- twins: obs attach cost, checkpoint cost, an analog baseline ----------------
  ChannelConfig bare = ref, with_obs = ref, with_rec = ref;
  bare.with_obs = bare.with_flight_recorder = false;
  with_obs.with_obs = true;
  with_obs.with_flight_recorder = false;
  with_rec.with_flight_recorder = true;
  ConditioningChannel t_bare(bare), t_obs(with_obs), t_rec(with_rec);
  ConditioningChannel* twins[] = {&t_bare, &t_obs, &t_rec};
  const long warm = std::llround(0.05 * fs), chunk = std::llround(0.02 * fs);
  std::vector<double> twin_ns[3];
  {
    Tracer::Scope s(tr, "layer.obs_twins");
    for (auto* t : twins) t->advance(warm);
    for (int r = 0; r < 6; ++r)
      for (int k = 0; k < 3; ++k) {
        twin_ns[k].push_back(1e9 * host.time([&] { twins[k]->advance(chunk); }));
        (void)twins[k]->take_outputs();
      }
  }
  const double base_ns = median(twin_ns[0]);
  put("obs.obs_overhead_pct", (median(twin_ns[1]) / base_ns - 1.0) * 100.0, "%");
  put("obs.recorder_overhead_pct", (median(twin_ns[2]) / base_ns - 1.0) * 100.0, "%");

  ConditioningChannel& like_ref =
      ref.with_flight_recorder ? t_rec : ref.with_obs ? t_obs : t_bare;
  double task_calls = 0.0;
  for (const auto& t : like_ref.gyro()->schedule_tasks())
    task_calls += 1.0 / static_cast<double>(t.divider);
  put("platform.task_calls_per_tick", task_calls, "count");
  std::vector<std::uint8_t> image;
  std::vector<double> snap_us, restore_us;
  ConditioningChannel fresh(like_ref.config());
  for (int r = 0; r < 5; ++r) {
    {
      Tracer::Scope s(tr, "snapshot");
      snap_us.push_back(1e6 * host.time([&] { image = like_ref.snapshot(); }));
    }
    Tracer::Scope s(tr, "restore");
    restore_us.push_back(1e6 * host.time([&] { fresh.restore(image); }));
  }
  put("engine.snapshot_us", median(snap_us), "us");
  put("engine.snapshot_bytes", static_cast<double>(image.size()), "B");
  put("engine.restore_us", median(restore_us), "us");

  ChannelConfig baseline = ref;
  baseline.kind = engine::ChannelKind::Adxrs300;
  baseline.configure = nullptr;
  baseline.customize = nullptr;
  baseline.with_safety = baseline.with_obs = baseline.with_flight_recorder = false;
  {
    Tracer::Scope s(tr, "layer.baseline");
    ConditioningChannel bl(baseline);
    bl.advance(warm);
    put("core.baseline_ns_per_tick", solo_ns_per_tick(bl, chunk, 5, host), "ns");
  }
  return rep;
}

}  // namespace ledger
