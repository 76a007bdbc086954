// Microbenchmarks (google-benchmark) of the DSP IPs and the full simulation
// step — documents the simulator's throughput (how many seconds of platform
// operation per wall second) and the relative kernel costs.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/gyro_system.hpp"
#include "core/sense_chain.hpp"
#include "dsp/biquad.hpp"
#include "dsp/cic.hpp"
#include "dsp/fir.hpp"
#include "dsp/nco.hpp"
#include "dsp/pll.hpp"
#include "mcu/assembler.hpp"
#include "mcu/core8051.hpp"
#include "sensor/environment.hpp"
#include "sensor/gyro_mems.hpp"

using namespace ascp;

static void BM_FirFilter33(benchmark::State& state) {
  dsp::FirFilter fir(dsp::design_lowpass(33, 75.0, 1875.0));
  double x = 0.3;
  for (auto _ : state) {
    x = fir.process(x * 0.999 + 0.001);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FirFilter33);

static void BM_FirFilterFx33(benchmark::State& state) {
  dsp::FirFilterFx fir(dsp::design_lowpass(33, 75.0, 1875.0), 16, 14, 24);
  double x = 0.3;
  for (auto _ : state) {
    x = fir.process(x * 0.999 + 0.001);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FirFilterFx33);

static void BM_Biquad(benchmark::State& state) {
  dsp::Biquad bq(dsp::design_biquad_lowpass(400.0, 0.707, 240e3));
  double x = 0.3;
  for (auto _ : state) {
    x = bq.process(x * 0.999 + 0.001);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Biquad);

static void BM_Nco(benchmark::State& state) {
  dsp::Nco nco(240e3, 15e3);
  for (auto _ : state) benchmark::DoNotOptimize(nco.step());
}
BENCHMARK(BM_Nco);

static void BM_CicDecimator(benchmark::State& state) {
  dsp::CicDecimator cic(3, 128, 16, 2.5);
  double x = 0.1;
  for (auto _ : state) {
    x = x * 0.999 + 0.001;
    benchmark::DoNotOptimize(cic.push(x));
  }
}
BENCHMARK(BM_CicDecimator);

// ---- full sense chain, one channel ------------------------------------------
// Open-loop chain at the 240 kHz DSP rate: the farm's per-channel hot path.
// items/s here is DSP samples per second.

static void BM_SenseChainStep(benchmark::State& state) {
  core::SenseChainConfig cfg;
  cfg.mode = core::SenseMode::OpenLoop;
  core::SenseChain chain(cfg);
  dsp::Nco nco(cfg.fs, 15e3);
  for (auto _ : state) {
    nco.step();
    chain.step(0.3 * nco.cosine(), nco.sine(), nco.cosine());
    benchmark::DoNotOptimize(chain.slow_output(25.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SenseChainStep);

static void BM_PllStep(benchmark::State& state) {
  dsp::Pll pll(dsp::PllConfig{});
  double pickoff = 0.0;
  for (auto _ : state) {
    const double drive = pll.step(pickoff);
    pickoff = 0.9 * drive;  // crude loop closure
    benchmark::DoNotOptimize(pickoff);
  }
}
BENCHMARK(BM_PllStep);

static void BM_GyroMemsRk4Step(benchmark::State& state) {
  sensor::GyroMemsConfig cfg;
  sensor::GyroMems mems(cfg, Rng(1));
  sensor::GyroInputs in;
  in.v_drive = 1.0;
  in.rate_dps = 100.0;
  for (auto _ : state) benchmark::DoNotOptimize(mems.step(in));
}
BENCHMARK(BM_GyroMemsRk4Step);

static void BM_Core8051Instruction(benchmark::State& state) {
  mcu::Core8051 core;
  mcu::Assembler as;
  core.load_program(as.assemble(R"(
loop: MOV A,#5
      ADD A,#3
      MOV R2,A
      DJNZ R2,skip
skip: SJMP loop
  )").image);
  for (auto _ : state) benchmark::DoNotOptimize(core.step());
}
BENCHMARK(BM_Core8051Instruction);

// Profile evaluation sits on the per-tick stimulus path of every channel, so
// the tagged-union dispatch has a perf row of its own. The mix covers the
// analytic kinds; the Fn row prices the std::function escape hatch against it.
static void BM_ProfileEval(benchmark::State& state) {
  const sensor::Profile profiles[4] = {
      sensor::Profile::sine(100.0, 25.0),
      sensor::Profile::staircase({-50.0, 0.0, 50.0, 100.0}, 0.25),
      sensor::Profile::chirp(80.0, 10.0, 400.0, 0.0, 1.0),
      sensor::Profile::ramp(-10.0, 10.0, 0.0, 1.0),
  };
  double t = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiles[i & 3].at(t));
    t += 1e-6;
    ++i;
  }
}
BENCHMARK(BM_ProfileEval);

static void BM_ProfileEvalFn(benchmark::State& state) {
  const sensor::Profile p{sensor::Profile::Fn(
      [](double t) { return 100.0 * std::sin(2.0 * 3.141592653589793 * 25.0 * t); })};
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.at(t));
    t += 1e-6;
  }
}
BENCHMARK(BM_ProfileEvalFn);

static void BM_FullSystemMillisecond_Ideal(benchmark::State& state) {
  core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Ideal));
  sys.power_on(1);
  const auto rate = sensor::Profile::constant(100.0);
  const auto temp = sensor::Profile::constant(25.0);
  for (auto _ : state) sys.run(rate, temp, 1e-3, nullptr);
}
BENCHMARK(BM_FullSystemMillisecond_Ideal)->Unit(benchmark::kMillisecond);

static void BM_FullSystemMillisecond_Full(benchmark::State& state) {
  core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Full));
  sys.power_on(1);
  const auto rate = sensor::Profile::constant(100.0);
  const auto temp = sensor::Profile::constant(25.0);
  for (auto _ : state) sys.run(rate, temp, 1e-3, nullptr);
}
BENCHMARK(BM_FullSystemMillisecond_Full)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
