// Sense-chain tests with synthetic carriers: demodulation mapping,
// decimation, compensation hookup and the closed-loop servo behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common/math.hpp"
#include "core/sense_chain.hpp"
#include "dsp/nco.hpp"

namespace ascp::core {
namespace {

constexpr double kFs = 240e3;

SenseChainConfig open_loop_config() {
  SenseChainConfig cfg;
  cfg.fs = kFs;
  cfg.mode = SenseMode::OpenLoop;
  return cfg;
}

/// Drive the chain with pickoff = a·sin + b·cos and collect slow outputs.
std::vector<double> run_chain(SenseChain& chain, double a, double b, double seconds,
                              double temp_c = 25.0) {
  dsp::Nco nco(kFs, 15e3);
  std::vector<double> out;
  const long n = static_cast<long>(seconds * kFs);
  for (long i = 0; i < n; ++i) {
    nco.step();
    chain.step(a * nco.sine() + b * nco.cosine(), nco.sine(), nco.cosine());
    if (const auto slow = chain.slow_output(temp_c)) out.push_back(slow->rate);
  }
  return out;
}

TEST(SenseChain, OutputRateIsFsOverCicRatio) {
  SenseChain chain(open_loop_config());
  EXPECT_DOUBLE_EQ(chain.output_rate_hz(), kFs / 128.0);
  const auto out = run_chain(chain, 0.0, 0.0, 0.1);
  EXPECT_NEAR(static_cast<double>(out.size()), 0.1 * kFs / 128.0, 2.0);
}

TEST(SenseChain, CosineComponentIsTheRateChannel) {
  SenseChain chain(open_loop_config());
  const auto out = run_chain(chain, 0.0, 0.4, 0.3);
  // Open loop: output = raw (cos amplitude) + 2.5 V offset.
  EXPECT_NEAR(out.back(), 2.5 + 0.4, 0.02);
}

TEST(SenseChain, SineComponentIsQuadratureOnly) {
  SenseChain chain(open_loop_config());
  run_chain(chain, 0.5, 0.0, 0.3);
  EXPECT_NEAR(chain.raw_rate(), 0.0, 0.01);
  EXPECT_NEAR(chain.raw_quad(), 0.5, 0.02);
}

TEST(SenseChain, DemodPhaseTrimRotatesChannels) {
  SenseChainConfig cfg = open_loop_config();
  cfg.demod_phase_trim = 0.3;
  SenseChain chain(cfg);
  // Signal at exactly the trim angle lands entirely in the rate channel.
  run_chain(chain, -std::sin(0.3) * 0.4, std::cos(0.3) * 0.4, 0.3);
  EXPECT_NEAR(chain.raw_rate(), 0.4, 0.02);
  EXPECT_NEAR(chain.raw_quad(), 0.0, 0.02);
}

TEST(SenseChain, CompensationAppliesOffsetAndScale) {
  SenseChain chain(open_loop_config());
  dsp::CompensationCoeffs c;
  c.offset = {0.1, 0.0, 0.0};
  c.s0 = 2.0;
  chain.set_compensation(c);
  const auto out = run_chain(chain, 0.0, 0.4, 0.3);
  EXPECT_NEAR(out.back(), 2.5 + (0.4 - 0.1) * 2.0, 0.02);
}

TEST(SenseChain, CompensationUsesMeasuredTemperature) {
  SenseChain chain(open_loop_config());
  dsp::CompensationCoeffs c;
  c.offset = {0.0, 1e-3, 0.0};  // 1 mV/°C offset model
  chain.set_compensation(c);
  const auto cold = run_chain(chain, 0.0, 0.4, 0.3, -40.0);
  SenseChain chain2(open_loop_config());
  chain2.set_compensation(c);
  const auto hot = run_chain(chain2, 0.0, 0.4, 0.3, 85.0);
  EXPECT_NEAR(cold.back() - hot.back(), 1e-3 * 125.0, 1e-3);
}

TEST(SenseChain, ClosedLoopNullsTheBaseband) {
  // Closed loop around a behavioural plant: control force in sin phase
  // shows up (negated, scaled) in the cos channel after the resonator.
  SenseChainConfig cfg;
  cfg.fs = kFs;
  cfg.mode = SenseMode::ClosedLoop;
  cfg.rate_kp = 30.0;
  cfg.rate_ki = 4000.0;
  SenseChain chain(cfg);
  dsp::Nco nco(kFs, 15e3);

  // Plant: disturbance amplitude d in cos channel; control subtracts
  // k·u_rate (envelope pole at ~1.5 Hz modelled by a slow one-pole).
  const double k_plant = 2.24;
  const double d = 0.5;
  double env = 0.0;  // envelope of the net cos-channel amplitude
  const double alpha = 1.0 - std::exp(-kTwoPi * 1.5 / kFs);
  double u = 0.0, u_f = 0.0;
  std::vector<double> out;
  for (long i = 0; i < static_cast<long>(1.5 * kFs); ++i) {
    nco.step();
    env += alpha * ((d - k_plant * u) - env);
    const auto fast = chain.step(env * nco.cosine(), nco.sine(), nco.cosine());
    // Extract u_rate from the modulated control (project onto sin, smooth).
    u_f += 0.001 * (fast.control_v * nco.sine() * 2.0 - u_f);
    u = u_f;
    if (const auto slow = chain.slow_output(25.0)) out.push_back(slow->rate);
  }
  // Servo nulls the baseband: residual cos amplitude ≈ 0, and the feedback
  // effort (the output) carries the disturbance estimate d/k.
  EXPECT_NEAR(chain.baseband().q, 0.0, 0.01);
  EXPECT_NEAR(out.back() - 2.5, d / k_plant, 0.05);
}

TEST(SenseChain, ControlClampsAtRail) {
  SenseChainConfig cfg;
  cfg.fs = kFs;
  cfg.mode = SenseMode::ClosedLoop;
  cfg.ctrl_limit = 1.0;
  SenseChain chain(cfg);
  dsp::Nco nco(kFs, 15e3);
  double max_ctrl = 0.0;
  for (long i = 0; i < 100000; ++i) {
    nco.step();
    // Huge persistent disturbance the limited control cannot null.
    const auto fast = chain.step(2.0 * nco.cosine(), nco.sine(), nco.cosine());
    max_ctrl = std::max(max_ctrl, std::abs(fast.control_v));
    chain.slow_output(25.0);
  }
  EXPECT_LE(max_ctrl, 1.0 + 1e-9);
}

TEST(SenseChain, OpenLoopProducesNoControl) {
  SenseChain chain(open_loop_config());
  dsp::Nco nco(kFs, 15e3);
  for (int i = 0; i < 10000; ++i) {
    nco.step();
    const auto fast = chain.step(0.5 * nco.cosine(), nco.sine(), nco.cosine());
    EXPECT_DOUBLE_EQ(fast.control_v, 0.0);
  }
}

TEST(SenseChain, ResetClearsEverything) {
  SenseChain chain(open_loop_config());
  run_chain(chain, 0.3, 0.7, 0.2);
  chain.reset();
  EXPECT_DOUBLE_EQ(chain.raw_rate(), 0.0);
  EXPECT_DOUBLE_EQ(chain.baseband().i, 0.0);
  const auto out = run_chain(chain, 0.0, 0.0, 0.1);
  EXPECT_NEAR(out.back(), 2.5, 1e-6);
}

TEST(SenseChain, DatapathQuantizationDegradesGracefully) {
  // 20-bit registers are transparent vs float; 8-bit registers are not —
  // the wordlength-exploration property the design flow relies on.
  auto run_bits = [](int bits) {
    SenseChainConfig cfg = open_loop_config();
    cfg.datapath_bits = bits;
    SenseChain chain(cfg);
    // 0.3765 sits mid-step on the 8-bit grid (LSB ≈ 19.5 mV).
    const auto out = run_chain(chain, 0.0, 0.3765, 0.3);
    return out.back();
  };
  const double ref = run_bits(0);
  EXPECT_NEAR(run_bits(20), ref, 1e-4);
  EXPECT_GT(std::abs(run_bits(8) - ref), 1e-3);
}

TEST(SenseChain, OutputBandwidthSetByFir) {
  // A 200 Hz AM on the cos channel is attenuated by the 75 Hz output FIR.
  SenseChain chain(open_loop_config());
  dsp::Nco nco(kFs, 15e3);
  std::vector<double> out;
  for (long i = 0; i < static_cast<long>(1.0 * kFs); ++i) {
    nco.step();
    const double am = 0.4 * std::sin(kTwoPi * 200.0 * i / kFs);
    chain.step(am * nco.cosine(), nco.sine(), nco.cosine());
    if (const auto slow = chain.slow_output(25.0)) out.push_back(slow->rate);
  }
  double peak = 0.0;
  for (std::size_t i = out.size() / 2; i < out.size(); ++i)
    peak = std::max(peak, std::abs(out[i] - 2.5));
  EXPECT_LT(peak, 0.4 * 0.35);  // well into the FIR stopband skirt
}

TEST(SenseChain, BlockPathMatchesScalarPathBitExact) {
  // step_block over blocks sized with samples_until_slow(), so every CIC
  // completion lands on a block boundary, must give the scalar path's slow
  // outputs to the bit.
  SenseChain scalar(open_loop_config());
  SenseChain blocked(open_loop_config());
  dsp::Nco nco(kFs, 15e3);

  std::vector<double> want, got;
  std::vector<double> pk, ci, cq;
  const long n = static_cast<long>(0.05 * kFs);
  for (long i = 0; i < n; ++i) {
    nco.step();
    const double x = 0.3 * nco.cosine() + 0.1 * nco.sine();
    scalar.step(x, nco.sine(), nco.cosine());
    if (const auto slow = scalar.slow_output(25.0)) want.push_back(slow->rate);

    if (pk.empty()) {
      ASSERT_EQ(blocked.samples_until_slow(), 128);
    }
    pk.push_back(x);
    ci.push_back(nco.sine());
    cq.push_back(nco.cosine());
    if (static_cast<long>(pk.size()) == blocked.samples_until_slow()) {
      blocked.step_block(pk, ci, cq);
      pk.clear();
      ci.clear();
      cq.clear();
      if (const auto slow = blocked.slow_output(25.0)) got.push_back(slow->rate);
    }
  }
  blocked.step_block(pk, ci, cq);  // flush the trailing partial block
  if (const auto slow = blocked.slow_output(25.0)) got.push_back(slow->rate);
  ASSERT_EQ(want.size(), got.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t k = 0; k < want.size(); ++k) ASSERT_EQ(want[k], got[k]) << "sample " << k;
  EXPECT_EQ(scalar.baseband().i, blocked.baseband().i);
  EXPECT_EQ(scalar.baseband().q, blocked.baseband().q);
}

}  // namespace
}  // namespace ascp::core
