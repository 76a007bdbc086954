// host_speed.hpp — the host-speed probe perf_ledger rescales its times by.
//
// A shared host drifts: on the 4-vCPU machine the baseline comes from, the
// same work took between 1× and 2× its unloaded time within minutes, and the
// drift hits whatever runs at that moment. perf_ledger times this fixed
// probe — a sine recurrence and an RK4 oscillator driven by Gaussian noise,
// the arithmetic mix of the simulator, written out here so that no change to
// the program under test can change it — after every frame and around every
// piece of set-up, on the thread that runs the workload.
//
// Not all work slows alike: a frame's wall time grows as the probe's to the
// power `sensitivity`, a per-workload exponent (workloads.hpp). Each wall
// time is multiplied by (kProbeReferenceSeconds ÷ the mean of the probes
// around it)^sensitivity, so times read as they would on the unloaded host.
// The raw wall figures are printed beside the rescaled ones.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ledger {

/// The probe's duration on the unloaded reference host.
constexpr double kProbeReferenceSeconds = 360e-6;

/// One pass of the probe's arithmetic; the result keeps it observable.
inline double probe_kernel() {
  double x = 1.0, y = 0.5;
  for (int i = 0; i < 40000; ++i) {
    x = x * 1.0000001 + std::sin(y);
    y += 1e-7;
  }
  // Two coupled modes of a 15 kHz resonator at 1.92 MHz, forced by noise.
  std::uint64_t s[4] = {0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull, 0x94D049BB133111EBull, 1};
  const auto uniform = [&s] {
    const std::uint64_t r = ((s[0] + s[3]) << 23 | (s[0] + s[3]) >> 41) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3] << 45 | s[3] >> 19;
    return static_cast<double>(r >> 11) * 0x1.0p-53;
  };
  const double dt = 1.0 / 1.92e6, w0 = 2.0 * 3.141592653589793 * 15e3;
  const double w2 = w0 * w0, damp = w0 / 5000.0;
  double p = 1e-6, v = 0.0, q = 0.0, u = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const double noise =
        std::sqrt(-2.0 * std::log(uniform() + 1e-300)) * std::cos(6.283185307179586 * uniform());
    const auto ap = [&](double pp, double vv, double uu) {
      return -w2 * pp - damp * vv + 0.1 * uu;
    };
    const auto aq = [&](double qq, double uu, double vv) {
      return -w2 * qq - damp * uu - 0.1 * vv + 1e-3 * noise;
    };
    const double a1 = ap(p, v, u), b1 = aq(q, u, v);
    const double a2 = ap(p + 0.5 * dt * v, v + 0.5 * dt * a1, u + 0.5 * dt * b1);
    const double b2 = aq(q + 0.5 * dt * u, u + 0.5 * dt * b1, v + 0.5 * dt * a1);
    const double a3 = ap(p + 0.5 * dt * v, v + 0.5 * dt * a2, u + 0.5 * dt * b2);
    const double b3 = aq(q + 0.5 * dt * u, u + 0.5 * dt * b2, v + 0.5 * dt * a2);
    const double a4 = ap(p + dt * v, v + dt * a3, u + dt * b3);
    const double b4 = aq(q + dt * u, u + dt * b3, v + dt * a3);
    p += dt * v;
    q += dt * u;
    v += dt * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0;
    u += dt * (b1 + 2 * b2 + 2 * b3 + b4) / 6.0;
  }
  return x + p + q;
}

class HostSpeed {
 public:
  explicit HostSpeed(double sensitivity) : sensitivity_(sensitivity) {}

  /// Seconds the probe takes now.
  double probe() {
    const auto t0 = std::chrono::steady_clock::now();
    sink_.store(probe_kernel(), std::memory_order_relaxed);
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    all_.push_back(s);
    return s;
  }

  /// Rescale a wall time measured between two probes.
  double rescale(double wall_s, double probe_before, double probe_after) const {
    return wall_s *
           std::pow(kProbeReferenceSeconds / (0.5 * (probe_before + probe_after)), sensitivity_);
  }

  /// Rescaled seconds `fn` takes, between probes just before and after it.
  template <typename Fn>
  double time(Fn&& fn) {
    const double before = probe();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
    return rescale(wall.count(), before, probe());
  }

  const std::vector<double>& probes() const { return all_; }

 private:
  double sensitivity_;
  std::vector<double> all_;
  std::atomic<double> sink_{0.0};  ///< keeps the kernel's result observable
};

}  // namespace ledger
