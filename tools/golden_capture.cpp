// golden_capture.cpp — capture bit-exact reference outputs (temporary tool).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/fnv1a.hpp"
#include "core/baselines.hpp"
#include "core/gyro_system.hpp"

using namespace ascp;

static std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

static void dump(const char* name, const std::vector<double>& v) {
  std::printf("%s n=%zu hash=0x%016" PRIx64 "\n", name, v.size(),
              fnv1a_doubles(kFnv1aOutputBasis, v.data(), v.size()));
  for (std::size_t i = 0; i < v.size() && i < 4; ++i)
    std::printf("  [%zu] 0x%016" PRIx64 "\n", i, bits(v[i]));
  if (v.size() > 4) std::printf("  [last] 0x%016" PRIx64 "\n", bits(v.back()));
}

int main() {
  {  // Full fidelity, closed loop, two run() calls (warmup + capture).
    core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Full));
    sys.power_on(7);
    std::vector<double> out;
    sys.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.05, &out);
    sys.run(sensor::Profile::step(90.0, 0.01), sensor::Profile::ramp(25.0, 45.0, 0.0, 0.1),
            0.1, &out);
    dump("full_closed", out);
  }
  {  // Ideal fidelity.
    core::GyroSystem sys(core::default_gyro_system(core::Fidelity::Ideal));
    sys.power_on(3);
    std::vector<double> out;
    sys.run(sensor::Profile::sine(50.0, 20.0), sensor::Profile::constant(25.0), 0.1, &out);
    dump("ideal_closed", out);
  }
  {  // Full + safety supervisor + MCU monitor.
    auto cfg = core::default_gyro_system(core::Fidelity::Full);
    cfg.with_safety = true;
    cfg.with_mcu = true;
    core::GyroSystem sys(cfg);
    sys.power_on(11);
    std::vector<double> out;
    sys.run(sensor::Profile::constant(30.0), sensor::Profile::constant(35.0), 0.1, &out);
    dump("full_safety_mcu", out);
  }
  {  // Ideal, open loop.
    auto cfg = core::default_gyro_system(core::Fidelity::Ideal);
    cfg.sense.mode = core::SenseMode::OpenLoop;
    core::GyroSystem sys(cfg);
    sys.power_on(5);
    std::vector<double> out;
    sys.run(sensor::Profile::constant(40.0), sensor::Profile::constant(25.0), 0.1, &out);
    dump("ideal_open", out);
  }
  {  // ADXRS300 baseline, two run() calls with a tick count NOT divisible by
     // loop_div (0.0333 s * 1.92e6 = 63936 ticks ≡ 0 mod 8; use 1e-5 offset).
    core::AnalogGyroBaseline dut(core::adxrs300_like());
    dut.power_on(21);
    std::vector<double> out;
    dut.run(sensor::Profile::constant(0.0), sensor::Profile::constant(25.0), 0.033335, &out);
    dut.run(sensor::Profile::constant(100.0), sensor::Profile::constant(45.0), 0.05, &out);
    dump("adxrs300", out);
  }
  {  // Gyrostar baseline.
    core::AnalogGyroBaseline dut(core::gyrostar_like());
    dut.power_on(33);
    std::vector<double> out;
    dut.run(sensor::Profile::step(80.0, 0.02), sensor::Profile::constant(25.0), 0.06, &out);
    dump("gyrostar", out);
  }
  return 0;
}
