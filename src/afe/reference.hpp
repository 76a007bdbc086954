// reference.hpp — the on-chip temperature sensor.
//
// The sense chain's last stage (paper §4.1: "temperature/offset
// compensation") corrects drift from a measured die temperature. The sensor
// that measures it has its own gain and offset error, so the compensation
// block sees a slightly wrong temperature — a real effect the paper's
// calibration had to absorb.
#pragma once

#include "common/rng.hpp"

namespace ascp::afe {

/// Proportional-to-absolute-temperature sensor with gain/offset error.
class TempSensor {
 public:
  TempSensor(double gain_error_pct, double offset_c, ascp::Rng rng);

  /// Measured temperature given true ambient.
  double read(double true_temp_c);

  void serialize_state(StateArchive& ar) { rng_.serialize_state(ar); }

 private:
  double gain_;
  double offset_;
  ascp::Rng rng_;
};

}  // namespace ascp::afe
