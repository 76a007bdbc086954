// layers.hpp — per-layer replay for the traced run.
//
// The benchmark measures each layer from outside, by timing calls into its
// public functions. It captures 0.1 sim-s of the reference channel at the
// Stimulus, PostMems, PostAfe and PostAdc probe points (the read-only Probe
// seam), then times every pipeline kernel of that channel's own GyroSystem —
// built from the exact GyroSystemConfig, copied out through the configure
// hook — over the captured stream. Each kernel's ns per call times its calls
// per base tick, summed, plus the residual (dispatch, glue, interference)
// equals the traced advance ns per tick by construction. Every time is
// host-speed rescaled (host_speed.hpp), like the traced advance.
#pragma once

#include <string>
#include <vector>

#include "ledger.hpp"
#include "platform/engine/conditioning_channel.hpp"
#include "workloads.hpp"

namespace ledger {

struct LayerRow {
  std::string metric;      ///< per-layer metric carrying the kernel's ns per call
  double ns_per_call = 0.0;
  double calls_per_tick = 0.0;  ///< 0 when the reference pipeline never calls it
};

struct LayerReport {
  std::vector<LayerRow> rows;    ///< the reconciled pipeline kernels
  std::vector<Metric> metrics;   ///< every per-layer metric the replay measured
  double advance_ns_per_tick = 0.0;
  double kernels_ns_per_tick = 0.0;
  double residual_ns_per_tick = 0.0;
};

/// Replay the layers of `ref` (a gyro channel config) and reconcile them
/// against `advance_ns_per_tick`, the traced advance cost of that channel.
LayerReport replay_layers(const ascp::engine::ChannelConfig& ref, double advance_ns_per_tick,
                          Tracer& tr, HostSpeed& host);

}  // namespace ledger
