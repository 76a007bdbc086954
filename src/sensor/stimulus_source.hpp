// stimulus_source.hpp — pluggable input seam for the conditioning platform.
//
// The paper's platform thesis is that the conditioning chain retargets by
// reconfiguration; the input side earns the same property here. A
// StimulusSource produces the (rate, temperature) pair for one analog tick
// on the channel's *global* tick axis — the same axis checkpoints resume on
// — so any producer can stand in for the synthetic MEMS environment:
//
//   * SyntheticSource — wraps a Profile pair; bit-identical to the
//     historical hard-wired path (same t = tick·dt arithmetic).
//   * RecordedSource  — replays a versioned, CRC-framed `.strace` binary
//     trace (captured field data, or a StimulusRecorder probe capture).
//     Exact integer indexing when the trace rate matches the simulation
//     rate makes record → replay bit-exact.
//   * QueueSource     — bounded push-fed buffer with an explicit underrun
//     policy: the ingestion seam a live data feed (ascp_serve) pushes into.
//
// Sources are checkpointable: serialize_state() rides inside the channel
// checkpoint, so a mid-replay snapshot resumes at the exact trace cursor.
//
// The output side gets the mirror seam: Probe taps at named chain points
// (stimulus, post-MEMS, post-AFE, post-ADC, decimated output). Probes are
// read-only observers with the obs-layer discipline: the numeric output is
// bit-identical with a probe attached or not, and a detached probe costs
// nothing (a flag test per tick; no tap code runs).
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/frame.hpp"
#include "common/state_archive.hpp"
#include "sensor/environment.hpp"

namespace ascp::sensor {

enum class StimulusKind : std::uint32_t { Synthetic = 0, Recorded = 1, Queue = 2 };

const char* stimulus_kind_name(StimulusKind k);

class StimulusSource {
 public:
  virtual ~StimulusSource() = default;

  virtual StimulusKind kind() const = 0;

  /// Evaluate the stimulus for global base tick `tick`. Deterministic: the
  /// same tick sequence must yield the same sample sequence (the channel
  /// determinism contract extends to sources). Sequential consumers
  /// (QueueSource) may ignore the tick value.
  virtual StimulusSample sample(long tick) = 0;

  /// Evaluate ticks tick, tick + 1, … into `out`, in order: the samples and
  /// the source state that out.size() sample() calls give. `done` counts the
  /// samples written, so a caller learns how far a call that throws got. The
  /// default calls sample().
  virtual void sample_block(long tick, std::span<StimulusSample> out, std::size_t& done) {
    for (done = 0; done < out.size(); ++done) out[done] = sample(tick + static_cast<long>(done));
  }

  /// Checkpoint path: rides inside the owning channel's archive so a
  /// mid-replay snapshot resumes at the exact cursor. Stateless sources
  /// still frame an (empty) section for format stability.
  virtual void serialize_state(StateArchive& ar) = 0;

  /// Replay/ingest position for tools (ascp_tool inspect): the index
  /// of the last sample consumed, −1 when not meaningful (synthetic).
  virtual std::int64_t cursor() const { return -1; }

  /// Times the source was asked for data it did not have (past trace end,
  /// empty queue). Stays 0 for synthetic sources.
  virtual std::uint64_t underruns() const { return 0; }
};

// ---- synthetic (Profile-backed) --------------------------------------------

class SyntheticSource final : public StimulusSource {
 public:
  /// `tick_rate_hz` is the analog sample rate the source is evaluated at;
  /// `origin_tick` maps profile t = 0 onto that global tick (0 = the global
  /// axis itself, as the fleet engine uses it).
  SyntheticSource(Profile rate, Profile temp, double tick_rate_hz, long origin_tick = 0)
      : rate_(std::move(rate)),
        temp_(std::move(temp)),
        dt_(1.0 / tick_rate_hz),
        origin_(origin_tick) {}

  StimulusKind kind() const override { return StimulusKind::Synthetic; }

  StimulusSample sample(long tick) override {
    // Exactly the historical arithmetic: static_cast<double>(ticks) * dt,
    // with the origin subtracted in exact integer arithmetic first.
    const double t = static_cast<double>(tick - origin_) * dt_;
    return {rate_.at(t), temp_.at(t)};
  }

  void serialize_state(StateArchive& ar) override {
    // Profiles are (re)constructed from config; nothing dynamic travels.
    ar.begin_section("SSYN");
    ar.end_section();
  }

 private:
  Profile rate_, temp_;
  double dt_;
  long origin_;
};

// ---- recorded traces (.strace) ---------------------------------------------

/// How RecordedSource fills the gaps when the simulation rate differs from
/// the trace's sample rate.
enum class TraceInterp : std::uint32_t {
  Hold = 0,    ///< zero-order hold: the sample whose interval covers t
  Linear = 1,  ///< linear interpolation between neighbouring samples
};

/// An in-memory stimulus trace: the body of a `.strace` file.
struct StimulusTrace {
  double sample_rate_hz = 0.0;
  TraceInterp interp = TraceInterp::Hold;
  std::vector<StimulusSample> samples;
};

/// The `.strace` container (common/frame.hpp): meta = interpolation (u32,
/// TraceInterp) + sample rate [Hz] (u64, IEEE-754 bit pattern); the length
/// counts samples, each 16 payload bytes { rate_dps double, temp_c double }.
/// Versions: v1 original layout.
inline constexpr frame::Format kStraceFrame{"ASCPSTRC", 1, "strace", 12, 16};

std::vector<std::uint8_t> encode_strace(const StimulusTrace& trace);
/// Throws StateError with the frame's messages (truncation, magic, version,
/// CRC), on an unknown interpolation mode, on a sample rate that is not
/// finite and positive (the rate word sits outside the CRC) or on a
/// non-finite sample.
StimulusTrace decode_strace(const std::vector<std::uint8_t>& bytes);

class RecordedSource final : public StimulusSource {
 public:
  /// `tick_rate_hz` is the simulation rate the source will be sampled at;
  /// `start_tick` maps trace sample 0 onto that global tick. When the trace
  /// was captured at exactly tick_rate_hz, replay indexes samples with
  /// integer arithmetic — bit-exact, no interpolation rounding. Reads past
  /// the trace end hold the final sample and count as underruns. Both rates
  /// must be finite and positive, and so must their ratio (StateError).
  RecordedSource(std::shared_ptr<const StimulusTrace> trace, double tick_rate_hz,
                 long start_tick = 0);

  StimulusKind kind() const override { return StimulusKind::Recorded; }
  StimulusSample sample(long tick) override;
  void serialize_state(StateArchive& ar) override;
  std::int64_t cursor() const override { return cursor_; }
  std::uint64_t underruns() const override { return underruns_; }

  const StimulusTrace& trace() const { return *trace_; }

 private:
  std::shared_ptr<const StimulusTrace> trace_;
  double tick_rate_hz_;
  long start_;
  bool exact_;          ///< trace rate == simulation rate: integer indexing
  double step_;         ///< trace samples per simulation tick (inexact path)
  std::int64_t cursor_ = -1;
  std::uint64_t underruns_ = 0;
};

// ---- push-fed ingestion ----------------------------------------------------

/// What QueueSource returns when sampled with an empty buffer.
enum class UnderrunPolicy : std::uint32_t {
  HoldLast = 0,  ///< repeat the last delivered sample (default {0 °/s, 25 °C})
  Null = 1,      ///< the neutral environment: 0 °/s at 25 °C
};

class QueueSource final : public StimulusSource {
 public:
  struct Config {
    std::size_t capacity = 4096;  ///< bounded: push() refuses beyond this
    UnderrunPolicy underrun = UnderrunPolicy::HoldLast;
  };

  QueueSource() : QueueSource(Config()) {}
  explicit QueueSource(const Config& cfg) : cfg_(cfg) {}

  /// Enqueue one sample; false, with nothing enqueued, when the buffer is
  /// full (the producer sheds or backs off — the source never grows
  /// unbounded) or when a field of `s` is not finite (NaN or ±Inf would
  /// reach the AFE's float-to-integer conversions).
  bool push(const StimulusSample& s) {
    if (q_.size() >= cfg_.capacity || !std::isfinite(s.rate_dps) || !std::isfinite(s.temp_c))
      return false;
    q_.push_back(s);
    return true;
  }

  std::size_t pending() const { return q_.size(); }
  std::size_t capacity() const { return cfg_.capacity; }

  StimulusKind kind() const override { return StimulusKind::Queue; }

  StimulusSample sample(long /*tick*/) override {
    if (!q_.empty()) {
      last_ = q_.front();
      q_.pop_front();
      ++consumed_;
      return last_;
    }
    ++underruns_;
    return cfg_.underrun == UnderrunPolicy::HoldLast ? last_ : StimulusSample{};
  }

  void serialize_state(StateArchive& ar) override;
  std::int64_t cursor() const override { return consumed_; }
  std::uint64_t underruns() const override { return underruns_; }

 private:
  Config cfg_;
  std::deque<StimulusSample> q_;
  StimulusSample last_{};  ///< HoldLast fallback before any push: {0, 25}
  std::int64_t consumed_ = 0;
  std::uint64_t underruns_ = 0;
};

// ---- probes ----------------------------------------------------------------

/// Named tap points along the conditioning chain. The payload pair (a, b)
/// depends on the point:
///   Stimulus:        (rate_dps, temp_c)       — every analog tick
///   PostMems:        (dc_primary, dc_sense)   — pickoff capacitances [F]
///   PostAfe:         (v_primary, v_sense)     — charge-amp outputs [V]
///                    (Full fidelity only; Ideal has no AFE)
///   PostAdc:         (primary_v, sense_v)     — ADC codes as volts, at the
///                    DSP sample rate
///   DecimatedOutput: (out_v, measured_temp_c) — the decimated rate output
enum class ProbePoint : std::uint8_t {
  Stimulus = 0,
  PostMems = 1,
  PostAfe = 2,
  PostAdc = 3,
  DecimatedOutput = 4,
};

constexpr std::size_t kProbePointCount = 5;
const char* probe_point_name(ProbePoint p);

struct ProbeFrame {
  ProbePoint point = ProbePoint::Stimulus;
  long tick = 0;  ///< global base tick the values belong to
  double a = 0.0;
  double b = 0.0;
};

/// Read-only observer of chain taps. Discipline matches the obs layer: a
/// probe must not feed anything back (the output stream is bit-identical
/// attached or detached), and wants() lets the pipeline skip whole taps —
/// a detached probe runs no tap code at all.
class Probe {
 public:
  virtual ~Probe() = default;
  /// Called at attach/schedule time; frames for rejected points are never
  /// produced (zero cost, not just dropped).
  virtual bool wants(ProbePoint p) const { (void)p; return true; }
  virtual void on_frame(const ProbeFrame& f) = 0;
};

/// Probe that captures the stimulus tap into a StimulusTrace — the writing
/// half of record → replay. `decimate` keeps every Nth frame (1 = every
/// analog tick, the bit-exact setting: sample_rate_hz must then equal the
/// simulation rate for RecordedSource's integer replay path).
class StimulusRecorder final : public Probe {
 public:
  explicit StimulusRecorder(double sample_rate_hz, std::size_t decimate = 1)
      : decimate_(decimate == 0 ? 1 : decimate) {
    trace_.sample_rate_hz = sample_rate_hz;
  }

  bool wants(ProbePoint p) const override { return p == ProbePoint::Stimulus; }

  void on_frame(const ProbeFrame& f) override {
    if (seen_++ % decimate_ != 0) return;
    trace_.samples.push_back({f.a, f.b});
  }

  const StimulusTrace& trace() const { return trace_; }
  StimulusTrace take() { return std::move(trace_); }

 private:
  StimulusTrace trace_;
  std::size_t decimate_;
  std::size_t seen_ = 0;
};

}  // namespace ascp::sensor
