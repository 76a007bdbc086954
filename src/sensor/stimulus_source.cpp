#include "sensor/stimulus_source.hpp"

#include <bit>
#include <cmath>

namespace ascp::sensor {

static bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

const char* stimulus_kind_name(StimulusKind k) {
  switch (k) {
    case StimulusKind::Synthetic: return "synthetic";
    case StimulusKind::Recorded: return "recorded";
    case StimulusKind::Queue: return "queue";
  }
  return "?";
}

const char* probe_point_name(ProbePoint p) {
  switch (p) {
    case ProbePoint::Stimulus: return "stimulus";
    case ProbePoint::PostMems: return "post_mems";
    case ProbePoint::PostAfe: return "post_afe";
    case ProbePoint::PostAdc: return "post_adc";
    case ProbePoint::DecimatedOutput: return "decimated_output";
  }
  return "?";
}

// ---- .strace container -----------------------------------------------------

std::vector<std::uint8_t> encode_strace(const StimulusTrace& trace) {
  const frame::Meta meta{static_cast<std::uint32_t>(trace.interp),
                         std::bit_cast<std::uint64_t>(trace.sample_rate_hz)};
  return frame::encode(
      kStraceFrame, meta,
      [&trace](StateArchive& ar) {
        for (StimulusSample s : trace.samples) {
          ar.value(s.rate_dps);
          ar.value(s.temp_c);
        }
      },
      trace.samples.size() * kStraceFrame.unit);
}

StimulusTrace decode_strace(const std::vector<std::uint8_t>& bytes) {
  const frame::Frame f = frame::decode(kStraceFrame, bytes);
  if (f.meta.word > static_cast<std::uint32_t>(TraceInterp::Linear))
    throw StateError("strace unknown interpolation mode " + std::to_string(f.meta.word));
  StimulusTrace trace;
  trace.sample_rate_hz = std::bit_cast<double>(f.meta.wide);
  if (!finite_positive(trace.sample_rate_hz))
    throw StateError("strace sample rate is not finite and positive");
  trace.interp = static_cast<TraceInterp>(f.meta.word);
  trace.samples.resize(f.size / kStraceFrame.unit);
  StateArchive ar = StateArchive::loader(f.payload, f.size);
  for (auto& s : trace.samples) {
    ar.value(s.rate_dps);
    ar.value(s.temp_c);
    if (!std::isfinite(s.rate_dps) || !std::isfinite(s.temp_c))
      throw StateError("strace sample is not finite");
  }
  return trace;
}

// ---- RecordedSource --------------------------------------------------------

RecordedSource::RecordedSource(std::shared_ptr<const StimulusTrace> trace, double tick_rate_hz,
                               long start_tick)
    : trace_(std::move(trace)), tick_rate_hz_(tick_rate_hz), start_(start_tick) {
  if (!trace_ || trace_->samples.empty())
    throw StateError("recorded source needs a non-empty trace");
  if (!finite_positive(trace_->sample_rate_hz) || !finite_positive(tick_rate_hz_))
    throw StateError("recorded source needs finite, positive sample rates");
  exact_ = trace_->sample_rate_hz == tick_rate_hz_;
  step_ = trace_->sample_rate_hz / tick_rate_hz_;
  // sample() casts tick · step_ to an index, so the ratio must be finite too.
  if (!std::isfinite(step_)) throw StateError("recorded source sample-rate ratio overflows");
}

StimulusSample RecordedSource::sample(long tick) {
  const auto& s = trace_->samples;
  const long n = static_cast<long>(s.size());
  long k = tick - start_;
  if (k < 0) k = 0;
  if (exact_) {
    // The bit-exact replay path: one trace sample per simulation tick, no
    // floating-point index arithmetic at all.
    if (k >= n) {
      ++underruns_;
      cursor_ = n - 1;
      return s.back();
    }
    cursor_ = k;
    return s[static_cast<std::size_t>(k)];
  }
  const double pos = static_cast<double>(k) * step_;
  if (pos >= static_cast<double>(n - 1)) {
    // The final sample's own interval holds it; anything beyond the trace
    // duration is an underrun (still held — replay degrades, never throws).
    if (pos >= static_cast<double>(n)) ++underruns_;
    cursor_ = n - 1;
    return s.back();
  }
  const auto i0 = static_cast<std::size_t>(pos);
  cursor_ = static_cast<std::int64_t>(i0);
  if (trace_->interp == TraceInterp::Hold) return s[i0];
  const double frac = pos - static_cast<double>(i0);
  const auto& lo = s[i0];
  const auto& hi = s[i0 + 1];
  return {lo.rate_dps + (hi.rate_dps - lo.rate_dps) * frac,
          lo.temp_c + (hi.temp_c - lo.temp_c) * frac};
}

void RecordedSource::serialize_state(StateArchive& ar) {
  ar.begin_section("SREC");
  // Trace identity: a restored source must be replaying the *same* trace,
  // or the cursor below is meaningless.
  std::uint64_t count = trace_->samples.size();
  double rate = trace_->sample_rate_hz;
  ar.value(count);
  ar.value(rate);
  if (count != trace_->samples.size() || rate != trace_->sample_rate_hz)
    throw StateError("checkpoint recorded-trace identity mismatch");
  ar.value(cursor_);
  ar.value(underruns_);
  ar.end_section();
}

// ---- QueueSource -----------------------------------------------------------

void QueueSource::serialize_state(StateArchive& ar) {
  ar.begin_section("SQUE");
  ar.value(last_.rate_dps);
  ar.value(last_.temp_c);
  ar.value(consumed_);
  ar.value(underruns_);
  std::uint64_t pending = q_.size();
  ar.value(pending);
  if (!ar.saving()) {
    if (pending > cfg_.capacity)
      throw StateError("checkpoint queue-source pending count exceeds capacity");
    q_.resize(static_cast<std::size_t>(pending));
  }
  for (auto& s : q_) {
    ar.value(s.rate_dps);
    ar.value(s.temp_c);
  }
  ar.end_section();
}

}  // namespace ascp::sensor
