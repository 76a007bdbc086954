// blackbox.hpp — versioned, CRC-framed crash image (`.blackbox`): the
// flight-recorder dump a supervisor writes when a channel dies.
//
// A checkpoint answers "resume from here"; a blackbox answers "what happened,
// and show me again". One image bundles everything needed for post-mortem
// *replay* of a single channel failure:
//
//   * identity + crash context — channel kind/seed/index, fleet tick, the
//     failure reason, DTCs, restart count, health at dump time;
//   * the crash-instant fingerprint — ticks advanced, streaming output hash,
//     lifetime output count of the wrecked instance (always a clean prefix:
//     the hash folds only after a successful sensor run, and chaos is
//     injected before the advance mutates anything);
//   * the last-good checkpoint image, carried verbatim — possibly corrupt,
//     replay detects that exactly like the supervisor did;
//   * the observability tail — flight-recorder ring, channel + fleet causal
//     spans, metric snapshot — decoded into owning structs so a tool can
//     render them long after the producing process is gone.
//
// The container is the shared frame (common/frame.hpp) with the checkpoint's
// meta — the channel kind — but its own magic "ASCPBBOX" and "blackbox …"
// error messages, so a blackbox can never be mistaken for a checkpoint by
// either reader.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/frame.hpp"
#include "common/state_archive.hpp"
#include "platform/engine/conditioning_channel.hpp"

namespace ascp::engine {

/// The `.blackbox` container: meta = channel kind (u32), payload = the
/// image's StateArchive stream. Versions: v1 original layout.
inline constexpr frame::Format kBlackboxFrame{"ASCPBBOX", 1, "blackbox", 4, 1};

/// One flight-recorder record, decoded into owning strings (the in-process
/// FlightRecord holds static-literal pointers that do not survive export).
struct BlackboxFlightRecord {
  double t_sim = 0.0;
  std::uint8_t kind = 0;      ///< obs::FlightKind
  std::uint8_t severity = 0;  ///< obs::EventSeverity (Event records)
  std::uint8_t category = 0;  ///< obs::EventCategory / sensor::ProbePoint
  std::int64_t tick = 0;
  std::string name;
  std::string detail;
  double a = 0.0;
  double b = 0.0;
  std::string k0;
  double v0 = 0.0;
  std::string k1;
  double v1 = 0.0;
};

/// One causal span, decoded into owning strings.
struct BlackboxSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string name;
  std::uint8_t category = 0;  ///< obs::SpanCategory
  double t_begin = 0.0;
  double t_end = 0.0;
  double wall_us = 0.0;
  std::string k0;
  double v0 = 0.0;
  std::string k1;
  double v1 = 0.0;
};

struct BlackboxMetricSample {
  std::string name;
  double value = 0.0;
};

/// The decoded crash image.
struct BlackboxImage {
  // ---- identity + crash context -----------------------------------------
  std::uint32_t kind = 0;  ///< engine::ChannelKind
  std::uint64_t seed = 0;  ///< the channel's derived seed (restart recipe)
  std::uint64_t channel_index = 0;
  std::int64_t fleet_tick = 0;
  std::string reason;      ///< exception text / quarantine cause
  std::uint16_t dtcs = 0;
  std::int32_t restarts = 0;
  std::uint8_t health = 0;  ///< engine::ChannelHealth at dump time
  // Config knobs replay needs to rebuild an equivalent channel. Channels
  // with closure hooks (configure/customize/stimulus_factory) need the
  // caller to supply a base config — closures cannot travel in an image.
  double rate_dps = 30.0;
  double temp_c = 25.0;
  bool with_safety = false;
  bool with_faults = false;

  // ---- crash-instant fingerprint of the wrecked instance ----------------
  std::int64_t crash_ticks = 0;
  std::uint64_t crash_hash = 0;
  std::uint64_t crash_outputs = 0;

  // ---- last-good checkpoint, verbatim (possibly corrupt/empty) ----------
  std::int64_t checkpoint_tick = 0;
  std::vector<std::uint8_t> checkpoint;

  // ---- observability tail ------------------------------------------------
  std::vector<BlackboxFlightRecord> records;
  std::vector<BlackboxSpan> channel_spans;  ///< from the channel's SpanLog
  std::vector<BlackboxSpan> fleet_spans;    ///< from the supervisor's SpanLog
  std::vector<BlackboxMetricSample> counters;
  std::vector<BlackboxMetricSample> gauges;
};

/// Encode an image into a framed `.blackbox` byte stream.
std::vector<std::uint8_t> encode_blackbox(const BlackboxImage& img);

/// Decode a framed stream. Throws StateError on bad magic, unsupported
/// version, truncation or CRC mismatch — messages are distinct from the
/// checkpoint reader's ("blackbox …" vs "checkpoint …").
BlackboxImage decode_blackbox(const std::vector<std::uint8_t>& bytes);

// ---- capture (producer side) --------------------------------------------
/// Snapshot a live obs bundle's tails into the image's owning vectors.
void capture_flight_records(const obs::FlightRecorder& rec,
                            std::vector<BlackboxFlightRecord>* out);
void capture_spans(const obs::SpanLog& log, std::vector<BlackboxSpan>* out);
void capture_metrics(const obs::MetricRegistry& reg,
                     std::vector<BlackboxMetricSample>* counters,
                     std::vector<BlackboxMetricSample>* gauges);

// ---- replay (forensics side) --------------------------------------------
struct BlackboxReplay {
  bool checkpoint_used = false;     ///< restored from the embedded image
  bool checkpoint_corrupt = false;  ///< embedded image rejected → cold replay
  std::int64_t replay_ticks = 0;
  std::uint64_t replay_hash = 0;
  std::uint64_t replay_outputs = 0;
  /// replay_hash == crash_hash — the failure state was reproduced bit-exactly.
  bool hash_match = false;
};

/// Rebuild the crashed channel (kind + seed + carried knobs, or `base` when
/// the original config had closure hooks), restore the embedded checkpoint
/// (a corrupt one is detected and demoted to a cold replay, exactly like the
/// supervisor's restart path), advance to the crash tick and compare the
/// output hash against the recorded crash fingerprint.
BlackboxReplay replay_blackbox(const BlackboxImage& img,
                               const ChannelConfig* base = nullptr);

}  // namespace ascp::engine
