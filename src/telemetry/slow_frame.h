// SlowFrameCapture: triggered deep-dive capture for outlier frames. An
// always-on ring keeps the stage breakdown of the last N frames (fed by
// PlaySession and the walkthrough server's scheduler); when a frame's
// service time exceeds a threshold — absolute milliseconds, a trailing
// percentile of the ring, or both — the capture atomically snapshots
// that frame's record together with the flight-recorder events of its
// session/time window. The result is written as a "HDOVSLOW" binary
// dump (--slowdump-out=), decodable by `hdov_inspect --slowdump` and
// convertible to a Chrome trace with one track per session.
//
// Like the flight recorder it rides on, the capture only reads the
// steady clock and thread-local state — never the SimClock, IoStats, or
// a metrics registry — so enabling it cannot move a simulated counter.

#ifndef HDOV_TELEMETRY_SLOW_FRAME_H_
#define HDOV_TELEMETRY_SLOW_FRAME_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

// One frame's latency identity: who ran it, when, how long it queued and
// executed, and where the service time went stage by stage.
struct FrameStageRecord {
  uint16_t session = 0;   // FlightInternName id of the session name.
  uint64_t frame = 0;     // Session-local frame index.
  uint64_t start_ns = 0;  // Dispatch timestamp (FlightNowNs timeline).
  uint64_t queue_ns = 0;  // Enqueue→dispatch wait (0 outside a scheduler).
  uint64_t wall_ns = 0;   // Dispatch→complete service time.
  uint64_t io_pages = 0;  // Simulated pages billed to the frame.
  StageBreakdown stages;  // Exclusive per-stage service-time split.
};

struct SlowFrameOptions {
  size_t ring_frames = 512;    // Trailing window (breakdowns + percentile).
  double threshold_ms = 0.0;   // Absolute trigger; 0 disables.
  double percentile = 0.99;    // Trailing-percentile trigger; 0 disables.
  size_t warmup_frames = 64;   // Frames before the percentile can fire.
  size_t max_captures = 32;    // Hard cap on deep captures kept.
};

// One triggered capture: the frame record, the threshold that tripped,
// and the flight events of that session within the frame's time window
// (best effort — tiny rings may have been lapped already).
struct SlowFrameEntry {
  FrameStageRecord record;
  double trip_threshold_ms = 0.0;
  std::vector<FlightEvent> events;
};

// In-memory form of a slow dump file.
struct SlowDump {
  std::vector<std::string> names;  // Indexed by session / event code ids.
  std::vector<SlowFrameEntry> captures;
  uint64_t frames_seen = 0;
  uint64_t captures_dropped = 0;  // Triggers past max_captures.

  std::string_view NameOf(uint16_t id) const {
    return id < names.size() ? std::string_view(names[id]) : "?";
  }
};

class SlowFrameCapture {
 public:
  explicit SlowFrameCapture(const SlowFrameOptions& options = {});

  SlowFrameCapture(const SlowFrameCapture&) = delete;
  SlowFrameCapture& operator=(const SlowFrameCapture&) = delete;

  // Replaces the options and clears ring/captures/counters. Call between
  // runs, not mid-run.
  void Configure(const SlowFrameOptions& options);
  void Reset();

  bool enabled() const;
  void set_enabled(bool on);

  // Feeds one completed frame; decides the trigger and (on trip) drains
  // the global flight recorder for the frame's window. Thread-safe.
  void OnFrame(const FrameStageRecord& record);

  uint64_t frames_seen() const;
  size_t captures() const;

  // Snapshot of the captures accumulated so far.
  SlowDump Snapshot() const;

  // Encodes Snapshot() into the "HDOVSLOW" container at `path`.
  Status WriteDump(const std::string& path) const;
  static Result<SlowDump> ReadDump(const std::string& path);

 private:
  // Returns the trip threshold in ms if `wall_ns` should be captured.
  double TripThresholdMs(uint64_t wall_ns) const;  // Requires mu_.

  mutable std::mutex mu_;
  SlowFrameOptions options_;
  bool enabled_ = true;
  uint64_t frames_seen_ = 0;
  uint64_t captures_dropped_ = 0;
  std::vector<FrameStageRecord> ring_;  // Circular, ring_frames capacity.
  size_t ring_next_ = 0;
  std::vector<SlowFrameEntry> captures_;
};

// The process-wide capture the frame loops feed. Always on with default
// options; benches re-Configure() it when --slowdump-out is requested.
SlowFrameCapture& GlobalSlowFrameCapture();

// Container round trip ("HDOVSLOW", see docs/telemetry.md).
std::string EncodeSlowDump(const SlowDump& dump);
Result<SlowDump> DecodeSlowDump(std::string_view data);

// Chrome trace-event conversion (pid table in docs/telemetry.md): one tid
// (track) per session, named after it. Each capture renders the queue
// wait and the frame as "X" slices, the stage breakdown as child slices
// laid end to end in stage order (an approximation: real stage intervals
// may interleave), and the captured io/pool flight events as instants at
// their true timestamps.
std::string SlowDumpChromeTraceJson(const SlowDump& dump);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_SLOW_FRAME_H_
