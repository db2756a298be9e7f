// Frame loop: plays a recorded session back on a walkthrough system and
// aggregates the paper's metrics — average frame time, frame-time variance
// ("choppiness"), per-query search time and I/O, peak memory.

#ifndef HDOV_WALKTHROUGH_FRAME_LOOP_H_
#define HDOV_WALKTHROUGH_FRAME_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "scene/session.h"
#include "telemetry/metrics.h"
#include "telemetry/slow_frame.h"
#include "walkthrough/walkthrough_system.h"

namespace hdov {

struct SessionSummary {
  std::string system_name;
  std::string session_name;
  size_t num_frames = 0;

  double avg_frame_time_ms = 0.0;
  double var_frame_time = 0.0;   // Variance of the per-frame times.
  double avg_query_time_ms = 0.0;
  double avg_io_pages = 0.0;
  double avg_light_io_pages = 0.0;
  // Always 0: every walkthrough system bills its tree-node reads uncached,
  // as the paper's Figs. 7-9 do. Kept for the `.cache_hit_rate` session
  // gauge and the pinned baselines that read it.
  double avg_cache_hit_rate = 0.0;
  uint64_t max_resident_bytes = 0;

  // Per-frame detail (kept when PlaySession is asked to).
  std::vector<FrameResult> frames;
};

// Streaming aggregator turning a sequence of FrameResults into the
// SessionSummary statistics. One code path for solo playback (PlaySession)
// and the walkthrough server's per-session loops, so their summaries are
// equivalent by construction: the same frame sequence produces the same
// (bit-identical) aggregate doubles.
//
// Frame-time variance uses Welford's online algorithm — the textbook
// E[x²]−E[x]² form cancels catastrophically when the mean is large and the
// spread small (a long session of ~1e8 ms frames with ±1 ms jitter rounds
// to variance 0.0).
class SessionAccumulator {
 public:
  void Add(const FrameResult& frame) {
    ++count_;
    const double delta = frame.frame_time_ms - mean_time_;
    mean_time_ += delta / static_cast<double>(count_);
    m2_time_ += delta * (frame.frame_time_ms - mean_time_);
    sum_query_ += frame.query_time_ms;
    sum_io_ += static_cast<double>(frame.io_pages);
    sum_light_io_ += static_cast<double>(frame.light_io_pages);
    max_resident_bytes_ = std::max(max_resident_bytes_, frame.resident_bytes);
  }

  size_t count() const { return count_; }

  // Fills the aggregate fields of `summary` (leaves the identity fields
  // and the kept frames alone). Requires count() > 0.
  void FinishInto(SessionSummary* summary) const {
    const double n = static_cast<double>(count_);
    summary->num_frames = count_;
    summary->avg_frame_time_ms = mean_time_;
    summary->var_frame_time = m2_time_ / n;  // Population variance.
    summary->avg_query_time_ms = sum_query_ / n;
    summary->avg_io_pages = sum_io_ / n;
    summary->avg_light_io_pages = sum_light_io_ / n;
    summary->max_resident_bytes = max_resident_bytes_;
  }

 private:
  size_t count_ = 0;
  double mean_time_ = 0.0;
  double m2_time_ = 0.0;  // Welford: sum of squared deviations from the mean.
  double sum_query_ = 0.0;
  double sum_io_ = 0.0;
  double sum_light_io_ = 0.0;
  uint64_t max_resident_bytes_ = 0;
};

struct PlayOptions {
  bool keep_frames = false;
  bool reset_runtime_first = true;  // Start the session cold.
};

Result<SessionSummary> PlaySession(WalkthroughSystem* system,
                                   const Session& session,
                                   const PlayOptions& options = PlayOptions());

// Renders frame `frame_index` of a session under that session's trace
// context and measures it: wall time, exclusive per-stage split and billed
// pages land in `record`, which on success is fed to the global slow-frame
// capture. `enqueue_ns` is when a scheduler made the frame runnable
// (FlightNowNs timeline); without a scheduler it is empty and queue_ns
// stays 0. Solo playback (PlaySession) and the walkthrough server both
// measure their frames here.
Status MeasureFrame(WalkthroughSystem* system, const Viewpoint& viewpoint,
                    uint16_t session_code, uint64_t frame_index,
                    std::optional<uint64_t> enqueue_ns, FrameResult* frame,
                    telemetry::FrameStageRecord* record);

// Writes the five per-session summary gauges `<base>.avg_frame_time_ms`,
// `.var_frame_time`, `.avg_io_pages`, `.cache_hit_rate` and
// `.max_resident_bytes` from `summary`.
void SetSessionGauges(telemetry::MetricsRegistry* registry,
                      const std::string& base, const SessionSummary& summary);

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_FRAME_LOOP_H_
