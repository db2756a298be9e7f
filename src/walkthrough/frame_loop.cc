#include "walkthrough/frame_loop.h"

#include <algorithm>
#include <cmath>

#include "telemetry/trace_context.h"

namespace hdov {

Result<SessionSummary> PlaySession(WalkthroughSystem* system,
                                   const Session& session,
                                   const PlayOptions& options) {
  if (session.frames.empty()) {
    return Status::InvalidArgument("play session: empty session");
  }
  if (options.reset_runtime_first) {
    system->ResetRuntime();
  }

  // Stamp the session name into every frame record emitted below, and
  // restore whatever context the caller had set when the session ends.
  telemetry::Telemetry* telemetry = system->telemetry();
  const std::string saved_context =
      telemetry != nullptr ? telemetry->context() : std::string();
  if (telemetry != nullptr) {
    telemetry->set_context(session.name);
  }

  SessionSummary summary;
  summary.system_name = system->name();
  summary.session_name = session.name;

  // Trace attribution: every flight event below carries this session's
  // interned id, and each frame's stage breakdown feeds the always-on
  // slow-frame ring (queue_ns stays 0 — solo playback has no scheduler).
  const uint16_t session_code = telemetry::FlightInternName(session.name);

  SessionAccumulator acc;
  uint64_t frame_index = 0;
  for (const Viewpoint& vp : session.frames) {
    FrameResult frame;
    telemetry::FrameStageRecord record;
    const Status status = MeasureFrame(system, vp, session_code, frame_index,
                                       std::nullopt, &frame, &record);
    if (!status.ok()) {
      if (telemetry != nullptr) {
        telemetry->set_context(saved_context);
      }
      return status;
    }
    ++frame_index;
    acc.Add(frame);
    if (options.keep_frames) {
      summary.frames.push_back(frame);
    }
  }
  acc.FinishInto(&summary);

  if (telemetry != nullptr) {
    telemetry->set_context(saved_context);
    if (telemetry->enabled()) {
      // Session-level aggregates as gauges, keyed by system and session.
      SetSessionGauges(
          &telemetry->metrics(),
          system->telemetry_prefix() + ".session." + session.name, summary);
    }
  }
  return summary;
}

Status MeasureFrame(WalkthroughSystem* system, const Viewpoint& viewpoint,
                    uint16_t session_code, uint64_t frame_index,
                    std::optional<uint64_t> enqueue_ns, FrameResult* frame,
                    telemetry::FrameStageRecord* record) {
  Status status;
  record->start_ns = telemetry::FlightNowNs();  // Dispatch.
  {
    telemetry::SessionTraceScope trace(session_code, frame_index);
    telemetry::BeginStageAccounting();
    status = system->RenderFrame(viewpoint, frame);
    record->wall_ns = telemetry::FlightNowNs() - record->start_ns;
    record->stages = telemetry::FinishStageAccounting();
  }
  if (!status.ok()) {
    return status;
  }
  record->session = session_code;
  record->frame = frame_index;
  record->queue_ns = enqueue_ns ? record->start_ns - *enqueue_ns : 0;
  record->io_pages = frame->io_pages;
  telemetry::GlobalSlowFrameCapture().OnFrame(*record);
  return Status::OK();
}

void SetSessionGauges(telemetry::MetricsRegistry* registry,
                      const std::string& base, const SessionSummary& summary) {
  registry->GetGauge(base + ".avg_frame_time_ms")
      ->Set(summary.avg_frame_time_ms);
  registry->GetGauge(base + ".var_frame_time")->Set(summary.var_frame_time);
  registry->GetGauge(base + ".avg_io_pages")->Set(summary.avg_io_pages);
  registry->GetGauge(base + ".cache_hit_rate")
      ->Set(summary.avg_cache_hit_rate);
  registry->GetGauge(base + ".max_resident_bytes")
      ->Set(static_cast<double>(summary.max_resident_bytes));
}

}  // namespace hdov
