#include "telemetry/telemetry.h"

#include <algorithm>

#include "common/file_io.h"
#include "telemetry/json.h"

namespace hdov::telemetry {

void Telemetry::RecordFrame(FrameRecord record) {
  ++frames_recorded_;
  record.index = frames_recorded_ - 1;
  record.context = context_;
  if (frames_.size() >= max_frames_) {
    ++frames_dropped_;
    if (frame_callback_) {
      frame_callback_(record);
    }
    return;
  }
  frames_.push_back(std::move(record));
  if (frame_callback_) {
    frame_callback_(frames_.back());
  }
}

namespace {

void WriteFrame(const FrameRecord& f, JsonWriter* w) {
  w->BeginObject();
  w->Key("system").String(f.system);
  w->Key("kind").String(f.kind);
  w->Key("index").Number(f.index);
  if (!f.context.empty()) {
    w->Key("context").String(f.context);
  }
  w->Key("cell").Number(f.cell);
  w->Key("frame_time_ms").Number(f.frame_time_ms);
  w->Key("query_time_ms").Number(f.query_time_ms);
  w->Key("io_pages").Number(f.io_pages);
  w->Key("light_io_pages").Number(f.light_io_pages);
  w->Key("index_bytes_read").Number(f.index_bytes_read);
  w->Key("store_bytes_read").Number(f.store_bytes_read);
  w->Key("model_bytes_read").Number(f.model_bytes_read);
  w->Key("nodes_visited").Number(f.nodes_visited);
  w->Key("vpages_fetched").Number(f.vpages_fetched);
  w->Key("hidden_pruned").Number(f.hidden_pruned);
  w->Key("internal_terminations").Number(f.internal_terminations);
  w->Key("cache_hit_rate").Number(f.cache_hit_rate);
  w->Key("rendered_triangles").Number(f.rendered_triangles);
  w->Key("models_fetched").Number(f.models_fetched);
  w->Key("resident_bytes").Number(f.resident_bytes);
  if (f.fidelity >= 0.0) {
    w->Key("fidelity").Number(f.fidelity);
  }
  w->EndObject();
}

}  // namespace

std::string Telemetry::SnapshotJson() const {
  // The metrics and trace sections already serialize themselves; splice
  // their JSON in rather than re-walking the structures.
  std::string out;
  out.append("{\"version\":1,\"metrics\":");
  out.append(metrics_.Snapshot().ToJson());
  out.append(",\"frames_recorded\":");
  out.append(std::to_string(frames_recorded_));
  out.append(",\"frames_dropped\":");
  out.append(std::to_string(frames_dropped_));
  out.append(",\"frames\":");
  JsonWriter frames;
  frames.BeginArray();
  for (const FrameRecord& f : frames_) {
    WriteFrame(f, &frames);
  }
  frames.EndArray();
  out.append(frames.str());
  if (tracer_.num_spans() > 0) {
    out.append(",\"trace\":");
    out.append(tracer_.ToJson());
  }
  out.push_back('}');
  return out;
}

std::string Telemetry::MetricsTable() const {
  return metrics_.Snapshot().ToTable();
}

Status Telemetry::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, SnapshotJson() + '\n');
}

std::string Telemetry::ChromeTraceJson() const {
  ChromeTraceWriter trace;
  trace.ProcessName(kChromePidFrames, "frames (simulated time)");
  trace.ProcessName(kChromePidSpans, "search trace (logical time)");

  // Frame timeline: one track (tid) per emitting system in order of
  // first appearance, ts accumulating the simulated per-frame time.
  struct Track {
    std::string system;
    double cursor_us = 0.0;
  };
  std::vector<Track> tracks;
  for (const FrameRecord& f : frames_) {
    size_t t = 0;
    for (; t < tracks.size(); ++t) {
      if (tracks[t].system == f.system) {
        break;
      }
    }
    const uint64_t tid = t + 1;
    if (t == tracks.size()) {
      tracks.push_back(Track{f.system, 0.0});
      trace.ThreadName(kChromePidFrames, tid, f.system);
    }
    const double dur_us =
        (f.frame_time_ms > 0.0 ? f.frame_time_ms : f.query_time_ms) * 1000.0;
    trace.Complete(f.kind, "frame", kChromePidFrames, tid,
                   tracks[t].cursor_us, dur_us, [&f](JsonWriter& args) {
                     if (!f.context.empty()) {
                       args.Key("context").String(f.context);
                     }
                     args.Key("cell").Number(f.cell);
                     args.Key("io_pages").Number(f.io_pages);
                     args.Key("nodes_visited").Number(f.nodes_visited);
                     args.Key("vpages_fetched").Number(f.vpages_fetched);
                     args.Key("rendered_triangles")
                         .Number(f.rendered_triangles);
                     args.Key("models_fetched").Number(f.models_fetched);
                     args.Key("cache_hit_rate").Number(f.cache_hit_rate);
                     if (f.fidelity >= 0.0) {
                       args.Key("fidelity").Number(f.fidelity);
                     }
                   });
    // A sibling counter track so I/O pressure plots over the timeline.
    trace.Event("C", tracks[t].system + " io_pages", {}, kChromePidFrames,
                tid, tracks[t].cursor_us, [&f](JsonWriter& args) {
                  args.Key("pages").Number(f.io_pages);
                });
    tracks[t].cursor_us += dur_us;
  }

  // Span forest. Spans are recorded in preorder, so each span's subtree
  // occupies the contiguous index range [i, end[i]) — logical intervals
  // that nest exactly like the recorded tree.
  const size_t n = tracer_.num_spans();
  std::vector<size_t> end(n);
  for (size_t i = 0; i < n; ++i) {
    end[i] = i + 1;
  }
  for (size_t i = n; i-- > 0;) {
    const int32_t parent = tracer_.span(i).parent;
    if (parent >= 0) {
      end[static_cast<size_t>(parent)] =
          std::max(end[static_cast<size_t>(parent)], end[i]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const TraceSpan& s = tracer_.span(i);
    trace.Complete(s.name, "span", kChromePidSpans, 1,
                   static_cast<double>(i), static_cast<double>(end[i] - i),
                   [&s](JsonWriter& args) {
                     for (const auto& [key, value] : s.num_attrs) {
                       args.Key(key).Number(value);
                     }
                     for (const auto& [key, value] : s.str_attrs) {
                       args.Key(key).String(value);
                     }
                   });
  }
  return trace.Finish();
}

Status Telemetry::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ChromeTraceJson() + '\n');
}

void Telemetry::Reset() {
  metrics_.ResetValues();
  tracer_.Clear();
  frames_.clear();
  frames_recorded_ = 0;
  frames_dropped_ = 0;
  context_.clear();
}

}  // namespace hdov::telemetry
