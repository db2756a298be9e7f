// The benchmark's own span recorder. Spans are recorded by the benchmark
// around its calls into each layer of the program (nothing inside the
// program is instrumented), held in memory, and written out once when the
// run ends. Single-threaded: only the benchmark's driving thread records.

#ifndef HDOV_PERFBENCH_SPANS_H_
#define HDOV_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

struct Span {
  const char* name = "";  // Static string: "<layer>.<operation>".
  uint32_t id = 0;        // 1-based; 0 means "no span".
  uint32_t parent = 0;    // The span that caused this one (0 = root).
  uint32_t trace = 0;     // Spans of one request share a trace id.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  // Keeps at most `capacity` spans; later ones are counted as dropped.
  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  // Opens a span under the innermost open one and returns its id.
  uint32_t Begin(const char* name, uint32_t trace) {
    const uint32_t id = ++next_id_;
    const uint32_t parent = open_.empty() ? 0 : open_.back().id;
    size_t slot = kNoSlot;
    if (spans_.size() < capacity_) {
      slot = spans_.size();
      spans_.push_back(Span{name, id, parent, trace, 0, 0});
    } else {
      ++dropped_;
    }
    const uint64_t start = NowNs();
    if (slot != kNoSlot) {
      spans_[slot].start_ns = start;
    }
    open_.push_back(Open{id, slot, start});
    return id;
  }

  // Closes the innermost open span and returns its duration in seconds
  // (measured even when the span itself was dropped).
  double End() {
    const uint64_t now = NowNs();
    const Open open = open_.back();
    open_.pop_back();
    if (open.slot != kNoSlot) {
      spans_[open.slot].end_ns = now;
    }
    return static_cast<double>(now - open.start_ns) / 1e9;
  }

  uint32_t NewTrace() { return ++next_trace_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  // Writes every recorded span as a Chrome trace-event JSON array
  // (complete "X" events; ids in args). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kNoSlot = ~size_t{0};
  struct Open {
    uint32_t id;
    size_t slot;  // Index into spans_, or kNoSlot when dropped.
    uint64_t start_ns;
  };
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  uint32_t next_id_ = 0;
  uint32_t next_trace_ = 0;
  uint64_t dropped_ = 0;
};

// RAII span; `seconds` holds the duration once the scope closes. A null
// recorder makes it a plain timer, so traced and untraced code share one
// path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint32_t trace,
             double* seconds = nullptr)
      : recorder_(recorder), seconds_(seconds) {
    if (recorder_ != nullptr) {
      recorder_->Begin(name, trace);
    } else {
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    const double s =
        recorder_ != nullptr ? recorder_->End() : SecondsSince(start_ns_);
    if (seconds_ != nullptr) {
      *seconds_ = s;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  double* seconds_;
  uint64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_SPANS_H_
