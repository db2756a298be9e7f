// FlightRecorder: the always-on, bounded-memory event log underneath the
// richer (opt-in) TraceRecorder. Instrumented code appends fixed-size
// 32-byte binary events — span begin/end, page fetches, buffer-pool
// hits/misses, frame boundaries — into lock-free per-thread ring buffers.
// Old events are overwritten, never flushed, so a long-lived process pays
// a constant memory cost and a ~46 ns per-event hot-path cost (a
// steady_clock read plus the ring store; BM_FlightRecorderOverhead): the
// last N events per thread are always available for a post-hoc "what
// just happened" drain, exactly like an aircraft flight recorder.
//
// Read batches: the model-fetch loop of a query or frame bills one page
// run per model, about 75 per query. Inside a FlightReadBatch scope those
// kPageRead events merge into one kPageReads event per consecutive
// (code, stage, session) run of reads, carrying the run and page totals,
// so the loop pays the per-event cost once per device instead of once
// per model. Reads outside a batch stay one kPageRead per run.
//
// Concurrency model: each thread writes only its own ring (registered on
// first use); every slot is a quartet of relaxed atomics published by a
// release store of the ring head, so a concurrent Drain reads a
// consistent prefix and discards the (rare) region a writer may have
// lapped mid-copy. No lock is ever taken on the record path.
//
// Determinism: events carry real steady_clock timestamps but the recorder
// never touches the SimClock, IoStats, or any registry metric — enabling
// or disabling it cannot move a single simulated counter, which is what
// lets it stay on under the zero-drift CI perf gate.
//
// Attribution: every event is stamped with the recording thread's ambient
// TraceContext (telemetry/trace_context.h) — the session it serves and
// the pipeline stage it is in — so a drained dump can answer "which
// session's fetch stage caused this pool miss" without any hook changing
// its signature. Dumps are versioned ("HDOVFREC" v2 carries the wider
// events; v1 dumps still decode with session/stage zero). New event types
// are append-only and keep the 32-byte row, so they need no new version.

#ifndef HDOV_TELEMETRY_FLIGHT_RECORDER_H_
#define HDOV_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"

namespace hdov::telemetry {

enum class FlightEventType : uint8_t {
  kNone = 0,
  kSpanBegin = 1,   // a = span id within its recorder.
  kSpanEnd = 2,     // a = span id.
  kPageRead = 3,    // a = first page id, b = page count.
  kPageWrite = 4,   // a = page id, b = 1.
  kPoolHit = 5,     // a = page id.
  kPoolMiss = 6,    // a = page id, b = miss-fill wall time in ns.
  kFrameBegin = 7,  // a = frame index.
  kFrameEnd = 8,    // a = frame index, b = io_pages (when attributed).
  // Prefetch overlap accounting (src/prefetch/, docs/prefetch.md). Issue
  // events are ordinary kPageRead events recorded with stage == kPrefetch;
  // these two cover the other ends of a prefetched page's life.
  kPrefetchUsed = 9,    // a = first page id, b = pages consumed unbilled.
  kPrefetchCancel = 10, // a = resident pages invalidated, b = planned cell.
  // Consecutive kPageRead events of one (code, stage, session) recorded
  // inside a FlightReadBatch; ts_ns is the first run's.
  kPageReads = 11,      // a = run count, b = page count.
};

std::string_view FlightEventTypeName(FlightEventType type);

// One recorded event. `code` is an interned-name id (FlightInternName)
// identifying the emitting device / pool / system / span; `thread` is the
// recorder-assigned ring id of the emitting thread; `session` is the
// interned name id of the session the thread was serving (0 when
// unattributed) and `stage` the TraceStage it was in, both captured from
// the thread's TraceContext at Record() time.
struct FlightEvent {
  uint64_t ts_ns = 0;   // steady_clock, since the process flight epoch.
  uint8_t type = 0;     // FlightEventType.
  uint8_t stage = 0;    // TraceStage.
  uint16_t code = 0;
  uint16_t thread = 0;
  uint16_t session = 0;  // Interned session name id; 0 = unattributed.
  uint64_t a = 0;
  uint64_t b = 0;
};
static_assert(sizeof(FlightEvent) == 32, "events are fixed 32-byte records");

// Process-wide name interning for event codes. The table is append-only
// and capped (kMaxFlightNames); id 0 is the reserved "?" returned when the
// table is full, so interning can never fail, only degrade. Interning
// takes a lock only on first insertion of a name; hot paths cache the id.
inline constexpr size_t kMaxFlightNames = 256;
uint16_t FlightInternName(std::string_view name);
std::string_view FlightNameForId(uint16_t id);  // "?" when out of range.
size_t FlightNameCount();
// Process-wide count of intern calls refused because the table was full
// (each such call degraded to the "?" code). Deliberately not a registry
// metric — the recorder never touches the registry — but surfaced in
// dumps, `hdov_inspect --flight` rollups, and bench telemetry output.
uint64_t FlightNamesDropped();

// A drained recorder image: the merged events plus the name table they
// index into. This is also the in-memory form of a dump file.
struct FlightDump {
  std::vector<std::string> names;   // Indexed by FlightEvent::code.
  std::vector<FlightEvent> events;  // Merged, timestamp order.
  uint64_t dropped = 0;             // Ring overwrites of undrained events.
  uint64_t names_dropped = 0;       // Intern calls degraded to "?" (v2+).

  std::string_view NameOf(uint16_t id) const {
    return id < names.size() ? std::string_view(names[id]) : "?";
  }
  std::string_view NameOf(const FlightEvent& e) const { return NameOf(e.code); }
};

class FlightRecorder {
 public:
  // `events_per_thread` is rounded up to a power of two; each slot is 32
  // bytes, so the default keeps a thread's ring at 1 MiB.
  explicit FlightRecorder(size_t events_per_thread = 1 << 15);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  size_t events_per_thread() const { return capacity_; }

  // Appends one event to the calling thread's ring (registering the
  // thread on first use). No-op when disabled. Lock-free after the first
  // call per thread. Inside a FlightReadBatch on this recorder, kPageRead
  // events merge into the thread's pending kPageReads aggregate, and any
  // other event writes that aggregate out first.
  void Record(FlightEventType type, uint16_t code, uint64_t a, uint64_t b);

  // Like Record, but stamps `stage` (a TraceStage value) instead of the
  // thread's ambient stage; session attribution is still ambient. For
  // hooks that know an event's pipeline meaning regardless of what scope
  // they run under — e.g. a diverted prefetch read is a kPrefetch issue
  // even while the speculative searcher's own kSearch scope is active.
  void RecordWithStage(FlightEventType type, uint16_t code, uint64_t a,
                       uint64_t b, uint8_t stage);

  // Threads that ever recorded into this recorder.
  size_t num_threads() const;
  // Total events ever recorded / overwritten before being consumed.
  uint64_t events_recorded() const;
  uint64_t events_dropped() const;

  // Snapshot of every ring's surviving events, merged across threads in
  // timestamp order. With `consume`, drained events are marked consumed:
  // the next Drain starts after them and they can no longer count as
  // dropped. Safe to call while other threads record (events published
  // mid-drain may or may not be included).
  FlightDump Drain(bool consume = false);

  // Binary dump round trip ("HDOVFREC" container, see docs/telemetry.md).
  Status WriteDump(const std::string& path, bool consume = false);
  static Result<FlightDump> ReadDump(const std::string& path);

 private:
  struct Slot {
    std::atomic<uint64_t> w[4];
  };
  struct Buffer {
    explicit Buffer(size_t capacity, uint32_t id)
        : ring(new Slot[capacity]()), id(id) {}
    std::unique_ptr<Slot[]> ring;
    std::atomic<uint64_t> head{0};      // Next monotonic write index.
    std::atomic<uint64_t> consumed{0};  // Below this: drained or counted.
    std::atomic<uint64_t> lost{0};      // Overwritten before consumption.
    uint32_t id = 0;
  };

  friend class FlightReadBatch;

  Buffer* LocalBuffer();
  // Writes one slot of the calling thread's ring.
  void Append(uint64_t ts_ns, FlightEventType type, uint8_t stage,
              uint16_t code, uint16_t session, uint64_t a, uint64_t b);
  // Writes the calling thread's pending kPageReads aggregate, if any.
  void FlushReadBatch();

  const size_t capacity_;  // Power of two.
  const uint64_t serial_;  // Process-unique; keys the thread-local cache.
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // Guards buffers_ growth; never on record path.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// The process-wide recorder every built-in hook records into: device
// reads/writes, pool hits/misses, frame boundaries and span begin/end all
// land here. Enabled from the start (that is the point); disable it via
// GlobalFlightRecorder().set_enabled(false) to measure its absence.
FlightRecorder& GlobalFlightRecorder();

// Serializes / parses the dump container (also used by tools/hdov_inspect
// on files produced by --flight-out).
std::string EncodeFlightDump(const FlightDump& dump);
Result<FlightDump> DecodeFlightDump(std::string_view data);

// The two sections both dump containers (HDOVFREC, HDOVSLOW) share. Each
// container writes the counts in its own header; `what` names the
// container in Corruption messages. Decoding rejects more than
// kMaxFlightNames names and any count the remaining input cannot hold.
void EncodeFlightNames(const std::vector<std::string>& names,
                       std::string* out);
Status DecodeFlightNames(Decoder* dec, uint32_t count, std::string_view what,
                         std::vector<std::string>* names);
void EncodeFlightEvents(const std::vector<FlightEvent>& events,
                        std::string* out);
Status DecodeFlightEvents(Decoder* dec, uint64_t count,
                          std::string_view what,
                          std::vector<FlightEvent>* events);

// Snapshot of the process-wide name table, so that a dump is
// self-describing.
std::vector<std::string> FlightNameTable();

// Chrome trace-event conversion (pid table in docs/telemetry.md): frame
// begin/end and span begin/end pair into "B"/"E" events per ring thread,
// page/pool events become instants, all on the recorder's steady-clock
// timeline. Session/stage attribution lands in each event's args.
std::string FlightChromeTraceJson(const FlightDump& dump);

// Nanoseconds since the process flight epoch (first use).
uint64_t FlightNowNs();

// RAII read batch: while the outermost scope on a thread is open, that
// thread's kPageRead events on `recorder` merge into one kPageReads event
// per consecutive (code, stage, session) run, written when the key
// changes, when the thread records any other event type on `recorder`
// (so prefetch, span and frame events keep their order), or when the
// outermost scope closes. Scopes nest; a nested scope joins the
// outermost one's batch, whatever recorder it names.
class FlightReadBatch {
 public:
  explicit FlightReadBatch(FlightRecorder& recorder);
  ~FlightReadBatch();

  FlightReadBatch(const FlightReadBatch&) = delete;
  FlightReadBatch& operator=(const FlightReadBatch&) = delete;
};

// RAII frame boundary: kFrameBegin on construction, kFrameEnd on
// destruction, recorded into the global recorder. `code` identifies the
// emitting system (FlightInternName of its name).
class FlightFrameScope {
 public:
  FlightFrameScope(uint16_t code, uint64_t frame_index)
      : code_(code), index_(frame_index) {
    GlobalFlightRecorder().Record(FlightEventType::kFrameBegin, code_,
                                  index_, 0);
  }
  ~FlightFrameScope() {
    GlobalFlightRecorder().Record(FlightEventType::kFrameEnd, code_, index_,
                                  io_pages_);
  }

  FlightFrameScope(const FlightFrameScope&) = delete;
  FlightFrameScope& operator=(const FlightFrameScope&) = delete;

  // Attributes the frame's billed pages to the kFrameEnd event.
  void set_io_pages(uint64_t pages) { io_pages_ = pages; }

 private:
  uint16_t code_;
  uint64_t index_;
  uint64_t io_pages_ = 0;
};

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_FLIGHT_RECORDER_H_
