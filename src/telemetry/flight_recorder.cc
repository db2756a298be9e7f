#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <utility>

#include "common/coding.h"
#include "common/file_io.h"
#include "telemetry/json.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

std::string_view FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone:
      return "none";
    case FlightEventType::kSpanBegin:
      return "span_begin";
    case FlightEventType::kSpanEnd:
      return "span_end";
    case FlightEventType::kPageRead:
      return "page_read";
    case FlightEventType::kPageWrite:
      return "page_write";
    case FlightEventType::kPoolHit:
      return "pool_hit";
    case FlightEventType::kPoolMiss:
      return "pool_miss";
    case FlightEventType::kFrameBegin:
      return "frame_begin";
    case FlightEventType::kFrameEnd:
      return "frame_end";
    case FlightEventType::kPrefetchUsed:
      return "prefetch_used";
    case FlightEventType::kPrefetchCancel:
      return "prefetch_cancel";
    case FlightEventType::kPageReads:
      return "page_reads";
  }
  return "unknown";
}

uint64_t FlightNowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

// Strings are written before the release store of `count`, so lock-free
// readers only ever see fully constructed entries.
struct NameTable {
  std::mutex mu;                 // Insertions only.
  std::array<std::string, kMaxFlightNames> names;
  std::atomic<size_t> count{1};  // names[0] is the reserved "?".
  // Intern calls refused because the table was full. Counted per call,
  // not per distinct name (distinct overflow names are unbounded): hot
  // paths cache their id, so a steady rate here means live code is
  // repeatedly degrading to "?".
  std::atomic<uint64_t> dropped{0};
  NameTable() { names[0] = "?"; }
};

NameTable& GlobalNames() {
  // Leaked: hooks in static destructors may still intern at exit.
  static NameTable* table = new NameTable();
  return *table;
}

// The event codec. A ring slot and a dump's event row hold the same four
// little-endian u64 words: ts_ns, meta, a, b (docs/telemetry.md, "Event
// rows"). The meta word packs
//   type(8) | stage(8) | code(16) | session(16) | thread(16).
constexpr size_t kFlightEventBytes = 32;

inline uint64_t PackFlightMeta(uint8_t type, uint8_t stage, uint16_t code,
                               uint16_t session, uint16_t thread) {
  return static_cast<uint64_t>(type) | (static_cast<uint64_t>(stage) << 8) |
         (static_cast<uint64_t>(code) << 16) |
         (static_cast<uint64_t>(session) << 32) |
         (static_cast<uint64_t>(thread) << 48);
}

inline void UnpackFlightMeta(uint64_t meta, FlightEvent* ev) {
  ev->type = static_cast<uint8_t>(meta & 0xff);
  ev->stage = static_cast<uint8_t>((meta >> 8) & 0xff);
  ev->code = static_cast<uint16_t>((meta >> 16) & 0xffff);
  ev->session = static_cast<uint16_t>((meta >> 32) & 0xffff);
  ev->thread = static_cast<uint16_t>(meta >> 48);
}

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

uint16_t FlightInternName(std::string_view name) {
  NameTable& table = GlobalNames();
  const size_t published = table.count.load(std::memory_order_acquire);
  for (size_t i = 0; i < published; ++i) {
    if (table.names[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  std::lock_guard<std::mutex> lock(table.mu);
  const size_t count = table.count.load(std::memory_order_relaxed);
  for (size_t i = published; i < count; ++i) {
    if (table.names[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  if (count >= kMaxFlightNames) {
    // Table full: degrade to the "?" code, never fail — but loudly.
    table.dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  table.names[count].assign(name);
  table.count.store(count + 1, std::memory_order_release);
  return static_cast<uint16_t>(count);
}

std::string_view FlightNameForId(uint16_t id) {
  NameTable& table = GlobalNames();
  if (id >= table.count.load(std::memory_order_acquire)) {
    return "?";
  }
  return table.names[id];
}

size_t FlightNameCount() {
  return GlobalNames().count.load(std::memory_order_acquire);
}

uint64_t FlightNamesDropped() {
  return GlobalNames().dropped.load(std::memory_order_relaxed);
}

std::vector<std::string> FlightNameTable() {
  const size_t count = FlightNameCount();
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    names.emplace_back(FlightNameForId(static_cast<uint16_t>(i)));
  }
  return names;
}

namespace {

std::atomic<uint64_t> g_recorder_serial{1};

}  // namespace

FlightRecorder::FlightRecorder(size_t events_per_thread)
    : capacity_(static_cast<size_t>(
          RoundUpPow2(std::max<uint64_t>(2, events_per_thread)))),
      serial_(g_recorder_serial.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Buffer* FlightRecorder::LocalBuffer() {
  // Keyed by the recorder's process-unique serial, never by address, so a
  // recorder reusing a destroyed one's storage cannot match stale entries.
  struct CacheEntry {
    uint64_t serial;
    Buffer* buffer;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.serial == serial_) {
      return entry.buffer;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(
      capacity_, static_cast<uint32_t>(buffers_.size())));
  Buffer* buffer = buffers_.back().get();
  cache.push_back(CacheEntry{serial_, buffer});
  return buffer;
}

namespace {

// The calling thread's read batch (FlightReadBatch). `recorder` is the
// recorder the outermost open scope names, null when none is open; the
// pending aggregate is empty while `runs` is 0.
struct ReadBatch {
  FlightRecorder* recorder = nullptr;
  uint32_t depth = 0;
  uint8_t stage = 0;
  uint16_t code = 0;
  uint16_t session = 0;
  uint64_t ts_ns = 0;
  uint64_t runs = 0;
  uint64_t pages = 0;
};

thread_local ReadBatch t_read_batch;

}  // namespace

void FlightRecorder::Record(FlightEventType type, uint16_t code, uint64_t a,
                            uint64_t b) {
  // Stamp the thread's ambient session + stage so the event is
  // attributable without widening any hook signature.
  RecordWithStage(type, code, a, b,
                  static_cast<uint8_t>(CurrentTraceContext().stage));
}

void FlightRecorder::RecordWithStage(FlightEventType type, uint16_t code,
                                     uint64_t a, uint64_t b, uint8_t stage) {
  if (!enabled()) {
    return;
  }
  const uint16_t session = CurrentTraceContext().session;
  ReadBatch& batch = t_read_batch;
  if (batch.recorder == this) {
    if (type == FlightEventType::kPageRead) {
      if (batch.runs != 0 && batch.code == code && batch.stage == stage &&
          batch.session == session) {
        ++batch.runs;
        batch.pages += b;
        return;
      }
      FlushReadBatch();
      batch.stage = stage;
      batch.code = code;
      batch.session = session;
      batch.ts_ns = FlightNowNs();
      batch.runs = 1;
      batch.pages = b;
      return;
    }
    FlushReadBatch();
  }
  Append(FlightNowNs(), type, stage, code, session, a, b);
}

void FlightRecorder::FlushReadBatch() {
  ReadBatch& batch = t_read_batch;
  if (batch.runs == 0) {
    return;
  }
  Append(batch.ts_ns, FlightEventType::kPageReads, batch.stage, batch.code,
         batch.session, batch.runs, batch.pages);
  batch.runs = 0;
}

void FlightRecorder::Append(uint64_t ts_ns, FlightEventType type,
                            uint8_t stage, uint16_t code, uint16_t session,
                            uint64_t a, uint64_t b) {
  Buffer* buf = LocalBuffer();
  const uint64_t idx = buf->head.load(std::memory_order_relaxed);
  Slot& slot = buf->ring[idx & (capacity_ - 1)];
  slot.w[0].store(ts_ns, std::memory_order_relaxed);
  slot.w[1].store(PackFlightMeta(static_cast<uint8_t>(type), stage, code,
                                 session, static_cast<uint16_t>(buf->id)),
                  std::memory_order_relaxed);
  slot.w[2].store(a, std::memory_order_relaxed);
  slot.w[3].store(b, std::memory_order_relaxed);
  // Publishes the slot: Drain acquires `head` before touching the ring.
  buf->head.store(idx + 1, std::memory_order_release);
}

FlightReadBatch::FlightReadBatch(FlightRecorder& recorder) {
  ReadBatch& batch = t_read_batch;
  if (batch.depth++ == 0) {
    batch.recorder = &recorder;
  }
}

FlightReadBatch::~FlightReadBatch() {
  ReadBatch& batch = t_read_batch;
  if (--batch.depth == 0) {
    batch.recorder->FlushReadBatch();
    batch.recorder = nullptr;
  }
}

size_t FlightRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->head.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t FlightRecorder::events_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t ring_begin = head > capacity_ ? head - capacity_ : 0;
    const uint64_t consumed = buf->consumed.load(std::memory_order_relaxed);
    total += buf->lost.load(std::memory_order_relaxed);
    if (ring_begin > consumed) {
      total += ring_begin - consumed;
    }
  }
  return total;
}

FlightDump FlightRecorder::Drain(bool consume) {
  FlightDump dump;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t ring_begin = head > capacity_ ? head - capacity_ : 0;
    uint64_t consumed = buf->consumed.load(std::memory_order_relaxed);
    if (ring_begin > consumed) {
      // Events in [consumed, ring_begin) were overwritten before anyone
      // drained them: account them lost exactly once.
      buf->lost.fetch_add(ring_begin - consumed, std::memory_order_relaxed);
      buf->consumed.store(ring_begin, std::memory_order_relaxed);
      consumed = ring_begin;
    }
    struct Pending {
      uint64_t idx;
      FlightEvent event;
    };
    std::vector<Pending> pending;
    pending.reserve(static_cast<size_t>(head - consumed));
    for (uint64_t idx = consumed; idx < head; ++idx) {
      const Slot& slot = buf->ring[idx & (capacity_ - 1)];
      FlightEvent ev;
      ev.ts_ns = slot.w[0].load(std::memory_order_relaxed);
      UnpackFlightMeta(slot.w[1].load(std::memory_order_relaxed), &ev);
      ev.a = slot.w[2].load(std::memory_order_relaxed);
      ev.b = slot.w[3].load(std::memory_order_relaxed);
      pending.push_back(Pending{idx, ev});
    }
    // A writer may have lapped part of the copied range mid-copy; re-read
    // the head and discard every index it could have overwritten (plus the
    // slot the writer may currently be filling, hence the +1).
    const uint64_t head_after = buf->head.load(std::memory_order_acquire);
    const uint64_t valid_from =
        head_after > capacity_ ? head_after - capacity_ + 1 : 0;
    for (const Pending& p : pending) {
      if (p.idx >= valid_from) {
        dump.events.push_back(p.event);
      }
    }
    if (consume) {
      buf->consumed.store(head, std::memory_order_relaxed);
    }
    dump.dropped += buf->lost.load(std::memory_order_relaxed);
  }
  std::stable_sort(dump.events.begin(), dump.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_ns != y.ts_ns ? x.ts_ns < y.ts_ns
                                               : x.thread < y.thread;
                   });
  dump.names = FlightNameTable();
  dump.names_dropped = FlightNamesDropped();
  return dump;
}

// ---------------------------------------------------------------------
// The name-table and event-row sections both containers share.

void EncodeFlightNames(const std::vector<std::string>& names,
                       std::string* out) {
  for (const std::string& name : names) {
    EncodeFixed32(out, static_cast<uint32_t>(name.size()));
    out->append(name);
  }
}

Status DecodeFlightNames(Decoder* dec, uint32_t count, std::string_view what,
                         std::vector<std::string>* names) {
  if (count > kMaxFlightNames) {
    return Status::Corruption(std::string(what) + ": name table too large");
  }
  names->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    std::string_view name;
    HDOV_RETURN_IF_ERROR(dec->DecodeFixed32(&len));
    if (!dec->DecodeBytes(len, &name).ok()) {
      return Status::Corruption(std::string(what) + ": truncated name");
    }
    names->emplace_back(name);
  }
  return Status::OK();
}

void EncodeFlightEvents(const std::vector<FlightEvent>& events,
                        std::string* out) {
  for (const FlightEvent& ev : events) {
    EncodeFixed64(out, ev.ts_ns);
    EncodeFixed64(out, PackFlightMeta(ev.type, ev.stage, ev.code, ev.session,
                                      ev.thread));
    EncodeFixed64(out, ev.a);
    EncodeFixed64(out, ev.b);
  }
}

Status DecodeFlightEvents(Decoder* dec, uint64_t count,
                          std::string_view what,
                          std::vector<FlightEvent>* events) {
  if (count > dec->remaining() / kFlightEventBytes) {
    return Status::Corruption(std::string(what) +
                              ": truncated event section");
  }
  events->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    FlightEvent ev;
    uint64_t meta = 0;
    HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&ev.ts_ns));
    HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&meta));
    HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&ev.a));
    HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&ev.b));
    UnpackFlightMeta(meta, &ev);
    events->push_back(ev);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Dump container: "HDOVFREC" magic, version, name table, event rows.
// v1: header {names, events, dropped}; event meta packs
//     type(16) | code(16) | thread(32).
// v2: header gains names_dropped; event rows as PackFlightMeta packs
//     them.
// The reader accepts both; v1 events decode with session/stage zero
// (old dumps predate attribution).

namespace {
constexpr char kFlightMagic[8] = {'H', 'D', 'O', 'V', 'F', 'R', 'E', 'C'};
constexpr uint32_t kFlightVersion = 2;
}  // namespace

std::string EncodeFlightDump(const FlightDump& dump) {
  std::string out;
  out.append(kFlightMagic, sizeof(kFlightMagic));
  EncodeFixed32(&out, kFlightVersion);
  EncodeFixed32(&out, static_cast<uint32_t>(dump.names.size()));
  EncodeFixed64(&out, dump.events.size());
  EncodeFixed64(&out, dump.dropped);
  EncodeFixed64(&out, dump.names_dropped);
  EncodeFlightNames(dump.names, &out);
  EncodeFlightEvents(dump.events, &out);
  return out;
}

Result<FlightDump> DecodeFlightDump(std::string_view data) {
  if (data.size() < sizeof(kFlightMagic) ||
      data.compare(0, sizeof(kFlightMagic),
                   std::string_view(kFlightMagic, sizeof(kFlightMagic))) !=
          0) {
    return Status::Corruption("flight dump: bad magic");
  }
  Decoder dec(data.substr(sizeof(kFlightMagic)));
  uint32_t version = 0;
  uint32_t name_count = 0;
  uint64_t event_count = 0;
  FlightDump dump;
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&version));
  if (version < 1 || version > kFlightVersion) {
    return Status::Corruption("flight dump: unsupported version " +
                              std::to_string(version));
  }
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&name_count));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&event_count));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&dump.dropped));
  if (version >= 2) {
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&dump.names_dropped));
  }
  HDOV_RETURN_IF_ERROR(
      DecodeFlightNames(&dec, name_count, "flight dump", &dump.names));
  HDOV_RETURN_IF_ERROR(
      DecodeFlightEvents(&dec, event_count, "flight dump", &dump.events));
  if (version == 1) {
    // The v1 meta word read as v2 leaves type and code in place and the
    // v1 thread in `session`; attribution did not exist yet.
    for (FlightEvent& ev : dump.events) {
      ev.thread = ev.session;
      ev.session = 0;
      ev.stage = 0;
    }
  }
  if (dec.remaining() != 0) {
    return Status::Corruption("flight dump: trailing bytes");
  }
  return dump;
}

Status FlightRecorder::WriteDump(const std::string& path, bool consume) {
  return WriteStringToFile(path, EncodeFlightDump(Drain(consume)));
}

Result<FlightDump> FlightRecorder::ReadDump(const std::string& path) {
  HDOV_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  return DecodeFlightDump(data);
}

std::string FlightChromeTraceJson(const FlightDump& dump) {
  ChromeTraceWriter trace;
  trace.ProcessName(kChromePidFlight, "flight recorder (wall time)");
  // Category and phase by FlightEventType: frames and spans pair into
  // "B"/"E" events, the rest become instants; kNone is skipped.
  static constexpr std::pair<std::string_view, std::string_view> kShape[] = {
      {},
      {"span", "B"},     {"span", "E"},      // kSpanBegin, kSpanEnd
      {"io", "i"},       {"io", "i"},        // kPageRead, kPageWrite
      {"pool", "i"},     {"pool", "i"},      // kPoolHit, kPoolMiss
      {"frame", "B"},    {"frame", "E"},     // kFrameBegin, kFrameEnd
      {"prefetch", "i"}, {"prefetch", "i"},  // kPrefetchUsed, kPrefetchCancel
      {"io", "i"}};                          // kPageReads
  static_assert(std::size(kShape) ==
                static_cast<size_t>(FlightEventType::kPageReads) + 1);
  for (const FlightEvent& ev : dump.events) {
    if (ev.type == 0 || ev.type >= std::size(kShape)) {
      continue;  // Also types a newer or damaged dump may carry.
    }
    const auto type = static_cast<FlightEventType>(ev.type);
    const auto& [cat, ph] = kShape[ev.type];
    trace.Event(ph, dump.NameOf(ev), cat, kChromePidFlight, ev.thread,
                static_cast<double>(ev.ts_ns) / 1000.0,
                [&](JsonWriter& args) {
                  args.Key("type").String(FlightEventTypeName(type));
                  args.Key("a").Number(ev.a);
                  args.Key("b").Number(ev.b);
                  if (ev.session != 0) {
                    args.Key("session").String(dump.NameOf(ev.session));
                  }
                  if (ev.stage != 0) {
                    args.Key("stage").String(
                        TraceStageName(static_cast<TraceStage>(ev.stage)));
                  }
                });
  }
  return trace.Finish();
}

FlightRecorder& GlobalFlightRecorder() {
  // Leaked for the same reason as the name table: instrumented objects in
  // static storage may record during teardown.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

}  // namespace hdov::telemetry
