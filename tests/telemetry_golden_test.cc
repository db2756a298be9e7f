// Byte-exact goldens for every telemetry artifact a run writes: the
// HDOVFREC and HDOVSLOW dump containers and the three Chrome trace-event
// exporters (pids 1-2, 3 and 4). Each fixture is hand built and fully
// deterministic (no clocks, no global recorder state), and its encoded
// bytes are pinned by length and CRC32C. These are the compatibility
// contract of the shared event codec and trace-event writer: a refactor
// of either must leave every pinned value unchanged.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slow_frame.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_context.h"

namespace hdov {
namespace {

using telemetry::DecodeFlightDump;
using telemetry::DecodeSlowDump;
using telemetry::EncodeFlightDump;
using telemetry::EncodeSlowDump;
using telemetry::FlightChromeTraceJson;
using telemetry::FlightDump;
using telemetry::FlightEvent;
using telemetry::FlightEventType;
using telemetry::FrameRecord;
using telemetry::kMaxFlightNames;
using telemetry::SlowDump;
using telemetry::SlowDumpChromeTraceJson;
using telemetry::SlowFrameEntry;
using telemetry::Telemetry;
using telemetry::TraceRecorder;
using telemetry::TraceStage;

// Pins `bytes` by size and CRC32C; on mismatch prints the actual values so
// an intentional format change can re-pin them in one step.
void ExpectGolden(const std::string& bytes, size_t size, uint32_t crc) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(Crc32c(bytes), crc)
      << "actual: size " << bytes.size() << ", crc 0x" << std::hex
      << Crc32c(bytes);
}

FlightEvent Event(uint64_t ts_ns, FlightEventType type, TraceStage stage,
                  uint16_t code, uint16_t thread, uint16_t session,
                  uint64_t a, uint64_t b) {
  FlightEvent ev;
  ev.ts_ns = ts_ns;
  ev.type = static_cast<uint8_t>(type);
  ev.stage = static_cast<uint8_t>(stage);
  ev.code = code;
  ev.thread = thread;
  ev.session = session;
  ev.a = a;
  ev.b = b;
  return ev;
}

// One event of every FlightEventType, with every field set to a value
// whose bytes are distinct, under varied session/stage attribution. Name
// ids: 1 = "device.tree", 2 = "pool.store", 3 = "visual", 4 = "u0.walk",
// 5 = "u1.turn".
std::vector<FlightEvent> EveryEventType() {
  return {
      Event(1'000, FlightEventType::kFrameBegin, TraceStage::kNone, 3, 0, 4,
            7, 0),
      Event(1'500, FlightEventType::kSpanBegin, TraceStage::kSearch, 3, 0, 4,
            11, 0),
      Event(2'250, FlightEventType::kPageRead, TraceStage::kSearch, 1, 0, 4,
            0x1234'5678'9abcULL, 3),
      Event(2'500, FlightEventType::kPoolHit, TraceStage::kFetch, 2, 1, 5,
            42, 0),
      Event(2'750, FlightEventType::kPoolMiss, TraceStage::kFetch, 2, 1, 5,
            43, 18'000),
      Event(3'000, FlightEventType::kPageWrite, TraceStage::kRender, 1, 1, 0,
            99, 1),
      Event(3'125, FlightEventType::kPageRead, TraceStage::kPrefetch, 1, 2, 5,
            500, 4),
      Event(3'250, FlightEventType::kPrefetchUsed, TraceStage::kFetch, 1, 2,
            5, 500, 2),
      Event(3'375, FlightEventType::kPrefetchCancel, TraceStage::kPrefetch,
            1, 2, 5, 2, 17),
      Event(3'500, FlightEventType::kSpanEnd, TraceStage::kSearch, 3, 0, 4,
            11, 0),
      Event(4'000, FlightEventType::kFrameEnd, TraceStage::kRender, 3, 0, 4,
            7, 9),
      Event(4'100, FlightEventType::kNone, TraceStage::kNone, 0, 0xffff,
            0xffff, ~0ULL, ~0ULL),
  };
}

std::vector<std::string> SmallNames() {
  return {"?", "device.tree", "pool.store", "visual", "u0.walk", "u1.turn"};
}

std::vector<std::string> FullNames() {
  std::vector<std::string> names = {"?"};
  for (size_t i = 1; i < kMaxFlightNames; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "name-%03zu", i);
    names.emplace_back(name);
  }
  return names;
}

FlightDump AttributedFlightDump() {
  FlightDump dump;
  dump.names = SmallNames();
  dump.events = EveryEventType();
  dump.dropped = 5;
  dump.names_dropped = 2;
  return dump;
}

SlowDump CapturedSlowDump() {
  SlowDump dump;
  dump.names = SmallNames();
  dump.frames_seen = 640;
  dump.captures_dropped = 3;

  // Session u1.turn, queued 250 ns before dispatch, every stage set.
  SlowFrameEntry queued;
  queued.record.session = 5;
  queued.record.frame = 12;
  queued.record.start_ns = 2'000;
  queued.record.queue_ns = 250;
  queued.record.wall_ns = 3'000'000;
  queued.record.io_pages = 37;
  queued.record.stages.ns[0] = 100'000;
  queued.record.stages.ns[1] = 1'200'000;
  queued.record.stages.ns[2] = 900'000;
  queued.record.stages.ns[3] = 500'000;
  queued.record.stages.ns[4] = 300'000;
  queued.trip_threshold_ms = 2.5;
  for (const FlightEvent& ev : EveryEventType()) {
    if (ev.session == 5) {
      queued.events.push_back(ev);
    }
  }

  // Session u0.walk, never queued, two stages, the rest of the events.
  SlowFrameEntry solo;
  solo.record.session = 4;
  solo.record.frame = 3;
  solo.record.start_ns = 1'000;
  solo.record.wall_ns = 1'750'000;
  solo.record.io_pages = 9;
  solo.record.stages.ns[1] = 1'000'000;
  solo.record.stages.ns[3] = 750'000;
  solo.trip_threshold_ms = 1.25;
  for (const FlightEvent& ev : EveryEventType()) {
    if (ev.session != 5) {
      solo.events.push_back(ev);
    }
  }

  dump.captures = {queued, solo};
  return dump;
}

// ---------------------------------------------------------------------
// HDOVFREC.

TEST(TelemetryGoldenTest, FlightDumpEveryEventType) {
  const FlightDump dump = AttributedFlightDump();
  const std::string bytes = EncodeFlightDump(dump);
  ExpectGolden(bytes, 490, 0x77273dd3u);
  // Decoding the golden and re-encoding it reproduces it byte for byte.
  Result<FlightDump> back = DecodeFlightDump(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodeFlightDump(*back), bytes);
}

TEST(TelemetryGoldenTest, FlightDumpEmptyNameTable) {
  FlightDump dump;
  dump.events = {Event(7, FlightEventType::kPoolHit, TraceStage::kFetch, 0,
                       3, 0, 8, 0)};
  const std::string bytes = EncodeFlightDump(dump);
  ExpectGolden(bytes, 72, 0x73dd1e49u);
  Result<FlightDump> back = DecodeFlightDump(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->names.empty());
  EXPECT_EQ(EncodeFlightDump(*back), bytes);
}

TEST(TelemetryGoldenTest, FlightDumpFullNameTable) {
  FlightDump dump;
  dump.names = FullNames();
  dump.events = EveryEventType();
  const std::string bytes = EncodeFlightDump(dump);
  ExpectGolden(bytes, 3489, 0x4cf9883eu);
  Result<FlightDump> back = DecodeFlightDump(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->names.size(), kMaxFlightNames);
  EXPECT_EQ(EncodeFlightDump(*back), bytes);
  // One name past the cap is rejected.
  dump.names.emplace_back("one-too-many");
  EXPECT_TRUE(
      DecodeFlightDump(EncodeFlightDump(dump)).status().IsCorruption());
}

// ---------------------------------------------------------------------
// HDOVSLOW.

TEST(TelemetryGoldenTest, SlowDumpEveryEventType) {
  const SlowDump dump = CapturedSlowDump();
  const std::string bytes = EncodeSlowDump(dump);
  ExpectGolden(bytes, 694, 0xd4f8aa44u);
  Result<SlowDump> back = DecodeSlowDump(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodeSlowDump(*back), bytes);
}

TEST(TelemetryGoldenTest, SlowDumpEmptyNameTable) {
  SlowDump dump = CapturedSlowDump();
  dump.names.clear();
  const std::string bytes = EncodeSlowDump(dump);
  ExpectGolden(bytes, 628, 0x0f88ebd7u);
  Result<SlowDump> back = DecodeSlowDump(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodeSlowDump(*back), bytes);
}

TEST(TelemetryGoldenTest, SlowDumpFullNameTable) {
  SlowDump dump = CapturedSlowDump();
  dump.names = FullNames();
  const std::string bytes = EncodeSlowDump(dump);
  ExpectGolden(bytes, 3693, 0xa884346fu);
  Result<SlowDump> back = DecodeSlowDump(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->names.size(), kMaxFlightNames);
  EXPECT_EQ(EncodeSlowDump(*back), bytes);
  dump.names.emplace_back("one-too-many");
  EXPECT_TRUE(DecodeSlowDump(EncodeSlowDump(dump)).status().IsCorruption());
}

// ---------------------------------------------------------------------
// Chrome trace-event exporters.

TEST(TelemetryGoldenTest, TelemetryChromeTrace) {
  Telemetry telemetry;
  // Frames from two systems, interleaved, one with a session context and
  // a fidelity score, one query timed only by its query time.
  FrameRecord visual;
  visual.system = "visual";
  visual.cell = 4;
  visual.frame_time_ms = 12.5;
  visual.query_time_ms = 3.25;
  visual.io_pages = 21;
  visual.nodes_visited = 17;
  visual.vpages_fetched = 6;
  visual.rendered_triangles = 12'000;
  visual.models_fetched = 5;
  visual.cache_hit_rate = 0.75;
  telemetry.set_context("u0.walk");
  telemetry.RecordFrame(visual);
  telemetry.set_context("");
  FrameRecord query;
  query.system = "hdov \"quoted\"";
  query.kind = "query";
  query.cell = 9;
  query.query_time_ms = 0.125;
  query.io_pages = 3;
  query.nodes_visited = 4;
  telemetry.RecordFrame(query);
  visual.frame_time_ms = 8.0;
  visual.io_pages = 0;
  visual.fidelity = 0.96875;
  telemetry.RecordFrame(visual);

  // A nested span forest: two roots, the first with two children and a
  // grandchild, carrying number and string attributes.
  TraceRecorder& tracer = telemetry.tracer();
  tracer.set_enabled(true);
  const int32_t root = tracer.BeginSpan("query");
  tracer.AddAttr(root, "eta", 0.5);
  tracer.AddAttr(root, "scheme", "indexed_vertical");
  const int32_t child = tracer.BeginSpan("node");
  tracer.AddAttr(child, "level", 2.0);
  const int32_t grandchild = tracer.BeginSpan("vpage");
  tracer.AddAttr(grandchild, "bytes", 4096.0);
  tracer.AddAttr(grandchild, "path", "a\\b");
  tracer.EndSpan(grandchild);
  tracer.EndSpan(child);
  const int32_t sibling = tracer.BeginSpan("node");
  tracer.EndSpan(sibling);
  tracer.EndSpan(root);
  const int32_t second = tracer.BeginSpan("query");
  tracer.AddAttr(second, "eta", 0.0);
  tracer.EndSpan(second);

  ExpectGolden(telemetry.ChromeTraceJson(), 1759, 0x71e0bc53u);
}

TEST(TelemetryGoldenTest, FlightChromeTrace) {
  ExpectGolden(FlightChromeTraceJson(AttributedFlightDump()), 1786,
               0x6b44a378u);
}

TEST(TelemetryGoldenTest, SlowDumpChromeTrace) {
  ExpectGolden(SlowDumpChromeTraceJson(CapturedSlowDump()), 1928, 0xcaab05c7u);
}

TEST(TelemetryGoldenTest, EmptyChromeTraces) {
  EXPECT_EQ(Telemetry().ChromeTraceJson(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"args\":{\"name\":\"frames (simulated time)\"}},"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"args\":{\"name\":\"search trace (logical time)\"}}]}");
  EXPECT_EQ(FlightChromeTraceJson(FlightDump()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
            "\"args\":{\"name\":\"flight recorder (wall time)\"}}]}");
  EXPECT_EQ(SlowDumpChromeTraceJson(SlowDump()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,"
            "\"args\":{\"name\":\"slow-frame captures (wall time)\"}}]}");
}

}  // namespace
}  // namespace hdov
