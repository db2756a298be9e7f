#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "telemetry/trace_context.h"
#include "temp_path.h"

namespace hdov {
namespace {

using telemetry::DecodeFlightDump;
using telemetry::EncodeFlightDump;
using telemetry::FlightChromeTraceJson;
using telemetry::FlightDump;
using telemetry::FlightEvent;
using telemetry::FlightEventType;
using telemetry::FlightFrameScope;
using telemetry::FlightInternName;
using telemetry::FlightNameCount;
using telemetry::FlightNameForId;
using telemetry::FlightNamesDropped;
using telemetry::FlightNowNs;
using telemetry::FlightReadBatch;
using telemetry::FlightRecorder;
using telemetry::kMaxFlightNames;
using telemetry::SessionTraceScope;
using telemetry::StageTraceScope;
using telemetry::TraceStage;

TEST(FlightRecorderTest, RecordAndDrainInOrder) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("test-device");
  recorder.Record(FlightEventType::kPageRead, code, 7, 2);
  recorder.Record(FlightEventType::kPoolHit, code, 7, 0);
  recorder.Record(FlightEventType::kFrameEnd, code, 0, 9);

  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 3u);
  EXPECT_EQ(dump.events[0].type,
            static_cast<uint16_t>(FlightEventType::kPageRead));
  EXPECT_EQ(dump.events[0].a, 7u);
  EXPECT_EQ(dump.events[0].b, 2u);
  EXPECT_EQ(dump.events[1].type,
            static_cast<uint16_t>(FlightEventType::kPoolHit));
  EXPECT_EQ(dump.events[2].b, 9u);
  // Same-buffer events drain in recording order even with tied timestamps.
  EXPECT_LE(dump.events[0].ts_ns, dump.events[1].ts_ns);
  EXPECT_LE(dump.events[1].ts_ns, dump.events[2].ts_ns);
  // The dump's name table resolves the interned code.
  EXPECT_EQ(dump.NameOf(dump.events[0]), "test-device");
  EXPECT_EQ(recorder.events_recorded(), 3u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
}

TEST(FlightRecorderTest, DisabledRecorderDropsNothingSilently) {
  FlightRecorder recorder(64);
  recorder.set_enabled(false);
  recorder.Record(FlightEventType::kPageRead, 0, 1, 1);
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_TRUE(recorder.Drain().events.empty());
  recorder.set_enabled(true);
  recorder.Record(FlightEventType::kPageRead, 0, 1, 1);
  EXPECT_EQ(recorder.Drain().events.size(), 1u);
}

TEST(FlightRecorderTest, WraparoundAccountsDroppedEvents) {
  // Capacity 8: recording 20 events overwrites the first 12.
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.events_per_thread(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(FlightEventType::kPoolMiss, 0, i, 0);
  }
  EXPECT_EQ(recorder.events_recorded(), 20u);
  EXPECT_EQ(recorder.events_dropped(), 12u);

  FlightDump dump = recorder.Drain(/*consume=*/true);
  EXPECT_EQ(dump.dropped, 12u);
  // The drain conservatively discards one extra slot (the one a concurrent
  // writer could be filling), so 7 of the surviving 8 events come back,
  // oldest first.
  ASSERT_EQ(dump.events.size(), 7u);
  EXPECT_EQ(dump.events.front().a, 13u);
  EXPECT_EQ(dump.events.back().a, 19u);
}

TEST(FlightRecorderTest, DrainConsumeIsExactlyOnce) {
  FlightRecorder recorder(16);
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Record(FlightEventType::kPageWrite, 0, i, 1);
  }
  EXPECT_EQ(recorder.Drain(/*consume=*/true).events.size(), 5u);
  // Already-consumed events neither reappear nor count as dropped.
  EXPECT_TRUE(recorder.Drain(/*consume=*/true).events.empty());
  EXPECT_EQ(recorder.events_dropped(), 0u);
  recorder.Record(FlightEventType::kPageWrite, 0, 99, 1);
  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].a, 99u);
}

TEST(FlightRecorderTest, ConcurrentWritersFromThreadPool) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  FlightRecorder recorder(1 << 14);  // Roomy: no ring wraps.
  ThreadPool pool(kWriters);
  // ParallelFor self-schedules, so a fast participant could otherwise
  // grab every index; the barrier pins each index to a distinct thread.
  std::atomic<size_t> arrived{0};
  pool.ParallelFor(kWriters, [&](size_t, size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < kWriters) {
      std::this_thread::yield();
    }
    for (uint64_t n = 0; n < kPerWriter; ++n) {
      recorder.Record(FlightEventType::kPoolHit,
                      static_cast<uint16_t>(0), i, n);
    }
  });
  pool.Wait();
  EXPECT_EQ(recorder.num_threads(), kWriters);
  EXPECT_EQ(recorder.events_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.events_dropped(), 0u);

  FlightDump dump = recorder.Drain();
  EXPECT_EQ(dump.events.size(), kWriters * kPerWriter);
  // Each participating thread recorded into its own ring; per-thread event
  // sequences stay internally ordered by `b`.
  std::vector<uint64_t> next_b(recorder.num_threads(), 0);
  for (const FlightEvent& ev : dump.events) {
    ASSERT_LT(ev.thread, next_b.size());
    EXPECT_EQ(ev.b, next_b[ev.thread]);
    ++next_b[ev.thread];
  }
}

TEST(FlightRecorderTest, ConcurrentDrainWhileRecording) {
  // TSan exercise: writers lap their rings while the main thread drains.
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  FlightRecorder recorder(64);  // Tiny: constant wraparound.
  ThreadPool pool(kWriters);
  std::atomic<bool> done{false};
  pool.Submit([&] {
    ThreadPool inner(kWriters);
    inner.ParallelFor(kWriters, [&](size_t, size_t i) {
      for (uint64_t n = 0; n < kPerWriter; ++n) {
        recorder.Record(FlightEventType::kPageRead,
                        static_cast<uint16_t>(i), n, 1);
      }
    });
    inner.Wait();
    done.store(true);
  });
  uint64_t drained = 0;
  while (!done.load()) {
    drained += recorder.Drain(/*consume=*/true).events.size();
  }
  pool.Wait();
  drained += recorder.Drain(/*consume=*/true).events.size();
  const uint64_t dropped = recorder.events_dropped();
  // No event is lost AND kept: drained + dropped covers every record.
  // (Conservatively discarded drain slots are the only slack, and they
  // are re-drained on the next pass or counted dropped at the end.)
  EXPECT_EQ(recorder.events_recorded(), kWriters * kPerWriter);
  EXPECT_LE(drained + dropped, kWriters * kPerWriter);
  EXPECT_GT(drained, 0u);
}

TEST(FlightRecorderTest, InternTableDeduplicatesAndDegrades) {
  const uint16_t a = FlightInternName("flight-intern-a");
  const uint16_t b = FlightInternName("flight-intern-b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(FlightInternName("flight-intern-a"), a);
  EXPECT_EQ(FlightNameForId(a), "flight-intern-a");
  EXPECT_EQ(FlightNameForId(0), "?");
  EXPECT_EQ(FlightNameForId(static_cast<uint16_t>(60000)), "?");
}

TEST(FlightRecorderTest, DumpFileRoundTrip) {
  FlightRecorder recorder(32);
  const uint16_t code = FlightInternName("roundtrip-device");
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Record(FlightEventType::kPageRead, code, i * 3, 2);
  }
  const std::string path = TempPath("flight_roundtrip.bin");
  ASSERT_TRUE(recorder.WriteDump(path).ok());

  Result<FlightDump> read = FlightRecorder::ReadDump(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->events.size(), 6u);
  EXPECT_EQ(read->dropped, 0u);
  for (size_t i = 0; i < read->events.size(); ++i) {
    EXPECT_EQ(read->events[i].a, i * 3);
    EXPECT_EQ(read->events[i].b, 2u);
    EXPECT_EQ(read->NameOf(read->events[i]), "roundtrip-device");
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DecodeRejectsMalformedDumps) {
  EXPECT_FALSE(DecodeFlightDump("not a dump").ok());
  EXPECT_FALSE(DecodeFlightDump("").ok());

  FlightDump dump;
  dump.names = {"?"};
  FlightEvent ev;
  ev.type = static_cast<uint16_t>(FlightEventType::kPageRead);
  dump.events.push_back(ev);
  const std::string encoded = EncodeFlightDump(dump);
  ASSERT_TRUE(DecodeFlightDump(encoded).ok());
  // Truncation anywhere inside the event section fails cleanly.
  EXPECT_FALSE(DecodeFlightDump(encoded.substr(0, encoded.size() - 1)).ok());
  // Trailing garbage is rejected, not ignored.
  EXPECT_FALSE(DecodeFlightDump(encoded + "x").ok());
}

TEST(FlightRecorderTest, ChromeTraceConversion) {
  FlightDump dump;
  dump.names = {"?", "visual"};
  FlightEvent begin;
  begin.ts_ns = 1000;
  begin.type = static_cast<uint16_t>(FlightEventType::kFrameBegin);
  begin.code = 1;
  begin.a = 0;
  FlightEvent io = begin;
  io.ts_ns = 2000;
  io.type = static_cast<uint16_t>(FlightEventType::kPageRead);
  FlightEvent end = begin;
  end.ts_ns = 3000;
  end.type = static_cast<uint16_t>(FlightEventType::kFrameEnd);
  end.b = 4;
  dump.events = {begin, io, end};

  const std::string json = FlightChromeTraceJson(dump);
  // Frame boundaries pair as B/E duration events under pid 3; the page
  // read becomes an instant.
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"visual\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"page_read\""), std::string::npos);
}

TEST(FlightRecorderTest, FrameScopeBracketsWithIoPages) {
  telemetry::FlightRecorder& global = telemetry::GlobalFlightRecorder();
  global.Drain(/*consume=*/true);  // Start from a clean window.
  const uint16_t code = FlightInternName("scope-system");
  {
    FlightFrameScope scope(code, 41);
    scope.set_io_pages(17);
  }
  FlightDump dump = global.Drain(/*consume=*/true);
  const FlightEvent* begin = nullptr;
  const FlightEvent* end = nullptr;
  for (const FlightEvent& ev : dump.events) {
    if (ev.code != code) {
      continue;
    }
    if (ev.type == static_cast<uint16_t>(FlightEventType::kFrameBegin)) {
      begin = &ev;
    } else if (ev.type ==
               static_cast<uint16_t>(FlightEventType::kFrameEnd)) {
      end = &ev;
    }
  }
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(begin->a, 41u);
  EXPECT_EQ(end->a, 41u);
  EXPECT_EQ(end->b, 17u);
  EXPECT_LE(begin->ts_ns, end->ts_ns);
}

TEST(FlightRecorderTest, RecordStampsAmbientTraceContext) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("ctx-device");
  const uint16_t session = FlightInternName("ctx-session");
  recorder.Record(FlightEventType::kPoolHit, code, 1, 0);
  {
    SessionTraceScope trace(session, 5);
    StageTraceScope stage(TraceStage::kFetch);
    recorder.Record(FlightEventType::kPoolMiss, code, 2, 0);
  }
  recorder.Record(FlightEventType::kPoolHit, code, 3, 0);

  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 3u);
  // Outside any scope: unattributed.
  EXPECT_EQ(dump.events[0].session, 0u);
  EXPECT_EQ(dump.events[0].stage, 0u);
  // Inside the scopes: stamped with session and stage.
  EXPECT_EQ(dump.events[1].session, session);
  EXPECT_EQ(dump.events[1].stage, static_cast<uint8_t>(TraceStage::kFetch));
  // After the scopes unwind: unattributed again.
  EXPECT_EQ(dump.events[2].session, 0u);
  EXPECT_EQ(dump.events[2].stage, 0u);
  // The dump's name table resolves the session id too.
  EXPECT_EQ(dump.names[session], "ctx-session");
}

TEST(FlightRecorderTest, DumpRoundTripPreservesAttribution) {
  FlightDump dump;
  dump.names = {"?", "attr-session", "attr-device"};
  dump.dropped = 4;
  dump.names_dropped = 9;
  FlightEvent ev;
  ev.ts_ns = 1234;
  ev.type = static_cast<uint8_t>(FlightEventType::kPoolMiss);
  ev.stage = static_cast<uint8_t>(TraceStage::kSearch);
  ev.code = 2;
  ev.thread = 3;
  ev.session = 1;
  ev.a = 77;
  ev.b = 88;
  dump.events.push_back(ev);

  Result<FlightDump> back = DecodeFlightDump(EncodeFlightDump(dump));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dropped, 4u);
  EXPECT_EQ(back->names_dropped, 9u);
  ASSERT_EQ(back->events.size(), 1u);
  const FlightEvent& rt = back->events[0];
  EXPECT_EQ(rt.ts_ns, 1234u);
  EXPECT_EQ(rt.type, static_cast<uint8_t>(FlightEventType::kPoolMiss));
  EXPECT_EQ(rt.stage, static_cast<uint8_t>(TraceStage::kSearch));
  EXPECT_EQ(rt.code, 2u);
  EXPECT_EQ(rt.thread, 3u);
  EXPECT_EQ(rt.session, 1u);
  EXPECT_EQ(rt.a, 77u);
  EXPECT_EQ(rt.b, 88u);
}

TEST(FlightRecorderTest, V1DumpDecodesWithZeroAttribution) {
  // A v1 dump hand-built byte for byte: no names_dropped field, and the
  // event meta packs type(16) | code(16) | thread(32).
  std::string data("HDOVFREC", 8);
  EncodeFixed32(&data, 1);  // version
  EncodeFixed32(&data, 2);  // name count
  EncodeFixed64(&data, 1);  // event count
  EncodeFixed64(&data, 6);  // dropped
  EncodeFixed32(&data, 1);
  data += "?";
  EncodeFixed32(&data, 6);
  data += "legacy";
  EncodeFixed64(&data, 42);  // ts_ns
  EncodeFixed64(&data,
                static_cast<uint64_t>(FlightEventType::kPoolHit) |
                    (static_cast<uint64_t>(1) << 16) |
                    (static_cast<uint64_t>(7) << 32));
  EncodeFixed64(&data, 99);  // a
  EncodeFixed64(&data, 3);   // b

  Result<FlightDump> dump = DecodeFlightDump(data);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->dropped, 6u);
  EXPECT_EQ(dump->names_dropped, 0u);  // Field postdates v1.
  ASSERT_EQ(dump->events.size(), 1u);
  const FlightEvent& ev = dump->events[0];
  EXPECT_EQ(ev.ts_ns, 42u);
  EXPECT_EQ(ev.type, static_cast<uint8_t>(FlightEventType::kPoolHit));
  EXPECT_EQ(ev.code, 1u);
  EXPECT_EQ(ev.thread, 7u);
  EXPECT_EQ(dump->NameOf(ev), "legacy");
  // v1 predates attribution: session and stage decode as zero.
  EXPECT_EQ(ev.session, 0u);
  EXPECT_EQ(ev.stage, 0u);

  // Version skew does not relax the corruption checks: a truncated tail
  // and trailing garbage both fail for v1 exactly as for v2.
  EXPECT_FALSE(DecodeFlightDump(data.substr(0, data.size() - 1)).ok());
  EXPECT_FALSE(DecodeFlightDump(data.substr(0, data.size() - 17)).ok());
  EXPECT_FALSE(DecodeFlightDump(data + "x").ok());

  // An unknown future version is rejected outright.
  std::string future("HDOVFREC", 8);
  EncodeFixed32(&future, 99);
  EXPECT_FALSE(DecodeFlightDump(future).ok());
}

// ------------------------------------------------------------ read batches

TEST(FlightRecorderTest, ReadBatchMergesConsecutiveReadsOfOneKey) {
  FlightRecorder recorder(64);
  const uint16_t model = FlightInternName("batch-model");
  const uint16_t tree = FlightInternName("batch-tree");
  recorder.Record(FlightEventType::kPageRead, tree, 1, 1);  // Per run.
  {
    FlightReadBatch batch(recorder);
    recorder.Record(FlightEventType::kPageRead, model, 10, 3);
    recorder.Record(FlightEventType::kPageRead, model, 20, 2);
    {
      FlightReadBatch nested(recorder);
      recorder.Record(FlightEventType::kPageRead, model, 30, 4);
    }
    // The aggregate is still pending: an inner scope does not flush.
    EXPECT_EQ(recorder.events_recorded(), 1u);
    recorder.Record(FlightEventType::kPageRead, tree, 5, 1);  // New key.
    recorder.Record(FlightEventType::kPoolHit, tree, 5, 0);   // Other type.
    recorder.Record(FlightEventType::kPageRead, model, 40, 1);
  }
  recorder.Record(FlightEventType::kPageRead, tree, 2, 1);  // Per run.

  const FlightDump dump = recorder.Drain();
  struct Want {
    FlightEventType type;
    uint16_t code;
    uint64_t a;
    uint64_t b;
  };
  const std::vector<Want> want = {
      {FlightEventType::kPageRead, tree, 1, 1},
      {FlightEventType::kPageReads, model, 3, 9},
      {FlightEventType::kPageReads, tree, 1, 1},
      {FlightEventType::kPoolHit, tree, 5, 0},
      {FlightEventType::kPageReads, model, 1, 1},
      {FlightEventType::kPageRead, tree, 2, 1},
  };
  ASSERT_EQ(dump.events.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const FlightEvent& ev = dump.events[i];
    EXPECT_EQ(ev.type, static_cast<uint8_t>(want[i].type)) << i;
    EXPECT_EQ(ev.code, want[i].code) << i;
    EXPECT_EQ(ev.a, want[i].a) << i;
    EXPECT_EQ(ev.b, want[i].b) << i;
    if (i > 0) {
      EXPECT_LE(dump.events[i - 1].ts_ns, ev.ts_ns) << i;
    }
  }
}

TEST(FlightRecorderTest, ReadBatchKeysOnStageAndSession) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("batch-key-device");
  const uint16_t session = FlightInternName("batch-key-session");
  {
    FlightReadBatch batch(recorder);
    {
      StageTraceScope stage(TraceStage::kFetch);
      recorder.Record(FlightEventType::kPageRead, code, 1, 2);
      recorder.Record(FlightEventType::kPageRead, code, 3, 2);
    }
    {
      StageTraceScope stage(TraceStage::kPrefetch);
      recorder.Record(FlightEventType::kPageRead, code, 5, 1);
    }
    // An explicit stage joins the aggregate of that stage.
    recorder.RecordWithStage(FlightEventType::kPageRead, code, 6, 1,
                             static_cast<uint8_t>(TraceStage::kPrefetch));
    SessionTraceScope trace(session, 0);
    recorder.RecordWithStage(FlightEventType::kPageRead, code, 7, 5,
                             static_cast<uint8_t>(TraceStage::kPrefetch));
  }
  const FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 3u);
  for (const FlightEvent& ev : dump.events) {
    EXPECT_EQ(ev.type, static_cast<uint8_t>(FlightEventType::kPageReads));
    EXPECT_EQ(ev.code, code);
  }
  EXPECT_EQ(dump.events[0].stage, static_cast<uint8_t>(TraceStage::kFetch));
  EXPECT_EQ(dump.events[0].a, 2u);
  EXPECT_EQ(dump.events[0].b, 4u);
  EXPECT_EQ(dump.events[1].stage,
            static_cast<uint8_t>(TraceStage::kPrefetch));
  EXPECT_EQ(dump.events[1].session, 0u);
  EXPECT_EQ(dump.events[1].a, 2u);
  EXPECT_EQ(dump.events[1].b, 2u);
  EXPECT_EQ(dump.events[2].session, session);
  EXPECT_EQ(dump.events[2].a, 1u);
  EXPECT_EQ(dump.events[2].b, 5u);
}

TEST(FlightRecorderTest, ReadBatchKeepsTheFirstRunsTimestamp) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("batch-ts-device");
  uint64_t before = 0;
  uint64_t after = 0;
  {
    FlightReadBatch batch(recorder);
    before = FlightNowNs();
    recorder.Record(FlightEventType::kPageRead, code, 1, 1);
    after = FlightNowNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    recorder.Record(FlightEventType::kPageRead, code, 2, 1);
  }
  const FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_GE(dump.events[0].ts_ns, before);
  EXPECT_LE(dump.events[0].ts_ns, after);
}

TEST(FlightRecorderTest, ReadBatchAppliesOnlyToItsRecorder) {
  FlightRecorder batched(64);
  FlightRecorder plain(64);
  const uint16_t code = FlightInternName("batch-other-device");
  {
    FlightReadBatch batch(batched);
    // A nested scope joins the outermost batch, on its recorder only.
    FlightReadBatch nested(plain);
    batched.Record(FlightEventType::kPageRead, code, 1, 1);
    batched.Record(FlightEventType::kPageRead, code, 2, 1);
    plain.Record(FlightEventType::kPageRead, code, 1, 1);
    plain.Record(FlightEventType::kPageRead, code, 2, 1);
  }
  const FlightDump merged = batched.Drain();
  ASSERT_EQ(merged.events.size(), 1u);
  EXPECT_EQ(merged.events[0].type,
            static_cast<uint8_t>(FlightEventType::kPageReads));
  EXPECT_EQ(merged.events[0].b, 2u);
  const FlightDump per_run = plain.Drain();
  ASSERT_EQ(per_run.events.size(), 2u);
  for (const FlightEvent& ev : per_run.events) {
    EXPECT_EQ(ev.type, static_cast<uint8_t>(FlightEventType::kPageRead));
  }
}

TEST(FlightRecorderTest, ConcurrentReadBatchesKeepPerThreadTotals) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kReads = 2000;
  constexpr uint64_t kHitEvery = 10;
  FlightRecorder recorder(1 << 14);  // Roomy: no ring wraps.
  const uint16_t code = FlightInternName("batch-concurrent");
  {
    ThreadPool pool(kWriters);
    // The barrier pins each index to a distinct thread (see above).
    std::atomic<size_t> arrived{0};
    pool.ParallelFor(kWriters, [&](size_t, size_t) {
      arrived.fetch_add(1);
      while (arrived.load() < kWriters) {
        std::this_thread::yield();
      }
      FlightReadBatch batch(recorder);
      for (uint64_t i = 1; i <= kReads; ++i) {
        recorder.Record(FlightEventType::kPageRead, code, i, 2);
        if (i % kHitEvery == 0) {
          recorder.Record(FlightEventType::kPoolHit, code, i, 0);
        }
      }
    });
  }
  const FlightDump dump = recorder.Drain();
  uint64_t pages = 0;
  uint64_t runs = 0;
  uint64_t aggregates = 0;
  for (const FlightEvent& ev : dump.events) {
    ASSERT_NE(ev.type, static_cast<uint8_t>(FlightEventType::kPageRead));
    if (ev.type == static_cast<uint8_t>(FlightEventType::kPageReads)) {
      ++aggregates;
      runs += ev.a;
      pages += ev.b;
    }
  }
  EXPECT_EQ(runs, kWriters * kReads);
  EXPECT_EQ(pages, kWriters * kReads * 2);
  // Each pool hit closes one aggregate of kHitEvery runs.
  EXPECT_EQ(aggregates, kWriters * (kReads / kHitEvery));
  EXPECT_EQ(dump.dropped, 0u);
}

TEST(FlightRecorderTest, PageReadsEventIsNamedRoundTripsAndTraces) {
  EXPECT_EQ(telemetry::FlightEventTypeName(FlightEventType::kPageReads),
            "page_reads");
  FlightDump dump;
  dump.names = {"?", "visual.io.model"};
  FlightEvent ev;
  ev.ts_ns = 2'000;
  ev.type = static_cast<uint8_t>(FlightEventType::kPageReads);
  ev.stage = static_cast<uint8_t>(TraceStage::kFetch);
  ev.code = 1;
  ev.a = 75;
  ev.b = 411;
  dump.events = {ev};

  Result<FlightDump> back = DecodeFlightDump(EncodeFlightDump(dump));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->events.size(), 1u);
  EXPECT_EQ(back->events[0].type, ev.type);
  EXPECT_EQ(back->events[0].a, 75u);
  EXPECT_EQ(back->events[0].b, 411u);

  const std::string json = FlightChromeTraceJson(dump);
  EXPECT_NE(json.find("\"type\":\"page_reads\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(FlightRecorderTest, NamesDroppedCountsTableOverflow) {
  // Fills the process-wide intern table to its cap. Each ctest case runs
  // in its own process (gtest_discover_tests), so the pollution cannot
  // leak into other tests.
  const uint64_t before = FlightNamesDropped();
  for (size_t i = 0;
       FlightNameCount() < kMaxFlightNames && i < kMaxFlightNames + 8;
       ++i) {
    FlightInternName("overflow-filler-" + std::to_string(i));
  }
  ASSERT_EQ(FlightNameCount(), kMaxFlightNames);

  EXPECT_EQ(FlightInternName("overflow-past-cap-a"), 0u);
  EXPECT_EQ(FlightInternName("overflow-past-cap-b"), 0u);
  EXPECT_EQ(FlightNamesDropped(), before + 2);
  // Refused names degrade to the reserved "?" id, and names interned
  // before the cap still resolve.
  EXPECT_EQ(FlightNameForId(0), "?");
  EXPECT_EQ(FlightInternName("overflow-filler-0"),
            FlightInternName("overflow-filler-0"));

  // Drained dumps carry the counter, so it survives into dump files.
  FlightRecorder recorder(8);
  recorder.Record(FlightEventType::kPoolHit, 0, 1, 0);
  EXPECT_EQ(recorder.Drain().names_dropped, before + 2);
}

}  // namespace
}  // namespace hdov
