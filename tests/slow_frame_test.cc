#include "telemetry/slow_frame.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scene/city_generator.h"
#include "scene/session.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_context.h"
#include "temp_path.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

using telemetry::DecodeSlowDump;
using telemetry::EncodeSlowDump;
using telemetry::FlightDump;
using telemetry::FlightEvent;
using telemetry::FlightEventType;
using telemetry::FlightInternName;
using telemetry::FlightNowNs;
using telemetry::FlightRecorder;
using telemetry::FrameStageRecord;
using telemetry::kNumTraceStages;
using telemetry::SessionTraceScope;
using telemetry::SlowDump;
using telemetry::SlowDumpChromeTraceJson;
using telemetry::SlowFrameCapture;
using telemetry::SlowFrameEntry;
using telemetry::SlowFrameOptions;
using telemetry::StageTraceScope;
using telemetry::TraceStage;

FrameStageRecord MakeRecord(uint16_t session, uint64_t frame,
                            double wall_ms, double queue_ms = 0.0) {
  FrameStageRecord r;
  r.session = session;
  r.frame = frame;
  r.start_ns = FlightNowNs();
  r.queue_ns = static_cast<uint64_t>(queue_ms * 1e6);
  r.wall_ns = static_cast<uint64_t>(wall_ms * 1e6);
  r.io_pages = frame;
  r.stages.ns[static_cast<size_t>(TraceStage::kSearch)] = r.wall_ns / 2;
  r.stages.ns[static_cast<size_t>(TraceStage::kFetch)] = r.wall_ns / 2;
  return r;
}

TEST(SlowFrameTest, AbsoluteThresholdTriggers) {
  SlowFrameOptions opt;
  opt.threshold_ms = 5.0;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  cap.OnFrame(MakeRecord(1, 0, 1.0));
  EXPECT_EQ(cap.captures(), 0u);
  cap.OnFrame(MakeRecord(1, 1, 6.0, /*queue_ms=*/2.0));
  ASSERT_EQ(cap.captures(), 1u);

  const SlowDump dump = cap.Snapshot();
  EXPECT_EQ(dump.frames_seen, 2u);
  EXPECT_EQ(dump.captures_dropped, 0u);
  ASSERT_EQ(dump.captures.size(), 1u);
  const FrameStageRecord& r = dump.captures[0].record;
  EXPECT_EQ(r.frame, 1u);
  EXPECT_EQ(r.queue_ns, 2'000'000u);
  EXPECT_DOUBLE_EQ(dump.captures[0].trip_threshold_ms, 5.0);
}

TEST(SlowFrameTest, PercentileTriggerIgnoresFlatDistributions) {
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0;
  opt.percentile = 0.9;
  opt.warmup_frames = 16;
  opt.ring_frames = 64;
  SlowFrameCapture cap(opt);
  // A flat distribution never fires: the trigger is strictly-above the
  // trailing percentile, and every frame equals it.
  for (uint64_t f = 0; f < 100; ++f) {
    cap.OnFrame(MakeRecord(1, f, 1.0));
  }
  EXPECT_EQ(cap.captures(), 0u);
  // One outlier against that history fires with the percentile cut as
  // the recorded threshold.
  cap.OnFrame(MakeRecord(1, 100, 10.0));
  ASSERT_EQ(cap.captures(), 1u);
  const SlowDump dump = cap.Snapshot();
  EXPECT_EQ(dump.captures[0].record.frame, 100u);
  EXPECT_NEAR(dump.captures[0].trip_threshold_ms, 1.0, 0.01);
}

TEST(SlowFrameTest, PercentileWaitsForWarmup) {
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0;
  opt.percentile = 0.9;
  opt.warmup_frames = 50;
  SlowFrameCapture cap(opt);
  for (uint64_t f = 0; f < 10; ++f) {
    cap.OnFrame(MakeRecord(1, f, 1.0));
  }
  // 10 frames of history is below the warmup: even a huge outlier does
  // not fire (the trailing window is not trustworthy yet).
  cap.OnFrame(MakeRecord(1, 10, 100.0));
  EXPECT_EQ(cap.captures(), 0u);
}

TEST(SlowFrameTest, MaxCapturesCountsDroppedTriggers) {
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  opt.percentile = 0.0;
  opt.max_captures = 2;
  SlowFrameCapture cap(opt);
  for (uint64_t f = 0; f < 5; ++f) {
    cap.OnFrame(MakeRecord(1, f, 2.0));
  }
  EXPECT_EQ(cap.captures(), 2u);
  const SlowDump dump = cap.Snapshot();
  EXPECT_EQ(dump.captures_dropped, 3u);
  EXPECT_EQ(dump.frames_seen, 5u);
}

TEST(SlowFrameTest, DisabledCaptureSeesNothing) {
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  SlowFrameCapture cap(opt);
  cap.set_enabled(false);
  cap.OnFrame(MakeRecord(1, 0, 10.0));
  EXPECT_EQ(cap.frames_seen(), 0u);
  EXPECT_EQ(cap.captures(), 0u);
  cap.set_enabled(true);
  cap.OnFrame(MakeRecord(1, 1, 10.0));
  EXPECT_EQ(cap.frames_seen(), 1u);
  EXPECT_EQ(cap.captures(), 1u);
}

TEST(SlowFrameTest, CaptureSnapshotsSessionWindowEvents) {
  const uint16_t session = FlightInternName("slowtest-session");
  const uint16_t other = FlightInternName("slowtest-other");
  const uint16_t code = FlightInternName("slowtest-pool");

  SlowFrameOptions opt;
  opt.threshold_ms = 0.0001;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);

  FrameStageRecord record;
  record.session = session;
  record.frame = 3;
  record.start_ns = FlightNowNs();
  {
    SessionTraceScope trace(session, 3);
    StageTraceScope stage(TraceStage::kFetch);
    telemetry::GlobalFlightRecorder().Record(FlightEventType::kPoolMiss,
                                             code, 11, 0);
  }
  {
    // Another session's event in the same window must not be captured.
    SessionTraceScope trace(other, 0);
    telemetry::GlobalFlightRecorder().Record(FlightEventType::kPoolMiss,
                                             code, 12, 0);
  }
  // Pad the window's end past the events just recorded.
  record.wall_ns = FlightNowNs() - record.start_ns + 1'000'000;
  cap.OnFrame(record);

  const SlowDump dump = cap.Snapshot();
  ASSERT_EQ(dump.captures.size(), 1u);
  const SlowFrameEntry& entry = dump.captures[0];
  bool saw_own = false;
  for (const FlightEvent& ev : entry.events) {
    EXPECT_EQ(ev.session, session);  // Window filter is per-session.
    EXPECT_GE(ev.ts_ns, record.start_ns);
    EXPECT_LE(ev.ts_ns, record.start_ns + record.wall_ns);
    if (ev.a == 11 &&
        ev.stage == static_cast<uint8_t>(TraceStage::kFetch)) {
      saw_own = true;
    }
  }
  EXPECT_TRUE(saw_own);
  // The shared name table resolves the session for the dump reader.
  EXPECT_EQ(dump.NameOf(session), "slowtest-session");
}

TEST(SlowFrameTest, DumpFileRoundTrip) {
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  cap.OnFrame(MakeRecord(2, 7, 3.5, /*queue_ms=*/0.5));
  ASSERT_EQ(cap.captures(), 1u);

  const std::string path = TempPath("slow_roundtrip.bin");
  ASSERT_TRUE(cap.WriteDump(path).ok());
  Result<SlowDump> read = SlowFrameCapture::ReadDump(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->frames_seen, 1u);
  ASSERT_EQ(read->captures.size(), 1u);
  const FrameStageRecord& r = read->captures[0].record;
  EXPECT_EQ(r.session, 2u);
  EXPECT_EQ(r.frame, 7u);
  EXPECT_EQ(r.queue_ns, 500'000u);
  EXPECT_EQ(r.wall_ns, 3'500'000u);
  EXPECT_EQ(r.stages.ns[static_cast<size_t>(TraceStage::kSearch)],
            r.wall_ns / 2);
  EXPECT_DOUBLE_EQ(read->captures[0].trip_threshold_ms, 1.0);
  std::remove(path.c_str());
}

TEST(SlowFrameTest, DecodeRejectsMalformedDumps) {
  EXPECT_FALSE(DecodeSlowDump("not a dump").ok());
  EXPECT_FALSE(DecodeSlowDump("").ok());

  SlowDump dump;
  dump.names = {"?", "sess"};
  dump.frames_seen = 9;
  dump.captures_dropped = 2;
  SlowFrameEntry entry;
  entry.record = MakeRecord(1, 4, 2.0, 0.25);
  entry.trip_threshold_ms = 1.5;
  FlightEvent ev;
  ev.ts_ns = entry.record.start_ns;
  ev.type = static_cast<uint8_t>(FlightEventType::kPoolMiss);
  ev.stage = static_cast<uint8_t>(TraceStage::kFetch);
  ev.session = 1;
  entry.events.push_back(ev);
  dump.captures.push_back(entry);

  const std::string encoded = EncodeSlowDump(dump);
  Result<SlowDump> back = DecodeSlowDump(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->frames_seen, 9u);
  EXPECT_EQ(back->captures_dropped, 2u);
  ASSERT_EQ(back->captures.size(), 1u);
  ASSERT_EQ(back->captures[0].events.size(), 1u);
  EXPECT_EQ(back->captures[0].events[0].session, 1u);
  EXPECT_DOUBLE_EQ(back->captures[0].trip_threshold_ms, 1.5);

  // Truncation anywhere in the capture section fails cleanly, as do
  // trailing garbage and an unsupported version.
  EXPECT_FALSE(DecodeSlowDump(encoded.substr(0, encoded.size() - 1)).ok());
  EXPECT_FALSE(DecodeSlowDump(encoded.substr(0, encoded.size() - 40)).ok());
  EXPECT_FALSE(DecodeSlowDump(encoded + "x").ok());
  std::string bad_version = encoded;
  bad_version[8] = 99;  // Version byte right after the 8-byte magic.
  EXPECT_FALSE(DecodeSlowDump(bad_version).ok());
}

TEST(SlowFrameTest, DecodeRejectsInflatedCaptureCount) {
  // An empty dump (magic, version, no names, zero frame counters) whose
  // trailing capture count says 0xffffffff: no input this short holds that.
  std::string dump = EncodeSlowDump(SlowDump());
  ASSERT_EQ(dump.size(), 36u);
  for (size_t i = 32; i < 36; ++i) {
    dump[i] = '\xff';
  }
  const Status status = DecodeSlowDump(dump).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(SlowFrameTest, ChromeTraceHasOneTrackPerSession) {
  SlowDump dump;
  dump.names = {"?", "u0.walk", "u1.turn"};
  for (uint16_t session : {static_cast<uint16_t>(1),
                           static_cast<uint16_t>(2)}) {
    SlowFrameEntry entry;
    entry.record = MakeRecord(session, 5, 4.0, /*queue_ms=*/1.0);
    entry.record.start_ns = 10'000'000;  // Fixed, so queue slice fits.
    entry.trip_threshold_ms = 2.0;
    FlightEvent ev;
    ev.ts_ns = entry.record.start_ns + 1000;
    ev.type = static_cast<uint8_t>(FlightEventType::kPoolMiss);
    ev.session = session;
    ev.stage = static_cast<uint8_t>(TraceStage::kFetch);
    entry.events.push_back(ev);
    dump.captures.push_back(entry);
  }

  const std::string json = SlowDumpChromeTraceJson(dump);
  // Slow-frame captures render under their own pid with one named track
  // (tid = session id) per session.
  EXPECT_NE(json.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"u0.walk\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"u1.turn\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  // Queue wait and the frame itself are complete ("X") slices; stage
  // breakdown slices carry the stage names; io events become instants.
  EXPECT_NE(json.find("\"name\":\"queue wait\""), std::string::npos);
  EXPECT_NE(json.find("frame 5 (slow)"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"search\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"trip_threshold_ms\":2"), std::string::npos);
}

TEST(SlowFrameTest, ConcurrentOnFrameIsSafe) {
  // TSan exercise: concurrent feeders, some tripping captures.
  SlowFrameOptions opt;
  opt.threshold_ms = 1.5;
  opt.percentile = 0.0;
  opt.max_captures = 8;
  SlowFrameCapture cap(opt);
  constexpr size_t kThreads = 4;
  constexpr uint64_t kFrames = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cap] {
      for (uint64_t f = 0; f < kFrames; ++f) {
        const double wall_ms = f % 100 == 0 ? 2.0 : 0.5;
        cap.OnFrame(MakeRecord(static_cast<uint16_t>(t + 1), f, wall_ms));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(cap.frames_seen(), kThreads * kFrames);
  EXPECT_EQ(cap.captures(), 8u);  // Trips beyond the cap are dropped.
  EXPECT_GT(cap.Snapshot().captures_dropped, 0u);
}

// ------------------------------------ recorder totals against the billing

// A small world whose visual system really fetches: every model run the
// devices bill must be accounted for, page for page, by the recorder.
class FlightRecorderWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 4;
    copt.blocks_y = 4;
    scene_ = new Scene(std::move(*GenerateCity(copt)));

    CellGridOptions gopt;
    gopt.cells_x = 4;
    gopt.cells_y = 4;
    grid_ = new CellGrid(std::move(*CellGrid::Build(scene_->bounds(), gopt)));

    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = 24;
    popt.samples_per_cell = 1;
    table_ = new VisibilityTable(
        std::move(*PrecomputeVisibility(*scene_, *grid_, popt)));
  }

  static void TearDownTestSuite() {
    delete table_;
    delete grid_;
    delete scene_;
  }

  static VisualOptions Options(prefetch::PrefetchMode mode) {
    VisualOptions opt;
    opt.eta = 0.001;
    opt.build.rtree.max_entries = 8;
    opt.build.rtree.min_entries = 3;
    opt.prefetch = mode;
    opt.prefetch_models_per_frame =
        mode == prefetch::PrefetchMode::kSync ? 2 : 0;
    opt.prefetch_workers = 1;
    return opt;
  }

  static std::unique_ptr<VisualSystem> MakeVisual(const VisualOptions& opt) {
    Result<std::unique_ptr<VisualSystem>> system =
        VisualSystem::Create(scene_, grid_, table_, opt);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(*system);
  }

  static Session Walk(size_t frames) {
    Session session = RecordSession(MotionPattern::kNormalWalk,
                                    scene_->bounds(), SessionOptions{
                                        .num_frames = frames,
                                    });
    session.name = "flight-walk";
    return session;
  }

  // Pages the recorder saw per device name (kPageRead and kPageReads),
  // split by whether the prefetch stage was stamped, plus the event
  // counts of each type outside the prefetch stage.
  struct RecordedPages {
    uint64_t other_stages = 0;
    uint64_t prefetch_stage = 0;
    uint64_t per_run_events = 0;
    uint64_t batched_events = 0;
    uint64_t batched_runs = 0;
  };

  static std::map<std::string, RecordedPages> PagesByDevice(
      const FlightDump& dump) {
    std::map<std::string, RecordedPages> pages;
    for (const FlightEvent& ev : dump.events) {
      const auto type = static_cast<FlightEventType>(ev.type);
      if (type != FlightEventType::kPageRead &&
          type != FlightEventType::kPageReads) {
        continue;
      }
      RecordedPages& p = pages[std::string(dump.NameOf(ev))];
      if (ev.stage == static_cast<uint8_t>(TraceStage::kPrefetch)) {
        p.prefetch_stage += ev.b;
        continue;
      }
      p.other_stages += ev.b;
      if (type == FlightEventType::kPageReads) {
        ++p.batched_events;
        p.batched_runs += ev.a;
      } else {
        ++p.per_run_events;
      }
    }
    return pages;
  }

  // Fixed standalone queries (the Fig. 7 path) and a walk (the frame
  // path) on a fresh system; returns the per-device recorded pages and
  // each device's billed page_reads delta.
  static void Run(const VisualOptions& opt,
                  std::map<std::string, RecordedPages>* recorded,
                  std::map<std::string, uint64_t>* billed,
                  uint64_t* diverted) {
    telemetry::Telemetry tel;  // Declared first: outlives the system.
    auto visual = MakeVisual(opt);
    visual->AttachTelemetry(&tel, "flight");
    FlightRecorder& global = telemetry::GlobalFlightRecorder();
    const Session session = Walk(40);
    const telemetry::MetricsSnapshot before = tel.metrics().Snapshot();
    global.Drain(/*consume=*/true);
    const uint64_t dropped_before = global.events_dropped();

    std::vector<RetrievedLod> result;
    for (size_t i = 0; i < session.frames.size(); i += 8) {
      ASSERT_TRUE(visual
                      ->Query(session.frames[i].position,
                              /*fetch_models=*/true, &result, nullptr)
                      .ok());
    }
    ASSERT_TRUE(PlaySession(visual.get(), session).ok());

    const FlightDump dump = global.Drain(/*consume=*/true);
    ASSERT_EQ(global.events_dropped(), dropped_before);
    const telemetry::MetricsSnapshot after = tel.metrics().Snapshot();
    *recorded = PagesByDevice(dump);
    for (const char* device : {"tree", "store", "model"}) {
      const std::string name = std::string("flight.io.") + device;
      const std::string reads = name + ".page_reads";
      ASSERT_NE(after.Find(reads), nullptr) << reads;
      (*billed)[name] = static_cast<uint64_t>(after.Find(reads)->value -
                                              before.Find(reads)->value);
    }
    *diverted = visual->prefetcher() != nullptr
                    ? visual->prefetcher()->stats().issued_pages
                    : 0;
  }

  static Scene* scene_;
  static CellGrid* grid_;
  static VisibilityTable* table_;
};

Scene* FlightRecorderWorldTest::scene_ = nullptr;
CellGrid* FlightRecorderWorldTest::grid_ = nullptr;
VisibilityTable* FlightRecorderWorldTest::table_ = nullptr;

TEST_F(FlightRecorderWorldTest, PageTotalsMatchBilledPagesWithSyncPrefetch) {
  std::map<std::string, RecordedPages> recorded;
  std::map<std::string, uint64_t> billed;
  uint64_t diverted = 0;
  Run(Options(prefetch::PrefetchMode::kSync), &recorded, &billed, &diverted);
  EXPECT_EQ(diverted, 0u);  // Sync prefetch bills its reads.
  for (const auto& [name, pages] : billed) {
    const RecordedPages& r = recorded[name];
    EXPECT_EQ(r.other_stages + r.prefetch_stage, pages) << name;
    EXPECT_GT(pages, 0u) << name;
  }
  const RecordedPages& model = recorded["flight.io.model"];
  // The walk had idle frames, so sync prefetch really fetched.
  EXPECT_GT(model.prefetch_stage, 0u);
  // Only fetch loops read models outside prefetch, and every one of
  // their runs landed in an aggregate that merged several.
  EXPECT_EQ(model.per_run_events, 0u);
  EXPECT_LT(model.batched_events, model.batched_runs);
  // Search reads are not batched.
  EXPECT_EQ(recorded["flight.io.tree"].batched_events, 0u);
}

TEST_F(FlightRecorderWorldTest,
       PageTotalsMatchBilledPlusDivertedPagesWithAsyncPrefetch) {
  std::map<std::string, RecordedPages> recorded;
  std::map<std::string, uint64_t> billed;
  uint64_t diverted = 0;
  Run(Options(prefetch::PrefetchMode::kAsync), &recorded, &billed,
      &diverted);
  // Async speculation is the only prefetch-stage reader, and every read
  // it makes is diverted off the device's bill.
  uint64_t prefetch_stage = 0;
  for (const auto& [name, pages] : billed) {
    const RecordedPages& r = recorded[name];
    EXPECT_EQ(r.other_stages, pages) << name;
    prefetch_stage += r.prefetch_stage;
  }
  EXPECT_GT(diverted, 0u);
  EXPECT_EQ(prefetch_stage, diverted);
}

TEST_F(FlightRecorderWorldTest, SlowFrameCaptureHoldsCoalescedModelReads) {
  telemetry::Telemetry tel;  // Declared first: outlives the system.
  auto visual = MakeVisual(Options(prefetch::PrefetchMode::kOff));
  visual->AttachTelemetry(&tel, "slowcap");
  SlowFrameCapture& capture = telemetry::GlobalSlowFrameCapture();
  SlowFrameOptions sopt;
  sopt.threshold_ms = 1e-6;  // Every frame trips.
  sopt.percentile = 0.0;
  capture.Configure(sopt);

  PlayOptions play;
  play.keep_frames = true;
  Result<SessionSummary> summary = PlaySession(visual.get(), Walk(1), play);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_EQ(summary->frames.size(), 1u);
  const FrameResult& frame = summary->frames[0];
  ASSERT_GT(frame.models_fetched, 1u);

  const SlowDump dump = capture.Snapshot();
  capture.Configure(SlowFrameOptions());
  ASSERT_EQ(dump.captures.size(), 1u);
  const uint16_t model = FlightInternName("slowcap.io.model");
  std::vector<FlightEvent> model_reads;
  for (const FlightEvent& ev : dump.captures[0].events) {
    if (ev.code == model &&
        (ev.type == static_cast<uint8_t>(FlightEventType::kPageRead) ||
         ev.type == static_cast<uint8_t>(FlightEventType::kPageReads))) {
      model_reads.push_back(ev);
    }
  }
  // The fetch loop's model runs are one event carrying the frame's model
  // pages (no prefetch: the frame's only model reads are its fetches).
  ASSERT_EQ(model_reads.size(), 1u);
  const FlightEvent& reads = model_reads[0];
  EXPECT_EQ(reads.type, static_cast<uint8_t>(FlightEventType::kPageReads));
  EXPECT_EQ(reads.stage, static_cast<uint8_t>(TraceStage::kFetch));
  EXPECT_EQ(reads.a, frame.models_fetched);
  EXPECT_EQ(reads.b, frame.io_pages - frame.light_io_pages);
}

}  // namespace
}  // namespace hdov
