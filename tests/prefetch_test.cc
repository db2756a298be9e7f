#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "prefetch/predictor.h"
#include "prefetch/prefetcher.h"
#include "scene/city_generator.h"
#include "telemetry/telemetry.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

using prefetch::CellPrediction;
using prefetch::ParsePrefetchMode;
using prefetch::PrefetchMode;
using prefetch::PrefetchModeName;
using prefetch::VelocityPredictor;

class PrefetchFixture : public ::testing::Test {
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

  static std::unique_ptr<VisualSystem> MakeVisual(const VisualOptions& opt) {
    Result<std::unique_ptr<VisualSystem>> system =
        VisualSystem::Create(scene_, grid_, table_, opt);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(*system);
  }

  static VisualOptions BaseOptions() {
    VisualOptions opt;
    opt.eta = 0.001;
    opt.build.rtree.max_entries = 8;
    opt.build.rtree.min_entries = 3;
    return opt;
  }

  // A straight west-to-east walk through the middle row of cells; crosses
  // several cell boundaries, which is what prefetch exists for.
  static std::vector<Viewpoint> EastboundWalk(size_t frames) {
    const Aabb& b = scene_->bounds();
    const double y = (b.min.y + b.max.y) / 2.0;
    std::vector<Viewpoint> walk;
    for (size_t i = 0; i < frames; ++i) {
      const double t = static_cast<double>(i) / (frames - 1);
      const double x = b.min.x + 1.0 + t * (b.max.x - b.min.x - 2.0);
      walk.push_back(Viewpoint{Vec3(x, y, 1.7), Vec3(1, 0, 0)});
    }
    return walk;
  }

  static Scene* scene_;
  static CellGrid* grid_;
  static VisibilityTable* table_;
};

Scene* PrefetchFixture::scene_ = nullptr;
CellGrid* PrefetchFixture::grid_ = nullptr;
VisibilityTable* PrefetchFixture::table_ = nullptr;

TEST(PrefetchModeTest, ParseNameRoundTrip) {
  for (PrefetchMode mode : {PrefetchMode::kOff, PrefetchMode::kSync,
                            PrefetchMode::kAsync}) {
    PrefetchMode parsed = PrefetchMode::kOff;
    ASSERT_TRUE(ParsePrefetchMode(PrefetchModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  PrefetchMode unchanged = PrefetchMode::kSync;
  EXPECT_FALSE(ParsePrefetchMode("garbage", &unchanged));
  EXPECT_FALSE(ParsePrefetchMode("", &unchanged));
  EXPECT_EQ(unchanged, PrefetchMode::kSync);
}

TEST_F(PrefetchFixture, VerticalLookPredictsNothing) {
  VelocityPredictor predictor(grid_);
  const Vec3 center = scene_->bounds().Center();
  const CellId cell = grid_->ClampedCellForPoint(center);
  // Straight down, straight up, and exactly zero: all degenerate in the
  // horizontal plane. The legacy code normalized these (a NaN / garbage
  // probe); the predictor must return invalid instead.
  for (const Vec3& look : {Vec3(0, 0, -1), Vec3(0, 0, 1), Vec3(0, 0, 0)}) {
    CellPrediction p =
        predictor.PredictFromLook(Viewpoint{center, look}, cell);
    EXPECT_FALSE(p.valid);
  }
  // NaN components fail the same guard rather than propagating.
  const double nan = std::nan("");
  CellPrediction p = predictor.PredictFromLook(
      Viewpoint{center, Vec3(nan, nan, 0)}, cell);
  EXPECT_FALSE(p.valid);
}

TEST_F(PrefetchFixture, LookPredictsTheCellAhead) {
  VelocityPredictor predictor(grid_);
  const Vec3 pos = grid_->CellCenter(grid_->ClampedCellForPoint(
      scene_->bounds().Center()));
  const CellId cell = grid_->ClampedCellForPoint(pos);
  CellPrediction east =
      predictor.PredictFromLook(Viewpoint{pos, Vec3(1, 0, 0)}, cell);
  ASSERT_TRUE(east.valid);
  EXPECT_NE(east.cell, cell);
  // A steep-but-not-vertical look still predicts from the horizontal
  // component alone.
  CellPrediction steep = predictor.PredictFromLook(
      Viewpoint{pos, Vec3(0.1, 0, -10.0)}, cell);
  ASSERT_TRUE(steep.valid);
  EXPECT_EQ(steep.cell, east.cell);
}

TEST_F(PrefetchFixture, VelocityBeatsLookWhenMoving) {
  VelocityPredictor predictor(grid_);
  const Vec3 pos = grid_->CellCenter(grid_->ClampedCellForPoint(
      scene_->bounds().Center()));
  const Vec3 look(1, 0, 0);  // Facing east...
  // ...while strafing north. After a few observations the velocity
  // average points north and overrides the look direction.
  CellPrediction p;
  Vec3 v = pos;
  for (int i = 0; i < 4; ++i) {
    v = v + Vec3(0, 2.0, 0);
    p = predictor.Observe(Viewpoint{v, look}, grid_->ClampedCellForPoint(v));
  }
  EXPECT_GT(predictor.velocity().y, 0.0);
  ASSERT_TRUE(p.valid);
  const CellId here = grid_->ClampedCellForPoint(v);
  CellPrediction from_look =
      predictor.PredictFromLook(Viewpoint{v, look}, here);
  ASSERT_TRUE(from_look.valid);
  EXPECT_NE(p.cell, from_look.cell);
}

TEST_F(PrefetchFixture, StationaryObserverFallsBackToLook) {
  VelocityPredictor predictor(grid_);
  const Vec3 pos = grid_->CellCenter(grid_->ClampedCellForPoint(
      scene_->bounds().Center()));
  const CellId cell = grid_->ClampedCellForPoint(pos);
  const Viewpoint vp{pos, Vec3(-1, 0, 0)};
  CellPrediction p;
  for (int i = 0; i < 3; ++i) {
    p = predictor.Observe(vp, cell);  // Zero delta every frame.
  }
  CellPrediction from_look = predictor.PredictFromLook(vp, cell);
  ASSERT_TRUE(from_look.valid);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.cell, from_look.cell);
  predictor.Reset();
  EXPECT_EQ(predictor.velocity().LengthSquared(), 0.0);
}

TEST_F(PrefetchFixture, ObservedBoundaryCrossingKeepsPredictingAhead) {
  VelocityPredictor predictor(grid_);
  const Aabb& b = scene_->bounds();
  const double y = (b.min.y + b.max.y) / 2.0;
  // March east across the whole grid; whenever a prediction is made from
  // inside a non-final column it must be a different cell further east.
  Vec3 pos(b.min.x + 1.0, y, 1.7);
  bool crossed = false;
  CellId last_cell = grid_->ClampedCellForPoint(pos);
  for (int i = 0; i < 40; ++i) {
    pos = pos + Vec3((b.max.x - b.min.x) / 45.0, 0, 0);
    const CellId cell = grid_->ClampedCellForPoint(pos);
    crossed = crossed || cell != last_cell;
    last_cell = cell;
    CellPrediction p =
        predictor.Observe(Viewpoint{pos, Vec3(1, 0, 0)}, cell);
    if (p.valid) {
      EXPECT_NE(p.cell, cell);
    }
  }
  EXPECT_TRUE(crossed);  // The walk really exercised boundary crossings.
}

// The regression the vertical-look NaN bug came from: the legacy inline
// RunPrefetch normalized a zero-length horizontal look vector. A sync-mode
// system rendering a straight-down frame must stay finite and succeed.
TEST_F(PrefetchFixture, SyncPrefetchSurvivesVerticalLook) {
  VisualOptions opt = BaseOptions();
  opt.prefetch_models_per_frame = 2;  // Historical alias: selects kSync.
  auto visual = MakeVisual(opt);
  ASSERT_NE(visual->prefetcher(), nullptr);
  EXPECT_EQ(visual->prefetcher()->mode(), PrefetchMode::kSync);

  const Vec3 center = scene_->bounds().Center();
  FrameResult frame;
  // First frame fetches plenty; the second is idle, which is when the
  // sync prefetch step actually runs its prediction.
  ASSERT_TRUE(
      visual->RenderFrame({center, Vec3(0, 0, -1)}, &frame).ok());
  ASSERT_TRUE(
      visual->RenderFrame({center, Vec3(0, 0, -1)}, &frame).ok());
  EXPECT_TRUE(std::isfinite(frame.frame_time_ms));
}

TEST_F(PrefetchFixture, OffModeBuildsNoPrefetcher) {
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kOff;
  opt.prefetch_models_per_frame = 0;
  auto visual = MakeVisual(opt);
  EXPECT_EQ(visual->prefetcher(), nullptr);
}

// Zero-drift contract: with the pipeline off, two independently built
// systems replay a session with bit-identical billing — and that billing
// never mentions prefetch.
TEST_F(PrefetchFixture, OffModeIsDeterministicAcrossBuilds) {
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kOff;
  opt.prefetch_models_per_frame = 0;
  auto a = MakeVisual(opt);
  auto b = MakeVisual(opt);
  for (const Viewpoint& vp : EastboundWalk(24)) {
    FrameResult fa, fb;
    ASSERT_TRUE(a->RenderFrame(vp, &fa).ok());
    ASSERT_TRUE(b->RenderFrame(vp, &fb).ok());
    EXPECT_EQ(fa.io_pages, fb.io_pages);
    EXPECT_DOUBLE_EQ(fa.frame_time_ms, fb.frame_time_ms);
  }
}

TEST_F(PrefetchFixture, AsyncPipelineOverlapsIoAndGetsUsed) {
  VisualOptions off = BaseOptions();
  off.prefetch = PrefetchMode::kOff;
  VisualOptions async = BaseOptions();
  async.prefetch = PrefetchMode::kAsync;
  auto base = MakeVisual(off);
  auto piped = MakeVisual(async);
  ASSERT_NE(piped->prefetcher(), nullptr);
  EXPECT_EQ(piped->prefetcher()->mode(), PrefetchMode::kAsync);

  uint64_t off_pages = 0;
  uint64_t async_pages = 0;
  double off_ms = 0.0;
  double async_ms = 0.0;
  for (const Viewpoint& vp : EastboundWalk(32)) {
    FrameResult fo, fa;
    ASSERT_TRUE(base->RenderFrame(vp, &fo).ok());
    ASSERT_TRUE(piped->RenderFrame(vp, &fa).ok());
    off_pages += fo.io_pages;
    async_pages += fa.io_pages;
    off_ms += fo.frame_time_ms;
    async_ms += fa.frame_time_ms;
  }
  prefetch::PrefetcherStats stats = piped->prefetcher()->stats();
  EXPECT_GT(stats.plans, 0u);
  EXPECT_GT(stats.issued_pages, 0u);
  EXPECT_GT(stats.used_pages, 0u);  // Predictions actually paid off.
  EXPECT_GT(stats.overlap_cost_millis, 0.0);
  // Consumed pages came off the frames' bill: strictly less stall I/O
  // and simulated time than the identical walk without the pipeline.
  EXPECT_LT(async_pages, off_pages);
  EXPECT_LT(async_ms, off_ms);
  // Wasted ratio is a ratio.
  EXPECT_GE(stats.WastedRatio(), 0.0);
  EXPECT_LE(stats.WastedRatio(), 1.0);
}

TEST_F(PrefetchFixture, AsyncRunReportsIntoTelemetryAndResets) {
  telemetry::Telemetry tel;  // Declared first: outlives the system.
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kAsync;
  auto visual = MakeVisual(opt);
  visual->AttachTelemetry(&tel, "vis");
  for (const Viewpoint& vp : EastboundWalk(16)) {
    FrameResult frame;
    ASSERT_TRUE(visual->RenderFrame(vp, &frame).ok());
  }
  telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  const telemetry::MetricSample* issued_view =
      snap.Find("vis.prefetch.issued_pages");
  ASSERT_NE(issued_view, nullptr);
  EXPECT_GT(issued_view->value, 0.0);
  EXPECT_NE(snap.Find("vis.prefetch.wasted_ratio"), nullptr);
  visual->DetachTelemetry();
  // ResetRuntime drops the plan but keeps cumulative counters.
  const uint64_t issued = visual->prefetcher()->stats().issued_pages;
  visual->ResetRuntime();
  EXPECT_EQ(visual->prefetcher()->planned_cell(), kInvalidCell);
  EXPECT_GE(visual->prefetcher()->stats().cancelled_pages, 0u);
  EXPECT_EQ(visual->prefetcher()->stats().issued_pages, issued);
}

// The diversion hook itself: a sink swallows billing (stats, clock, head)
// and records the runs; a residency gate consumes fully resident runs
// one-shot.
TEST(PrefetchBillingTest, SinkDivertsAndResidencyConsumes) {
  PageDevice device;
  const PageId first = device.AllocateUnmaterialized(8);
  std::string out;
  PrefetchSink sink;
  {
    ScopedPrefetchBilling scope(&device, &sink);
    ASSERT_TRUE(device.Read(first + 1, &out).ok());
    ASSERT_TRUE(device.Read(first + 2, &out).ok());  // Sequential run.
  }
  // The device saw nothing...
  EXPECT_EQ(device.stats().page_reads, 0u);
  EXPECT_EQ(device.stats().seeks, 0u);
  EXPECT_EQ(device.clock().NowMicros(), 0u);
  // ...the sink saw everything, one recorded run per billed read, with
  // its own private head tracker (the second read is sequential: no
  // second seek).
  EXPECT_EQ(sink.stats.page_reads, 2u);
  EXPECT_EQ(sink.stats.seeks, 1u);
  EXPECT_GT(sink.cost_millis, 0.0);
  ASSERT_EQ(sink.runs.size(), 2u);
  EXPECT_EQ(sink.runs[0].first, first + 1);
  EXPECT_EQ(sink.runs[0].second, 1u);
  EXPECT_EQ(sink.runs[1].first, first + 2);
  EXPECT_EQ(sink.runs[1].second, 1u);

  // Mark those pages resident; re-reading them is consumed, not billed.
  PrefetchResidency residency;
  residency.pages.insert(first + 1);
  residency.pages.insert(first + 2);
  device.set_prefetch_residency(&residency);
  ASSERT_TRUE(device.Read(first + 1, &out).ok());
  ASSERT_TRUE(device.Read(first + 2, &out).ok());
  EXPECT_EQ(device.stats().page_reads, 0u);
  EXPECT_EQ(device.clock().NowMicros(), 0u);
  EXPECT_EQ(residency.used_pages, 2u);
  EXPECT_EQ(residency.used_runs, 2u);
  EXPECT_TRUE(residency.pages.empty());  // One-shot: consumed.

  // Third read of the same page: residency is spent, billing resumes.
  ASSERT_TRUE(device.Read(first + 1, &out).ok());
  EXPECT_EQ(device.stats().page_reads, 1u);
  device.set_prefetch_residency(nullptr);
}

TEST(PrefetchBillingTest, PartiallyResidentRunBillsInFull) {
  PageDevice device;
  const PageId first = device.AllocateUnmaterialized(8);
  PrefetchResidency residency;
  residency.pages.insert(first + 1);  // Page first+2 is NOT resident.
  device.set_prefetch_residency(&residency);
  std::vector<std::string> out;
  ASSERT_TRUE(device.ReadRun(first + 1, 2, &out).ok());
  EXPECT_EQ(device.stats().page_reads, 2u);  // Billed in full.
  EXPECT_EQ(residency.used_pages, 0u);
  EXPECT_EQ(residency.pages.size(), 1u);  // Untouched.
  device.set_prefetch_residency(nullptr);
}

}  // namespace
}  // namespace hdov
