#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "scene/city_generator.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "walkthrough/fidelity.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/naive_system.h"
#include "walkthrough/lodr_system.h"
#include "walkthrough/review_system.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

class WalkthroughFixture : public ::testing::Test {
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

  static std::unique_ptr<VisualSystem> MakeVisual(
      double eta, StorageScheme scheme = StorageScheme::kIndexedVertical) {
    VisualOptions opt;
    opt.eta = eta;
    opt.scheme = scheme;
    opt.build.rtree.max_entries = 8;
    opt.build.rtree.min_entries = 3;
    Result<std::unique_ptr<VisualSystem>> system =
        VisualSystem::Create(scene_, grid_, table_, opt);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(*system);
  }

  static std::unique_ptr<ReviewSystem> MakeReview(double box) {
    ReviewOptions opt;
    opt.query_box_size = box;
    opt.cache_distance = box * 1.5;
    opt.rtree.max_entries = 8;
    opt.rtree.min_entries = 3;
    Result<std::unique_ptr<ReviewSystem>> system =
        ReviewSystem::Create(scene_, opt);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(*system);
  }

  static std::unique_ptr<NaiveSystem> MakeNaive() {
    Result<std::unique_ptr<NaiveSystem>> system =
        NaiveSystem::Create(scene_, grid_, table_, NaiveOptions());
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(*system);
  }

  static Viewpoint CenterViewpoint() {
    Vec3 center = scene_->bounds().Center();
    return Viewpoint{Vec3(center.x, center.y, 1.7), Vec3(1, 0, 0)};
  }

  static Scene* scene_;
  static CellGrid* grid_;
  static VisibilityTable* table_;
};

Scene* WalkthroughFixture::scene_ = nullptr;
CellGrid* WalkthroughFixture::grid_ = nullptr;
VisibilityTable* WalkthroughFixture::table_ = nullptr;

TEST_F(WalkthroughFixture, VisualRenderFrameProducesSaneNumbers) {
  auto visual = MakeVisual(0.001);
  FrameResult frame;
  ASSERT_TRUE(visual->RenderFrame(CenterViewpoint(), &frame).ok());
  EXPECT_GT(frame.frame_time_ms, 0.0);
  EXPECT_GE(frame.frame_time_ms, frame.query_time_ms);
  EXPECT_GT(frame.io_pages, 0u);
  EXPECT_GE(frame.io_pages, frame.light_io_pages);
  EXPECT_GT(frame.rendered_triangles, 0u);
  EXPECT_GT(frame.resident_bytes, 0u);
  EXPECT_FALSE(visual->last_result().empty());
}

TEST_F(WalkthroughFixture, VisualDeltaSearchCutsRepeatIo) {
  auto visual = MakeVisual(0.001);
  FrameResult first, second;
  Viewpoint vp = CenterViewpoint();
  ASSERT_TRUE(visual->RenderFrame(vp, &first).ok());
  ASSERT_TRUE(visual->RenderFrame(vp, &second).ok());
  // The same viewpoint again: the whole model working set is resident.
  EXPECT_EQ(second.models_fetched, 0u);
  EXPECT_LT(second.io_pages, first.io_pages);

  // With delta disabled, everything is re-fetched.
  visual->set_delta_enabled(false);
  FrameResult third;
  ASSERT_TRUE(visual->RenderFrame(vp, &third).ok());
  EXPECT_EQ(third.models_fetched, visual->last_result().size());
}

TEST_F(WalkthroughFixture, VisualResetRuntimeForcesRefetch) {
  auto visual = MakeVisual(0.001);
  Viewpoint vp = CenterViewpoint();
  FrameResult frame;
  ASSERT_TRUE(visual->RenderFrame(vp, &frame).ok());
  visual->ResetRuntime();
  FrameResult again;
  ASSERT_TRUE(visual->RenderFrame(vp, &again).ok());
  EXPECT_GT(again.models_fetched, 0u);
}

TEST_F(WalkthroughFixture, VisualEtaTradesTrianglesForFidelity) {
  auto sharp = MakeVisual(0.0);
  auto coarse = MakeVisual(0.05);
  uint64_t sharp_tris = 0;
  uint64_t coarse_tris = 0;
  for (CellId c = 0; c < grid_->num_cells(); ++c) {
    Vec3 p = grid_->CellCenter(c);
    FrameResult f;
    ASSERT_TRUE(sharp->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    sharp_tris += f.rendered_triangles;
    ASSERT_TRUE(coarse->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    coarse_tris += f.rendered_triangles;
  }
  EXPECT_LT(coarse_tris, sharp_tris);
}

TEST_F(WalkthroughFixture, ReviewQueryMatchesBruteForceWindow) {
  auto review = MakeReview(150.0);
  Viewpoint vp = CenterViewpoint();
  std::vector<uint64_t> ids;
  ASSERT_TRUE(review->Query(vp.position, &ids).ok());
  std::set<uint64_t> got(ids.begin(), ids.end());

  const double half = 75.0;
  Aabb window(Vec3(vp.position.x - half, vp.position.y - half,
                   scene_->bounds().min.z),
              Vec3(vp.position.x + half, vp.position.y + half,
                   scene_->bounds().max.z));
  std::set<uint64_t> expected;
  for (const Object& obj : scene_->objects()) {
    if (obj.mbr.Intersects(window)) {
      expected.insert(obj.id);
    }
  }
  EXPECT_EQ(got, expected);
}

TEST_F(WalkthroughFixture, ReviewMissesFarVisibleObjects) {
  // The paper's core criticism of spatial methods: visible objects outside
  // the query box are lost.
  auto review = MakeReview(100.0);
  Viewpoint vp = CenterViewpoint();
  FrameResult frame;
  ASSERT_TRUE(review->RenderFrame(vp, &frame).ok());
  std::set<uint64_t> rendered;
  for (const RetrievedLod& lod : review->last_result()) {
    rendered.insert(lod.owner);
  }
  const CellVisibility& truth =
      table_->cell(grid_->ClampedCellForPoint(vp.position));
  size_t missed = 0;
  for (ObjectId id : truth.ids) {
    if (!rendered.count(id)) {
      ++missed;
    }
  }
  EXPECT_GT(missed, 0u) << "expected far visible objects outside the box";
}

TEST_F(WalkthroughFixture, ReviewComplementSearchAvoidsRefetch) {
  auto review = MakeReview(150.0);
  Viewpoint vp = CenterViewpoint();
  FrameResult first, second;
  ASSERT_TRUE(review->RenderFrame(vp, &first).ok());
  ASSERT_TRUE(review->RenderFrame(vp, &second).ok());
  EXPECT_EQ(second.models_fetched, 0u);
  EXPECT_LT(second.io_pages, first.io_pages);
}

TEST_F(WalkthroughFixture, ReviewLargerBoxCostsMore) {
  auto small = MakeReview(100.0);
  auto large = MakeReview(400.0);
  small->set_delta_enabled(false);
  large->set_delta_enabled(false);
  uint64_t small_io = 0;
  uint64_t large_io = 0;
  for (CellId c = 0; c < grid_->num_cells(); ++c) {
    Vec3 p = grid_->CellCenter(c);
    FrameResult f;
    ASSERT_TRUE(small->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    small_io += f.io_pages;
    ASSERT_TRUE(large->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    large_io += f.io_pages;
  }
  EXPECT_LT(small_io, large_io);
}

TEST_F(WalkthroughFixture, NaiveQueryEqualsCellList) {
  auto naive = MakeNaive();
  Viewpoint vp = CenterViewpoint();
  std::vector<RetrievedLod> result;
  ASSERT_TRUE(naive->Query(vp.position, false, &result).ok());
  const CellVisibility& truth =
      table_->cell(grid_->ClampedCellForPoint(vp.position));
  ASSERT_EQ(result.size(), truth.ids.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].owner, truth.ids[i]);
    EXPECT_FLOAT_EQ(result[i].dov, truth.dov[i]);
  }
}

TEST_F(WalkthroughFixture, NaiveSameCellSkipsListReread) {
  auto naive = MakeNaive();
  Viewpoint vp = CenterViewpoint();
  FrameResult first, second;
  ASSERT_TRUE(naive->RenderFrame(vp, &first).ok());
  ASSERT_TRUE(naive->RenderFrame(vp, &second).ok());
  EXPECT_GT(first.light_io_pages, 0u);
  EXPECT_EQ(second.light_io_pages, 0u);  // Same cell: list still cached.
}

TEST_F(WalkthroughFixture, VisualBeatsNaiveOnTotalIoAtLargeEta) {
  // In this small fixture city objects are close and DoV values are large,
  // so the threshold that triggers internal-LoD terminations is higher
  // than the paper's 0.008 (their scenes are hundreds of blocks wide).
  auto visual = MakeVisual(0.1);
  auto naive = MakeNaive();
  visual->set_delta_enabled(false);
  naive->set_delta_enabled(false);
  uint64_t visual_io = 0;
  uint64_t naive_io = 0;
  for (CellId c = 0; c < grid_->num_cells(); ++c) {
    Vec3 p = grid_->CellCenter(c);
    FrameResult f;
    ASSERT_TRUE(visual->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    visual_io += f.io_pages;
    ASSERT_TRUE(naive->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    naive_io += f.io_pages;
  }
  EXPECT_LT(visual_io, naive_io);
}

TEST_F(WalkthroughFixture, LodRTreeBoxesFollowTheView) {
  LodRTreeOptions opt;
  opt.frustum.far_dist = 200.0;
  opt.rtree.max_entries = 8;
  opt.rtree.min_entries = 3;
  Result<std::unique_ptr<LodRTreeSystem>> system =
      LodRTreeSystem::Create(scene_, opt);
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  Viewpoint vp = CenterViewpoint();
  std::vector<Aabb> boxes = (*system)->QueryBoxes(vp);
  ASSERT_EQ(boxes.size(), 3u);
  // Bands grow with depth and extend along the look direction (+x here).
  EXPECT_LT(boxes[0].max.x, boxes[2].max.x);
  EXPECT_LE(boxes[0].Volume(), boxes[2].Volume());
  // Turning around moves the boxes to the other side.
  Viewpoint turned{vp.position, Vec3(-1, 0, 0)};
  std::vector<Aabb> turned_boxes = (*system)->QueryBoxes(turned);
  EXPECT_GT(boxes[2].max.x, vp.position.x);
  EXPECT_LT(turned_boxes[2].min.x, vp.position.x);
}

TEST_F(WalkthroughFixture, LodRTreeNearObjectsFinerThanFar) {
  LodRTreeOptions opt;
  opt.frustum.far_dist = 600.0;
  opt.rtree.max_entries = 8;
  opt.rtree.min_entries = 3;
  Result<std::unique_ptr<LodRTreeSystem>> system =
      LodRTreeSystem::Create(scene_, opt);
  ASSERT_TRUE(system.ok());
  Viewpoint vp = CenterViewpoint();
  FrameResult frame;
  ASSERT_TRUE((*system)->RenderFrame(vp, &frame).ok());
  ASSERT_FALSE((*system)->last_result().empty());
  // LoD level correlates with distance band: check monotone trend between
  // the nearest and farthest retrieved objects.
  double near_level_sum = 0.0;
  size_t near_count = 0;
  double far_level_sum = 0.0;
  size_t far_count = 0;
  for (const RetrievedLod& lod : (*system)->last_result()) {
    const Object& obj = scene_->object(static_cast<ObjectId>(lod.owner));
    double d = obj.mbr.DistanceTo(vp.position);
    if (d < 90.0) {
      near_level_sum += lod.lod_level;
      ++near_count;
    } else if (d > 270.0) {
      far_level_sum += lod.lod_level;
      ++far_count;
    }
  }
  if (near_count > 0 && far_count > 0) {
    EXPECT_LE(near_level_sum / near_count, far_level_sum / far_count);
  }
}

TEST_F(WalkthroughFixture, LodRTreeDegradesWhenViewTurns) {
  // The paper's §2 critique of the LoD-R-tree: performance degenerates as
  // the user's view changes, because the frustum boxes swing away from
  // everything already loaded. Compare per-frame fetch I/O between a
  // straight walk and a turning walk.
  LodRTreeOptions opt;
  opt.frustum.far_dist = 300.0;
  opt.rtree.max_entries = 8;
  opt.rtree.min_entries = 3;
  Result<std::unique_ptr<LodRTreeSystem>> system =
      LodRTreeSystem::Create(scene_, opt);
  ASSERT_TRUE(system.ok());

  SessionOptions sopt;
  sopt.num_frames = 150;
  Session straight = RecordSession(MotionPattern::kNormalWalk,
                                   scene_->bounds(), sopt);
  Session turning = RecordSession(MotionPattern::kTurnLeftRight,
                                  scene_->bounds(), sopt);
  Result<SessionSummary> s1 = PlaySession(system->get(), straight);
  Result<SessionSummary> s2 = PlaySession(system->get(), turning);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  // Turning covers less ground, yet costs comparably or more I/O per
  // frame relative to distance traveled; at minimum it must not be the
  // near-free replay a cell-based method would see.
  EXPECT_GT(s2->avg_io_pages, 0.2 * s1->avg_io_pages);
}

TEST_F(WalkthroughFixture, PrefetchSmoothsCellFlips) {
  VisualOptions base;
  base.eta = 0.001;
  base.build.rtree.max_entries = 8;
  base.build.rtree.min_entries = 3;
  VisualOptions with_prefetch = base;
  with_prefetch.prefetch_models_per_frame = 3;

  Result<std::unique_ptr<VisualSystem>> plain =
      VisualSystem::Create(scene_, grid_, table_, base);
  Result<std::unique_ptr<VisualSystem>> prefetching =
      VisualSystem::Create(scene_, grid_, table_, with_prefetch);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(prefetching.ok());

  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  scene_->bounds(), SessionOptions{
                                      .num_frames = 200,
                                  });
  PlayOptions popt;
  popt.keep_frames = true;
  Result<SessionSummary> without = PlaySession(plain->get(), session, popt);
  Result<SessionSummary> with = PlaySession(prefetching->get(), session,
                                            popt);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());

  // Prefetching trims the worst frame (the cell-flip stall): compare the
  // maximum frame time after the cold-start frame.
  auto worst_after_start = [](const SessionSummary& s) {
    double worst = 0.0;
    for (size_t i = 5; i < s.frames.size(); ++i) {
      worst = std::max(worst, s.frames[i].frame_time_ms);
    }
    return worst;
  };
  EXPECT_LE(worst_after_start(*with), worst_after_start(*without));
}

TEST_F(WalkthroughFixture, PrefetchOffByDefaultKeepsIdleFramesIdle) {
  auto visual = MakeVisual(0.001);  // Default options: no prefetch.
  Viewpoint vp = CenterViewpoint();
  FrameResult first, second;
  ASSERT_TRUE(visual->RenderFrame(vp, &first).ok());
  ASSERT_TRUE(visual->RenderFrame(vp, &second).ok());
  EXPECT_EQ(second.models_fetched, 0u);
}

TEST_F(WalkthroughFixture, FidelityOriginalIsPerfect) {
  FidelityEvaluator eval(scene_, nullptr);
  const CellVisibility& truth = table_->cell(0);
  FidelityScore score = eval.OriginalScore(truth);
  EXPECT_NEAR(score.coverage, 1.0, 1e-9);
  EXPECT_NEAR(score.detail, 1.0, 1e-9);
  EXPECT_NEAR(score.combined, 1.0, 1e-9);
}

TEST_F(WalkthroughFixture, FidelityPenalizesMissingObjects) {
  FidelityEvaluator eval(scene_, nullptr);
  // Use the cell with the most visible objects so "half of them" is a
  // meaningful subset.
  CellId richest = 0;
  for (CellId c = 1; c < table_->num_cells(); ++c) {
    if (table_->cell(c).num_visible() >
        table_->cell(richest).num_visible()) {
      richest = c;
    }
  }
  const CellVisibility& truth = table_->cell(richest);
  ASSERT_GT(truth.ids.size(), 1u);
  // Render only half the visible objects, at the finest LoD.
  std::vector<RetrievedLod> rendered;
  for (size_t i = 0; i < truth.ids.size() / 2; ++i) {
    const Object& obj = scene_->object(truth.ids[i]);
    RetrievedLod lod;
    lod.kind = RetrievedLod::Kind::kObject;
    lod.owner = truth.ids[i];
    lod.triangle_count = obj.lods.finest().triangle_count;
    rendered.push_back(lod);
  }
  FidelityScore score = eval.Evaluate(truth, rendered);
  EXPECT_LT(score.coverage, 1.0);
  EXPECT_NEAR(score.detail, 1.0, 1e-9);  // What is shown, is shown sharp.
  EXPECT_LT(score.combined, 1.0);
}

TEST_F(WalkthroughFixture, FidelityPenalizesCoarseLods) {
  FidelityEvaluator eval(scene_, nullptr);
  const CellVisibility& truth = table_->cell(0);
  std::vector<RetrievedLod> rendered;
  for (ObjectId id : truth.ids) {
    const Object& obj = scene_->object(id);
    RetrievedLod lod;
    lod.kind = RetrievedLod::Kind::kObject;
    lod.owner = id;
    lod.lod_level = static_cast<uint32_t>(obj.lods.num_levels() - 1);
    lod.triangle_count = obj.lods.coarsest().triangle_count;
    rendered.push_back(lod);
  }
  FidelityScore score = eval.Evaluate(truth, rendered);
  EXPECT_NEAR(score.coverage, 1.0, 1e-9);  // Everything is represented...
  EXPECT_LT(score.detail, 1.0);            // ... but coarsely.
}

TEST_F(WalkthroughFixture, VisualFidelityDegradesGracefullyWithEta) {
  auto sharp = MakeVisual(0.0005);
  auto coarse = MakeVisual(0.05);
  FidelityEvaluator eval_sharp(scene_, &sharp->tree());
  FidelityEvaluator eval_coarse(scene_, &coarse->tree());
  double sharp_score = 0.0;
  double coarse_score = 0.0;
  for (CellId c = 0; c < grid_->num_cells(); ++c) {
    Vec3 p = grid_->CellCenter(c);
    FrameResult f;
    ASSERT_TRUE(sharp->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    sharp_score += eval_sharp.Evaluate(table_->cell(c),
                                       sharp->last_result()).combined;
    ASSERT_TRUE(coarse->RenderFrame({p, Vec3(1, 0, 0)}, &f).ok());
    coarse_score += eval_coarse.Evaluate(table_->cell(c),
                                         coarse->last_result()).combined;
  }
  const double n = grid_->num_cells();
  // Full coverage at both settings (HDoV never loses visible objects),
  // moderate detail loss at the large threshold.
  EXPECT_GT(sharp_score / n, 0.9);
  EXPECT_GE(sharp_score / n, coarse_score / n - 1e-9);
  EXPECT_GT(coarse_score / n, 0.2);
}

TEST_F(WalkthroughFixture, PlaySessionAggregates) {
  auto visual = MakeVisual(0.001);
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  scene_->bounds(), SessionOptions{
                                      .num_frames = 60,
                                  });
  PlayOptions popt;
  popt.keep_frames = true;
  Result<SessionSummary> summary = PlaySession(visual.get(), session, popt);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->num_frames, 60u);
  EXPECT_EQ(summary->frames.size(), 60u);
  EXPECT_GT(summary->avg_frame_time_ms, 0.0);
  EXPECT_GE(summary->var_frame_time, 0.0);
  EXPECT_GT(summary->avg_io_pages, 0.0);
  EXPECT_GT(summary->max_resident_bytes, 0u);

  double manual_avg = 0.0;
  for (const FrameResult& f : summary->frames) {
    manual_avg += f.frame_time_ms;
  }
  manual_avg /= 60.0;
  EXPECT_NEAR(summary->avg_frame_time_ms, manual_avg, 1e-9);
}

TEST_F(WalkthroughFixture, PlaySessionRejectsEmpty) {
  auto visual = MakeVisual(0.001);
  Session empty;
  EXPECT_FALSE(PlaySession(visual.get(), empty).ok());
}

TEST_F(WalkthroughFixture, TelemetryFrameRecordsMatchIoStats) {
  telemetry::Telemetry tel;  // Declared first: outlives the system.
  auto visual = MakeVisual(0.001);
  visual->AttachTelemetry(&tel, "visual");

  const uint64_t reads_before = visual->TotalIoStats().page_reads;
  for (CellId c = 0; c < grid_->num_cells(); ++c) {
    FrameResult f;
    ASSERT_TRUE(
        visual->RenderFrame({grid_->CellCenter(c), Vec3(1, 0, 0)}, &f).ok());
  }
  const uint64_t reads_delta =
      visual->TotalIoStats().page_reads - reads_before;

  ASSERT_EQ(tel.frames().size(), grid_->num_cells());
  uint64_t recorded_io = 0;
  uint64_t recorded_queries = 0;
  for (const telemetry::FrameRecord& f : tel.frames()) {
    EXPECT_EQ(f.system, "visual");
    EXPECT_EQ(f.kind, "frame");  // The inner Query emits no extra record.
    recorded_io += f.io_pages;
    recorded_queries += f.nodes_visited > 0 ? 1 : 0;
  }
  EXPECT_EQ(recorded_io, reads_delta);
  EXPECT_GT(recorded_queries, 0u);

  // The search counters agree with the sum over frame records.
  telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  ASSERT_NE(snap.Find("visual.search.queries"), nullptr);
  EXPECT_DOUBLE_EQ(snap.Find("visual.search.queries")->value,
                   static_cast<double>(grid_->num_cells()));
  uint64_t nodes = 0;
  for (const telemetry::FrameRecord& f : tel.frames()) {
    nodes += f.nodes_visited;
  }
  EXPECT_DOUBLE_EQ(snap.Find("visual.search.nodes_visited")->value,
                   static_cast<double>(nodes));
  // Device and store views are present and live.
  ASSERT_NE(snap.Find("visual.io.tree.page_reads"), nullptr);
  EXPECT_GT(snap.Find("visual.io.tree.page_reads")->value, 0.0);
  ASSERT_NE(snap.Find("visual.store.indexed-vertical.vpage_fetches"),
            nullptr);
  EXPECT_GT(snap.Find("visual.store.indexed-vertical.vpage_fetches")->value,
            0.0);

  // Detaching removes every view under the prefix.
  visual->DetachTelemetry();
  EXPECT_EQ(tel.metrics().size(), 0u);
}

TEST_F(WalkthroughFixture, TelemetryQueryTraceHasSearchSpans) {
  // The horizontal scheme keeps no per-cell segment in memory; its span
  // tree must be just as complete and closed as the indexed-vertical one.
  for (StorageScheme scheme :
       {StorageScheme::kIndexedVertical, StorageScheme::kHorizontal}) {
    SCOPED_TRACE(StorageSchemeName(scheme));
    telemetry::Telemetry tel;
    tel.tracer().set_enabled(true);
    auto visual = MakeVisual(0.001, scheme);
    visual->AttachTelemetry(&tel, "visual");

    std::vector<RetrievedLod> result;
    SearchStats stats;
    ASSERT_TRUE(visual
                    ->Query(CenterViewpoint().position,
                            /*fetch_models=*/false, &result, &stats)
                    .ok());
    const telemetry::TraceRecorder& rec = tel.tracer();
    ASSERT_EQ(rec.CountNamed("search"), 1u);
    EXPECT_EQ(rec.CountNamed("node"), stats.nodes_visited);
    EXPECT_EQ(rec.CountNamed("prune"), stats.hidden_entries_pruned);
    EXPECT_EQ(rec.CountNamed("terminate"), stats.internal_terminations);
    EXPECT_EQ(rec.open_depth(), 0u);
    for (size_t i = 0; i < rec.num_spans(); ++i) {
      EXPECT_TRUE(rec.span(i).closed) << rec.span(i).name;
    }
    // Standalone queries emit kind="query" records.
    ASSERT_EQ(tel.frames().size(), 1u);
    EXPECT_EQ(tel.frames()[0].kind, "query");
    EXPECT_EQ(tel.frames()[0].nodes_visited, stats.nodes_visited);
    // The snapshot (with trace) is valid JSON.
    Result<telemetry::JsonValue> parsed =
        telemetry::ParseJson(tel.SnapshotJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_NE(parsed->Find("trace"), nullptr);
  }
}

TEST_F(WalkthroughFixture, TraceSamplingGatesSpanTrees) {
  telemetry::Telemetry tel;
  tel.tracer().set_enabled(true);
  tel.tracer().set_sample_every(2);  // Span trees for queries 0 and 2.
  auto visual = MakeVisual(0.001);
  visual->AttachTelemetry(&tel, "visual");

  std::vector<RetrievedLod> result;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(visual
                    ->Query(CenterViewpoint().position,
                            /*fetch_models=*/false, &result, nullptr)
                    .ok());
  }
  const telemetry::TraceRecorder& rec = tel.tracer();
  EXPECT_EQ(rec.queries_seen(), 4u);
  EXPECT_EQ(rec.queries_sampled(), 2u);
  EXPECT_EQ(rec.CountNamed("search"), 2u);
  // Sampling only thins span trees — counters still see every query.
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  ASSERT_NE(snap.Find("visual.search.queries"), nullptr);
  EXPECT_DOUBLE_EQ(snap.Find("visual.search.queries")->value, 4.0);
}

TEST_F(WalkthroughFixture, FlightRecorderToggleKeepsCountersBitIdentical) {
  // The recorder is always on under the zero-drift perf gate, so flipping
  // it must never move a simulated counter.
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  scene_->bounds(), SessionOptions{
                                      .num_frames = 12,
                                  });
  telemetry::FlightRecorder& recorder = telemetry::GlobalFlightRecorder();
  const auto run = [&](bool enabled) {
    recorder.set_enabled(enabled);
    auto visual = MakeVisual(0.001);
    Result<SessionSummary> summary = PlaySession(visual.get(), session);
    EXPECT_TRUE(summary.ok());
    const IoStats stats = visual->TotalIoStats();
    recorder.set_enabled(true);
    return stats;
  };
  const uint64_t recorded_before = recorder.events_recorded();
  const IoStats with_recorder = run(true);
  const uint64_t recorded_between = recorder.events_recorded();
  const IoStats without_recorder = run(false);

  EXPECT_EQ(with_recorder.page_reads, without_recorder.page_reads);
  EXPECT_EQ(with_recorder.page_writes, without_recorder.page_writes);
  EXPECT_EQ(with_recorder.seeks, without_recorder.seeks);
  EXPECT_EQ(with_recorder.bytes_read, without_recorder.bytes_read);
  EXPECT_EQ(with_recorder.bytes_written, without_recorder.bytes_written);
  // The enabled run really did record (frame boundaries at minimum).
  EXPECT_GT(recorded_between, recorded_before);
}

TEST_F(WalkthroughFixture, TelemetrySessionGaugesWrittenByFrameLoop) {
  telemetry::Telemetry tel;
  auto visual = MakeVisual(0.001);
  visual->AttachTelemetry(&tel, "visual");
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  scene_->bounds(), SessionOptions{
                                      .num_frames = 20,
                                  });
  session.name = "walk";
  Result<SessionSummary> summary = PlaySession(visual.get(), session);
  ASSERT_TRUE(summary.ok());
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  const telemetry::MetricSample* avg =
      snap.Find("visual.session.walk.avg_frame_time_ms");
  ASSERT_NE(avg, nullptr);
  EXPECT_NEAR(avg->value, summary->avg_frame_time_ms, 1e-9);
  for (const telemetry::FrameRecord& f : tel.frames()) {
    EXPECT_EQ(f.context, "walk");
  }
  // The context is restored after the session.
  EXPECT_TRUE(tel.context().empty());
}

TEST_F(WalkthroughFixture, VisualOutperformsReviewOnFrameTime) {
  // The headline Table 3 comparison, in miniature: VISUAL at eta = 0.001
  // vs REVIEW with comparable-fidelity (large) boxes.
  auto visual = MakeVisual(0.001);
  const double big_box =
      0.8 * (scene_->bounds().max.x - scene_->bounds().min.x);
  auto review = MakeReview(big_box);
  Session session = RecordSession(MotionPattern::kNormalWalk,
                                  scene_->bounds(), SessionOptions{
                                      .num_frames = 80,
                                  });
  Result<SessionSummary> vis = PlaySession(visual.get(), session);
  Result<SessionSummary> rev = PlaySession(review.get(), session);
  ASSERT_TRUE(vis.ok());
  ASSERT_TRUE(rev.ok());
  EXPECT_LT(vis->avg_frame_time_ms, rev->avg_frame_time_ms);
  EXPECT_LT(vis->max_resident_bytes, rev->max_resident_bytes);
}

// ------------------------------- session summary numerics (regressions)

// Feeds a scripted frame sequence through PlaySession, so the aggregation
// under test runs on the exact code path the benches use.
class ScriptedSystem : public WalkthroughSystem {
 public:
  explicit ScriptedSystem(std::vector<FrameResult> frames)
      : frames_(std::move(frames)) {}

  std::string name() const override { return "SCRIPTED"; }
  Status RenderFrame(const Viewpoint&, FrameResult* result) override {
    *result = frames_[next_++ % frames_.size()];
    return Status::OK();
  }
  void ResetRuntime() override { next_ = 0; }
  const std::vector<RetrievedLod>& last_result() const override {
    return empty_;
  }
  IoStats TotalIoStats() const override { return IoStats(); }
  void ResetIoStats() override {}

 private:
  std::vector<FrameResult> frames_;
  size_t next_ = 0;
  std::vector<RetrievedLod> empty_;
};

Session BlankSession(size_t num_frames) {
  Session session;
  session.name = "scripted";
  session.frames.resize(num_frames);
  return session;
}

TEST(SessionAccumulatorTest, WelfordSurvivesLargeMeanSmallSpread) {
  // Catastrophic-cancellation regression: with frame times of 1e8 ± 1 ms,
  // E[x^2] sits at 1e16 where doubles step in units of 2 — the old
  // E[x^2]-E[x]^2 variance lost every significant digit (0.0 or 2.0,
  // depending on rounding). Welford's update keeps the true 1.0.
  FrameResult low, high;
  low.frame_time_ms = 1e8 - 1.0;
  high.frame_time_ms = 1e8 + 1.0;
  ScriptedSystem system({low, high});
  Result<SessionSummary> summary =
      PlaySession(&system, BlankSession(1000));
  ASSERT_TRUE(summary.ok());
  EXPECT_NEAR(summary->avg_frame_time_ms, 1e8, 1e-5);
  EXPECT_NEAR(summary->var_frame_time, 1.0, 1e-6);
}

TEST(SessionAccumulatorTest, TwoSampleVarianceIsExact) {
  SessionAccumulator acc;
  FrameResult a, b;
  a.frame_time_ms = 3.0;
  b.frame_time_ms = 7.0;
  acc.Add(a);
  acc.Add(b);
  SessionSummary summary;
  acc.FinishInto(&summary);
  EXPECT_DOUBLE_EQ(summary.avg_frame_time_ms, 5.0);
  EXPECT_DOUBLE_EQ(summary.var_frame_time, 4.0);  // Population variance.
}

}  // namespace
}  // namespace hdov
