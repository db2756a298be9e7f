#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "mesh/primitives.h"
#include "scene/city_generator.h"
#include "visibility/cubemap_buffer.h"
#include "visibility/dov.h"
#include "visibility/dov_sampling.h"
#include "visibility/precompute.h"

namespace hdov {
namespace {

TEST(CubeMapTest, EmptyBufferSeesNothing) {
  CubeMapBuffer buffer;
  buffer.Reset(Vec3(0, 0, 0));
  EXPECT_DOUBLE_EQ(buffer.TotalCoverage(), 0.0);
}

TEST(CubeMapTest, PixelSolidAnglesSumToSphere) {
  // Rasterize an enclosing box: every pixel is covered, and the per-pixel
  // solid angles must sum to 4 pi.
  CubeMapOptions opt;
  opt.face_resolution = 16;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  buffer.RasterizeBox(Aabb(Vec3(-5, -5, -5), Vec3(5, 5, 5)), 0);
  EXPECT_NEAR(buffer.TotalCoverage(), 1.0, 1e-9);
  EXPECT_NEAR(buffer.SolidAngleOf(0), 4.0 * M_PI, 1e-6);
}

TEST(CubeMapTest, DistantBoxSolidAngleMatchesAnalytic) {
  CubeMapOptions opt;
  opt.face_resolution = 256;  // The quad spans ~13 pixels at this distance.
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  // A 2x2 square at distance 20: exact solid angle of a rectangle with
  // half-widths a = b = 1 at distance d is 4 atan(ab / (d sqrt(a^2 + b^2 +
  // d^2))) = 0.009975 sr.
  buffer.RasterizeTriangle(Vec3(20, -1, -1), Vec3(20, 1, -1), Vec3(20, 1, 1),
                           7);
  buffer.RasterizeTriangle(Vec3(20, -1, -1), Vec3(20, 1, 1), Vec3(20, -1, 1),
                           7);
  const double exact = 0.009975;
  EXPECT_NEAR(buffer.SolidAngleOf(7), exact, 0.2 * exact);
}

TEST(CubeMapTest, NearerItemWinsZBuffer) {
  CubeMapOptions opt;
  opt.face_resolution = 32;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  // Big far wall, small near blocker straight ahead (+x).
  buffer.RasterizeBox(Aabb(Vec3(30, -20, -20), Vec3(32, 20, 20)), 1);
  buffer.RasterizeBox(Aabb(Vec3(10, -2, -2), Vec3(11, 2, 2)), 2);
  double wall = buffer.SolidAngleOf(1);
  double blocker = buffer.SolidAngleOf(2);
  EXPECT_GT(blocker, 0.0);
  EXPECT_GT(wall, 0.0);
  // Rasterization order must not matter.
  CubeMapBuffer buffer2(opt);
  buffer2.Reset(Vec3(0, 0, 0));
  buffer2.RasterizeBox(Aabb(Vec3(10, -2, -2), Vec3(11, 2, 2)), 2);
  buffer2.RasterizeBox(Aabb(Vec3(30, -20, -20), Vec3(32, 20, 20)), 1);
  EXPECT_NEAR(buffer2.SolidAngleOf(1), wall, 1e-9);
  EXPECT_NEAR(buffer2.SolidAngleOf(2), blocker, 1e-9);
}

TEST(CubeMapTest, FullOcclusionGivesZero) {
  CubeMapOptions opt;
  opt.face_resolution = 32;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  // The blocker fully covers the small target behind it (target's angular
  // footprint is a subset of the blocker's).
  buffer.RasterizeBox(Aabb(Vec3(5, -10, -10), Vec3(6, 10, 10)), 1);
  buffer.RasterizeBox(Aabb(Vec3(20, -1, -1), Vec3(21, 1, 1)), 2);
  EXPECT_DOUBLE_EQ(buffer.SolidAngleOf(2), 0.0);
}

TEST(CubeMapTest, AccumulateMatchesPerItemScan) {
  CubeMapOptions opt;
  opt.face_resolution = 24;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  buffer.RasterizeBox(Aabb(Vec3(5, -1, -1), Vec3(6, 1, 1)), 0);
  buffer.RasterizeBox(Aabb(Vec3(-8, -2, -2), Vec3(-7, 2, 2)), 1);
  std::vector<double> angles(2, 0.0);
  buffer.AccumulateSolidAngles(&angles);
  EXPECT_NEAR(angles[0], buffer.SolidAngleOf(0), 1e-12);
  EXPECT_NEAR(angles[1], buffer.SolidAngleOf(1), 1e-12);
}

TEST(CubeMapTest, DuplicateItemsSplitTiesByRounding) {
  // The same box as items 0 and 1 gives equal candidates at every pixel.
  // In id order item 1 overwrites exactly where its candidate rounds down
  // onto the stored float, so on oblique sides both items own pixels.
  CubeMapOptions opt;
  opt.face_resolution = 32;
  const Aabb box(Vec3(4, -3, -2), Vec3(7, 5, 3));
  CubeMapBuffer single(opt);
  single.Reset(Vec3(0.3, 0.1, 0.2));
  single.RasterizeBox(box, 0);
  for (bool reversed : {false, true}) {
    CubeMapBuffer buffer(opt);
    buffer.Reset(single.viewpoint());
    buffer.RasterizeBox(box, reversed ? 1 : 0);
    buffer.RasterizeBox(box, reversed ? 0 : 1);
    std::vector<double> angles(2, 0.0);
    buffer.AccumulateSolidAngles(&angles);
    EXPECT_GT(angles[0], 0.0);
    EXPECT_GT(angles[1], 0.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(angles[0]),
              std::bit_cast<uint64_t>(buffer.SolidAngleOf(0)));
    EXPECT_EQ(std::bit_cast<uint64_t>(angles[1]),
              std::bit_cast<uint64_t>(buffer.SolidAngleOf(1)));
    EXPECT_NEAR(angles[0] + angles[1], single.SolidAngleOf(0), 1e-12);
    EXPECT_EQ(std::bit_cast<uint64_t>(buffer.TotalCoverage()),
              std::bit_cast<uint64_t>(single.TotalCoverage()));
  }
}

TEST(CubeMapTest, SurroundingGeometrySeenOnAllFaces) {
  CubeMapOptions opt;
  opt.face_resolution = 16;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(1, 2, 3));
  // Six separated boxes, one along each axis direction.
  Vec3 center(1, 2, 3);
  int item = 0;
  for (const Vec3& dir :
       {Vec3(1, 0, 0), Vec3(-1, 0, 0), Vec3(0, 1, 0), Vec3(0, -1, 0),
        Vec3(0, 0, 1), Vec3(0, 0, -1)}) {
    Vec3 pos = center + dir * 10.0;
    buffer.RasterizeBox(Aabb(pos - Vec3(1, 1, 1), pos + Vec3(1, 1, 1)),
                        item++);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT(buffer.SolidAngleOf(i), 0.0) << "direction " << i;
  }
}

// ------------------------------------------------- per-pixel z-test

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint64(i)]);
  }
}

struct Candidate {
  double c;
  uint32_t item;
};

struct PixelResult {
  float depth;
  uint32_t owner;
};

// The z-test as a literal replay: candidates in item-id order, a write
// whenever c exceeds the stored float, which then becomes float(c).
PixelResult SequentialReplay(std::vector<Candidate> stream) {
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.item < b.item;
                   });
  PixelResult r{0.0f, kNoItem};
  for (const Candidate& k : stream) {
    if (k.c > r.depth) {
      r.depth = static_cast<float>(k.c);
      r.owner = k.item;
    }
  }
  return r;
}

PixelResult UpdateInStreamOrder(const std::vector<Candidate>& stream) {
  float depth = 0.0f;
  uint32_t lo = kNoItem;
  uint32_t above = kNoItem;
  for (const Candidate& k : stream) {
    UpdatePixel(k.c, k.item, &depth, &lo, &above);
  }
  return {depth, PixelOwner(lo, above)};
}

// UpdatePixel over `stream` in its own order and in `rounds` random
// permutations must give the replay's depth bits and owner.
void ExpectReplayResult(std::vector<Candidate> stream, int rounds, Rng* rng) {
  const PixelResult want = SequentialReplay(stream);
  for (int round = 0; round <= rounds; ++round) {
    const PixelResult got = UpdateInStreamOrder(stream);
    ASSERT_EQ(std::bit_cast<uint32_t>(got.depth),
              std::bit_cast<uint32_t>(want.depth));
    ASSERT_EQ(got.owner, want.owner);
    Shuffle(&stream, rng);
  }
}

// Doubles at and around float `f`: f itself, its neighbours one double
// ulp away (which round to f), the midpoints to the adjacent floats
// (which round to even) and their neighbours.
std::vector<double> AroundFloat(float f) {
  const double x = f;
  const double up = std::nextafter(f, std::numeric_limits<float>::infinity());
  const double down = std::nextafter(f, 0.0f);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {x, std::nextafter(x, inf),
                                std::nextafter(x, 0.0)};
  for (double mid : {(x + up) / 2, (x + down) / 2}) {
    values.insert(values.end(),
                  {mid, std::nextafter(mid, inf), std::nextafter(mid, 0.0)});
  }
  return values;
}

TEST(PixelZTestTest, EmptyPixelHasNoOwner) {
  Rng rng(1);
  ExpectReplayResult({}, 0, &rng);
  EXPECT_EQ(UpdateInStreamOrder({}).owner, kNoItem);
  // Only candidates that never write in id order.
  const std::vector<Candidate> never = {
      {0.0, 2}, {-0.0, 0}, {-1.5, 1}, {std::nan(""), 3}};
  ExpectReplayResult(never, 6, &rng);
  EXPECT_EQ(UpdateInStreamOrder(never).owner, kNoItem);
  EXPECT_EQ(UpdateInStreamOrder(never).depth, 0.0f);
}

TEST(PixelZTestTest, TiesAtOneFloat) {
  const double x = 0.1f;  // Exactly representable.
  const double above = std::nextafter(x, 1.0);
  const double below = std::nextafter(x, 0.0);
  // Exact ties: the lowest id keeps the pixel.
  EXPECT_EQ(UpdateInStreamOrder({{x, 5}, {x, 2}, {x, 7}}).owner, 2u);
  // Candidates rounding down onto the stored float overwrite it, so the
  // highest such id wins.
  EXPECT_EQ(UpdateInStreamOrder({{above, 1}, {x, 0}, {above, 4}}).owner, 4u);
  EXPECT_EQ(UpdateInStreamOrder({{x, 3}, {above, 1}}).owner, 1u);
  // Candidates rounding up onto it never overwrite.
  EXPECT_EQ(UpdateInStreamOrder({{below, 6}, {x, 8}}).owner, 6u);
  EXPECT_EQ(UpdateInStreamOrder({{below, 6}, {below, 2}}).owner, 2u);
  // A nearer float beats every tie.
  EXPECT_EQ(UpdateInStreamOrder({{above, 9}, {0.2, 3}, {x, 1}}).owner, 3u);
}

TEST(PixelZTestTest, MatchesSequentialReplayInAnyOrder) {
  std::vector<double> pool;
  for (float f : {1.0f, 0.1f, 3.5e-3f, 1e6f, 7.0f / 3.0f,
                  std::nextafter(0.1f, 1.0f)}) {
    const std::vector<double> around = AroundFloat(f);
    pool.insert(pool.end(), around.begin(), around.end());
  }
  // Underflow to float zero, the smallest subnormal, and non-candidates.
  pool.insert(pool.end(), {1e-50, 1.4e-45, 0.0, -2.0});
  Rng rng(20031);
  for (int trial = 0; trial < 4000; ++trial) {
    // A few values per stream so that ties are the common case.
    std::vector<double> values;
    const int distinct = rng.UniformInt(1, 4);
    for (int i = 0; i < distinct; ++i) {
      values.push_back(pool[rng.NextUint64(pool.size())]);
    }
    std::vector<Candidate> stream(rng.UniformInt(0, 12));
    for (Candidate& k : stream) {
      k.c = values[rng.NextUint64(values.size())];
      k.item = static_cast<uint32_t>(rng.NextUint64(6));  // Duplicates.
    }
    ExpectReplayResult(stream, 6, &rng);
  }
}

class ScenedDovTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three boxes in a row along +x from the origin viewpoint: near,
    // middle (hidden), far (partially visible above the near one).
    Object near_box;
    near_box.mbr = Aabb(Vec3(10, -5, 0), Vec3(12, 5, 10));
    near_box.lods = LodChain::Proxy(100, LodChainOptions());
    scene_.AddObject(std::move(near_box));

    Object hidden;
    hidden.mbr = Aabb(Vec3(20, -4, 0), Vec3(22, 4, 8));  // Shadow of near.
    hidden.lods = LodChain::Proxy(100, LodChainOptions());
    scene_.AddObject(std::move(hidden));

    Object tall_far;
    tall_far.mbr = Aabb(Vec3(40, -5, 0), Vec3(42, 5, 60));  // Pokes above.
    tall_far.lods = LodChain::Proxy(100, LodChainOptions());
    scene_.AddObject(std::move(tall_far));
  }

  Scene scene_;
};

TEST_F(ScenedDovTest, OcclusionAndRange) {
  DovOptions opt;
  opt.cubemap.face_resolution = 64;
  DovComputer computer(&scene_, opt);
  const std::vector<float>& dov = computer.ComputePointDov(Vec3(0, 0, 5));
  ASSERT_EQ(dov.size(), 3u);
  EXPECT_GT(dov[0], 0.0f);          // Near box visible.
  EXPECT_FLOAT_EQ(dov[1], 0.0f);    // Fully occluded.
  EXPECT_GT(dov[2], 0.0f);          // Tall box pokes above.
  EXPECT_LT(dov[2], dov[0]);        // ... but is less prominent.
  for (float d : dov) {
    EXPECT_GE(d, 0.0f);
    EXPECT_LE(d, 0.5f + 1e-5f);     // MAXDOV bound (outside the MBR).
  }
}

TEST_F(ScenedDovTest, RegionDovIsMaxOverSamples) {
  DovOptions opt;
  opt.cubemap.face_resolution = 32;
  DovComputer computer(&scene_, opt);
  std::vector<Vec3> samples = {Vec3(0, 0, 5), Vec3(0, 10, 5), Vec3(0, -10, 5)};
  std::vector<float> region = computer.ComputeRegionDov(samples);
  for (const Vec3& p : samples) {
    const std::vector<float>& point = computer.ComputePointDov(p);
    for (size_t i = 0; i < region.size(); ++i) {
      EXPECT_GE(region[i] + 1e-7f, point[i]) << "object " << i;
    }
  }
}

TEST_F(ScenedDovTest, RasterizerAgreesWithMonteCarloReference) {
  // Cross-validation: the cube-map item buffer and the ray-sampled
  // estimator implement the same DoV definition and must agree within
  // their combined discretization error.
  DovOptions opt;
  opt.cubemap.face_resolution = 128;
  DovComputer computer(&scene_, opt);
  const Vec3 eye(0, 0, 5);
  const std::vector<float>& raster = computer.ComputePointDov(eye);

  SamplingDovOptions sopt;
  sopt.num_rays = 200000;
  std::vector<float> sampled = ComputePointDovSampled(scene_, eye, sopt);

  ASSERT_EQ(raster.size(), sampled.size());
  for (size_t i = 0; i < raster.size(); ++i) {
    EXPECT_NEAR(raster[i], sampled[i],
                0.1 * std::max(raster[i], sampled[i]) + 0.001)
        << "object " << i;
  }
}

TEST(CubeMapTest, CoverageEqualsSumOfItemAngles) {
  // Property: the total covered solid angle is exactly the sum of every
  // item's visible solid angle (pixels are partitioned among items).
  Rng rng(91);
  CubeMapOptions opt;
  opt.face_resolution = 24;
  CubeMapBuffer buffer(opt);
  buffer.Reset(Vec3(0, 0, 0));
  const uint32_t kItems = 40;
  for (uint32_t item = 0; item < kItems; ++item) {
    Vec3 center(rng.Uniform(-60, 60), rng.Uniform(-60, 60),
                rng.Uniform(-60, 60));
    if (center.Length() < 5.0) {
      center = center + Vec3(10, 10, 10);
    }
    Vec3 half(rng.Uniform(1, 6), rng.Uniform(1, 6), rng.Uniform(1, 6));
    buffer.RasterizeBox(Aabb(center - half, center + half), item);
  }
  std::vector<double> angles(kItems, 0.0);
  double total = buffer.AccumulateSolidAngles(&angles);
  double sum = 0.0;
  for (double a : angles) {
    sum += a;
  }
  EXPECT_NEAR(total, sum, 1e-9);
  EXPECT_NEAR(buffer.TotalCoverage(), total / (4.0 * M_PI), 1e-12);
}

TEST(CubeMapTest, DeterministicAcrossRuns) {
  CubeMapOptions opt;
  opt.face_resolution = 20;
  auto render = [&] {
    CubeMapBuffer buffer(opt);
    buffer.Reset(Vec3(1, 2, 3));
    buffer.RasterizeBox(Aabb(Vec3(10, -3, -3), Vec3(12, 3, 3)), 1);
    buffer.RasterizeBox(Aabb(Vec3(-9, -2, 0), Vec3(-7, 2, 8)), 2);
    return std::make_pair(buffer.SolidAngleOf(1), buffer.SolidAngleOf(2));
  };
  auto a = render();
  auto b = render();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SamplingDovTest, HitFractionsSumBelowOne) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 3;
  copt.blocks_y = 3;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  Vec3 eye = city->bounds().Center();
  eye.z = 1.7;
  SamplingDovOptions sopt;
  sopt.num_rays = 20000;
  std::vector<float> dov = ComputePointDovSampled(*city, eye, sopt);
  double total = 0.0;
  for (float d : dov) {
    total += d;
  }
  EXPECT_LE(total, 1.0 + 1e-6);  // A partition of the sphere at most.
  EXPECT_GT(total, 0.0);
}

TEST(PrecomputeTest, CityVisibilityIsPlausible) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 3;
  copt.blocks_y = 3;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());

  CellGridOptions gopt;
  gopt.cells_x = 3;
  gopt.cells_y = 3;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());

  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 24;
  popt.samples_per_cell = 1;
  Result<VisibilityTable> table = PrecomputeVisibility(*city, *grid, popt);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_cells(), 9u);

  // Every cell should see something, but occlusion should hide a part of
  // the city from most cells.
  size_t cells_with_hidden = 0;
  for (CellId c = 0; c < table->num_cells(); ++c) {
    const CellVisibility& cell = table->cell(c);
    EXPECT_GT(cell.num_visible(), 0u) << "cell " << c;
    EXPECT_LE(cell.num_visible(), city->size());
    if (cell.num_visible() < city->size()) {
      ++cells_with_hidden;
    }
    // Sorted ids and positive DoVs.
    for (size_t i = 0; i < cell.ids.size(); ++i) {
      EXPECT_GT(cell.dov[i], 0.0f);
      if (i > 0) {
        EXPECT_LT(cell.ids[i - 1], cell.ids[i]);
      }
    }
  }
  EXPECT_GT(cells_with_hidden, 0u);
  EXPECT_GT(table->AverageVisibleObjects(), 0.0);
}

TEST(PrecomputeTest, MoreSamplesNeverShrinkVisibility) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 2;
  gopt.cells_y = 2;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());

  PrecomputeOptions p1;
  p1.dov.cubemap.face_resolution = 24;
  p1.samples_per_cell = 1;
  PrecomputeOptions p5 = p1;
  p5.samples_per_cell = 5;
  Result<VisibilityTable> t1 = PrecomputeVisibility(*city, *grid, p1);
  Result<VisibilityTable> t5 = PrecomputeVisibility(*city, *grid, p5);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t5.ok());
  for (CellId c = 0; c < t1->num_cells(); ++c) {
    // Eq. 2 is a max over samples: more samples -> more conservative.
    for (size_t i = 0; i < t1->cell(c).ids.size(); ++i) {
      ObjectId id = t1->cell(c).ids[i];
      EXPECT_GE(t5->cell(c).DovOf(id) + 1e-7f, t1->cell(c).dov[i]);
    }
  }
}

TEST(PrecomputeTest, ProgressCallbackRuns) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 2;
  gopt.cells_y = 2;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 16;
  popt.samples_per_cell = 1;
  uint32_t calls = 0;
  ASSERT_TRUE(PrecomputeVisibility(*city, *grid, popt,
                                   [&](uint32_t done, uint32_t total) {
                                     ++calls;
                                     EXPECT_LE(done, total);
                                   })
                  .ok());
  EXPECT_EQ(calls, 4u);
}

Object ProxyBox(const Aabb& mbr) {
  Object obj;
  obj.mbr = mbr;
  obj.lods = LodChain::Proxy(100, LodChainOptions());
  return obj;
}

TEST(PushOutOfObjectsTest, OutsidePointIsUntouched) {
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, 0, 0), Vec3(10, 10, 10))));
  const Vec3 p(20, 5, 5);
  EXPECT_TRUE(PushOutOfObjects(scene, p) == p);
}

TEST(PushOutOfObjectsTest, InsideSingleBoxExitsNearestFace) {
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, 0, 0), Vec3(10, 10, 10))));
  // (1, 5, 5): min-x is the shallowest face (depth 1), so the point exits
  // through it with the 0.05 clearance. z never changes (an eye-height
  // viewpoint cannot step over a building).
  const Vec3 out = PushOutOfObjects(scene, Vec3(1, 5, 5));
  EXPECT_NEAR(out.x, -0.05, 1e-12);
  EXPECT_DOUBLE_EQ(out.y, 5);
  EXPECT_DOUBLE_EQ(out.z, 5);
  EXPECT_FALSE(scene.objects()[0].mbr.Contains(out));
}

TEST(PushOutOfObjectsTest, OverlappingBoxesEscapeBoth) {
  // Exiting A through min-x lands inside B; the second round must then
  // escape B too (here through min-y).
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, 0, 0), Vec3(10, 2, 10))));   // A
  scene.AddObject(ProxyBox(Aabb(Vec3(-5, 0, 0), Vec3(1, 2, 10))));   // B
  const Vec3 out = PushOutOfObjects(scene, Vec3(0.5, 0.5, 1));
  for (const Object& obj : scene.objects()) {
    EXPECT_FALSE(obj.mbr.Contains(out));
  }
}

TEST(PushOutOfObjectsTest, PathologicalOverlapTerminates) {
  // A and B overlap on a thin x sliver and both span a huge y range, so
  // the min-penetration exit of each box lands inside the other: A pushes
  // the point to x = -0.05 (inside B), B pushes it to x = 0.09 (inside A),
  // forever. The 4-round cap must give up and return a point rather than
  // loop; the result is still inside one of the boxes.
  Scene scene;
  scene.AddObject(ProxyBox(Aabb(Vec3(0, -100, 0), Vec3(1, 100, 10))));
  scene.AddObject(ProxyBox(Aabb(Vec3(-10, -100, 0), Vec3(0.04, 100, 10))));
  const Vec3 out = PushOutOfObjects(scene, Vec3(0.5, 0, 5));
  bool inside_any = false;
  for (const Object& obj : scene.objects()) {
    inside_any = inside_any || obj.mbr.Contains(out);
  }
  EXPECT_TRUE(inside_any);  // Gave up, by design, instead of iterating on.
}

TEST(PrecomputeTest, ParallelMatchesSequentialBitExact) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 4;
  copt.blocks_y = 4;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 5;  // 25 cells over (up to) 5 slots: uneven distribution.
  gopt.cells_y = 5;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());

  PrecomputeOptions seq;
  seq.dov.cubemap.face_resolution = 24;
  seq.samples_per_cell = 2;
  seq.threads = 1;
  PrecomputeOptions par = seq;
  par.threads = 4;

  Result<VisibilityTable> t_seq = PrecomputeVisibility(*city, *grid, seq);
  Result<VisibilityTable> t_par = PrecomputeVisibility(*city, *grid, par);
  ASSERT_TRUE(t_seq.ok());
  ASSERT_TRUE(t_par.ok());
  ASSERT_EQ(t_seq->num_cells(), t_par->num_cells());
  for (CellId c = 0; c < t_seq->num_cells(); ++c) {
    // Bit-identical, not approximately equal: each cell's DoV depends only
    // on that cell, so the parallel schedule must not change a single ulp.
    EXPECT_EQ(t_seq->cell(c).ids, t_par->cell(c).ids) << "cell " << c;
    EXPECT_EQ(t_seq->cell(c).dov, t_par->cell(c).dov) << "cell " << c;
  }
}

TEST(PrecomputeTest, ThreadedProgressIsSerializedAndMonotonic) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 2;
  copt.blocks_y = 2;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = 4;
  gopt.cells_y = 4;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 16;
  popt.samples_per_cell = 1;
  popt.threads = 4;
  // The callback contract holds under threading: calls are serialized and
  // `done` counts up 1..total with no duplicates or gaps.
  uint32_t last = 0;
  ASSERT_TRUE(PrecomputeVisibility(*city, *grid, popt,
                                   [&](uint32_t done, uint32_t total) {
                                     EXPECT_EQ(done, last + 1);
                                     EXPECT_EQ(total, 16u);
                                     last = done;
                                   })
                  .ok());
  EXPECT_EQ(last, 16u);
}

// ---------------------------------------------------------------------------
// Exactness of the occlusion-culled DovComputer against the brute force:
// every occluder triangle onto all six cube faces, in id order. Equality is
// bit for bit, not approximate.

const TriangleMesh* OccluderMesh(const Object& obj, const DovOptions& opt) {
  if (opt.geometry != OccluderGeometry::kMeshLod || obj.lods.empty() ||
      obj.lods.finest().mesh.empty()) {
    return nullptr;
  }
  return &obj.lods
              .level(std::min(opt.occluder_lod_level,
                              obj.lods.num_levels() - 1))
              .mesh;
}

std::vector<float> BruteForcePointDov(const Scene& scene,
                                      const DovOptions& opt, const Vec3& p) {
  CubeMapBuffer buffer(opt.cubemap);
  buffer.Reset(p);
  for (const Object& obj : scene.objects()) {
    if (const TriangleMesh* mesh = OccluderMesh(obj, opt)) {
      for (size_t t = 0; t < mesh->triangle_count(); ++t) {
        auto [a, b, c] = mesh->TriangleVertices(t);
        buffer.RasterizeTriangle(a, b, c, obj.id);
      }
    } else {
      buffer.RasterizeBox(obj.mbr, obj.id);
    }
  }
  std::vector<double> angles(scene.size(), 0.0);
  buffer.AccumulateSolidAngles(&angles);
  std::vector<float> dov(scene.size());
  for (size_t i = 0; i < dov.size(); ++i) {
    dov[i] = static_cast<float>(angles[i] * (1.0 / (4.0 * M_PI)));
  }
  return dov;
}

CellVisibility BruteForceCell(const Scene& scene, const CellGrid& grid,
                              CellId c, const PrecomputeOptions& opt) {
  std::vector<float> region(scene.size(), 0.0f);
  for (Vec3 p : CellSamples(grid, c, opt.samples_per_cell)) {
    if (opt.avoid_object_interiors) {
      p = PushOutOfObjects(scene, p);
    }
    const std::vector<float> point = BruteForcePointDov(scene, opt.dov, p);
    for (size_t i = 0; i < region.size(); ++i) {
      region[i] = std::max(region[i], point[i]);
    }
  }
  CellVisibility cell;
  for (ObjectId id = 0; id < region.size(); ++id) {
    if (region[id] > 0.0f) {
      cell.ids.push_back(id);
      cell.dov.push_back(region[id]);
    }
  }
  return cell;
}

std::vector<uint32_t> Bits(const std::vector<float>& values) {
  std::vector<uint32_t> bits(values.size());
  std::transform(values.begin(), values.end(), bits.begin(),
                 [](float v) { return std::bit_cast<uint32_t>(v); });
  return bits;
}

void ExpectPointDovExact(const Scene& scene, const DovOptions& opt,
                         const std::vector<Vec3>& viewpoints) {
  DovComputer computer(&scene, opt);
  for (const Vec3& p : viewpoints) {
    const std::vector<float> expected = BruteForcePointDov(scene, opt, p);
    EXPECT_EQ(Bits(computer.ComputePointDov(p)), Bits(expected))
        << "viewpoint " << p.x << " " << p.y << " " << p.z;
  }
}

void ExpectTableExact(const Scene& scene, const CellGrid& grid,
                      const PrecomputeOptions& opt) {
  Result<VisibilityTable> table = PrecomputeVisibility(scene, grid, opt);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_cells(), grid.num_cells());
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    const CellVisibility expected = BruteForceCell(scene, grid, c, opt);
    EXPECT_EQ(table->cell(c).ids, expected.ids) << "cell " << c;
    EXPECT_EQ(Bits(table->cell(c).dov), Bits(expected.dov)) << "cell " << c;
  }
}

Scene SceneOf(const std::vector<Aabb>& boxes) {
  Scene scene;
  for (const Aabb& box : boxes) {
    scene.AddObject(ProxyBox(box));
  }
  return scene;
}

DovOptions FacesOf(int resolution) {
  DovOptions opt;
  opt.cubemap.face_resolution = resolution;
  return opt;
}

TEST(PrecomputeExactnessTest, ViewpointInsideBox) {
  // Eyes inside object 1, on its floor, on a face and on a corner. Its
  // walls hide the far boxes; object 2, which overlaps it, can still show
  // in front of them.
  const Scene scene = SceneOf({
      Aabb(Vec3(-30, -3, 0), Vec3(-20, 3, 9)),
      Aabb(Vec3(-2, -2, 0), Vec3(2, 2, 6)),
      Aabb(Vec3(1, -1, 1), Vec3(8, 1, 3)),  // Overlaps object 1.
      Aabb(Vec3(15, -5, 0), Vec3(18, 5, 20)),
      Aabb(Vec3(-5, 25, 0), Vec3(5, 28, 40)),
  });
  for (int res : {16, 64}) {
    ExpectPointDovExact(scene, FacesOf(res),
                        {Vec3(0, 0, 1.7), Vec3(1.5, 0.5, 2), Vec3(2, 0, 2),
                         Vec3(0, 0, 0), Vec3(-2, -2, 6)});
  }

  // The same through PrecomputeVisibility, with the nudge off so that the
  // cell samples stay inside the boxes.
  CellGridOptions gopt;
  gopt.cells_x = 3;
  gopt.cells_y = 3;
  Result<CellGrid> grid = CellGrid::Build(scene.bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov = FacesOf(32);
  popt.samples_per_cell = 9;
  popt.avoid_object_interiors = false;
  ExpectTableExact(scene, *grid, popt);
}

TEST(PrecomputeExactnessTest, BoxesStraddlingFaceAndEyePlanes) {
  // Eye at the origin. Cube faces meet on the planes |x| = |y| etc., and
  // the eye plane is z = 0: these boxes cross those planes, lie exactly on
  // them, or touch them with one side.
  const Scene scene = SceneOf({
      Aabb(Vec3(5, 4, -1), Vec3(7, 6, 1)),      // Across x = y and z = 0.
      Aabb(Vec3(10, 10, 0), Vec3(11, 11, 5)),   // Diagonal, floor at z = 0.
      Aabb(Vec3(-9, -3, -4), Vec3(-8, 3, 0)),   // Roof at z = 0.
      Aabb(Vec3(3, -3, -3), Vec3(4, 3, 3)),     // Edges on x = |y| = |z|.
      Aabb(Vec3(-6, 6, 6), Vec3(-5, 7, 7)),     // Off on a cube corner ray.
      Aabb(Vec3(0, 12, -2), Vec3(4, 13, 2)),    // Side at x = 0.
      Aabb(Vec3(20, -30, -1), Vec3(21, 30, 1)),  // Spans three faces.
      Aabb(Vec3(-1, -1, -40), Vec3(1, 1, -30)),  // Straight down.
  });
  for (int res : {16, 32, 128}) {
    ExpectPointDovExact(scene, FacesOf(res),
                        {Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0.5, 0.5, 0),
                         Vec3(1e-9, -1e-9, 1e-9)});
  }
}

TEST(PrecomputeExactnessTest, CoplanarTouchingBoxesTieExactly) {
  // Rows of boxes sharing whole sides, stacked boxes sharing a roof and a
  // floor, and a duplicate box: equal inverse depths at many pixels, where
  // the first-drawn-wins rule decides the owner.
  std::vector<Aabb> boxes;
  for (int i = 0; i < 6; ++i) {
    boxes.emplace_back(Vec3(10 + 2 * i, -4, 0), Vec3(12 + 2 * i, 4, 6));
    boxes.emplace_back(Vec3(-8, 4 * i, 0), Vec3(-6, 4 * i + 4, 3 + i));
  }
  boxes.emplace_back(Vec3(-3, -20, 0), Vec3(3, -18, 4));
  boxes.emplace_back(Vec3(-3, -20, 4), Vec3(3, -18, 8));
  boxes.emplace_back(Vec3(-3, -20, 0), Vec3(3, -18, 4));  // Duplicate.
  boxes.emplace_back(Vec3(-3, -21, 0), Vec3(3, -20, 8));  // Shares y = -20.
  // Coplanar fronts at x = -30: the slab is farther by MBR distance but
  // has the lower id, so near-to-far and id order disagree on the tie.
  boxes.emplace_back(Vec3(-40, -6, 0), Vec3(-30, 6, 1));
  boxes.emplace_back(Vec3(-31, -2, 0), Vec3(-30, 2, 4));
  const Scene scene = SceneOf(boxes);
  for (int res : {16, 64}) {
    ExpectPointDovExact(scene, FacesOf(res),
                        {Vec3(0, 0, 1.7), Vec3(0, 0, 4), Vec3(-7, -5, 3),
                         Vec3(11, 0, 10), Vec3(-20, 0, 1.7),
                         Vec3(-20, 3, 0.5)});
  }
}

TEST(PrecomputeExactnessTest, ZeroThicknessAndEmptyBoxes) {
  const Scene scene = SceneOf({
      Aabb(Vec3(8, -5, 0), Vec3(8, 5, 10)),     // Wall of zero thickness.
      Aabb(Vec3(20, -10, 0), Vec3(22, 10, 20)),  // Behind the wall.
      Aabb(),                                    // Empty.
      Aabb(Vec3(-5, -5, 3), Vec3(5, 5, 3)),     // Zero-height slab.
      Aabb(Vec3(3, 3, 3), Vec3(3, 3, 3)),       // A point.
      Aabb(Vec3(-9, 2, 0), Vec3(-9, 2, 8)),     // A segment.
      Aabb(Vec3(1, 1, 1), Vec3(-1, -1, -1)),    // Inverted (empty).
      Aabb(Vec3(-20, -4, 0), Vec3(-18, 4, 12)),
  });
  for (int res : {16, 64}) {
    ExpectPointDovExact(scene, FacesOf(res),
                        {Vec3(0, 0, 1.7), Vec3(0, 0, 3), Vec3(8, 0, 5),
                         Vec3(3, 3, 3)});
  }
}

TEST(PrecomputeExactnessTest, MeshLodOutsideMbr) {
  // kMeshLod rasterizes the coarsest LoD. Here that LoD pokes far outside
  // the object's MBR, so culling by the MBR would lose pixels.
  Scene scene;
  for (int i = 0; i < 4; ++i) {
    const Vec3 lo(12.0 + 10 * i, -3, 0);
    const Vec3 hi(14.0 + 10 * i, 3, 6 + 2 * i);
    LodLevel fine;
    fine.mesh = MakeBox(lo, hi);
    fine.triangle_count = static_cast<uint32_t>(fine.mesh.triangle_count());
    LodLevel coarse;
    const double reach = 4.0 + 6 * i;  // Spills above and sideways.
    coarse.mesh.AddVertex(Vec3(lo.x, lo.y - reach, lo.z));
    coarse.mesh.AddVertex(Vec3(lo.x, hi.y + reach, lo.z));
    coarse.mesh.AddVertex(Vec3(lo.x, 0, hi.z + reach));
    coarse.mesh.AddTriangle(0, 1, 2);
    coarse.triangle_count = 1;
    std::vector<LodLevel> levels;
    levels.push_back(std::move(fine));
    levels.push_back(std::move(coarse));
    Result<LodChain> chain = LodChain::FromLevels(std::move(levels));
    ASSERT_TRUE(chain.ok());
    Object obj;
    obj.mbr = Aabb(lo, hi);
    obj.lods = std::move(*chain);
    scene.AddObject(std::move(obj));
  }
  scene.AddObject(ProxyBox(Aabb(Vec3(70, -40, 0), Vec3(72, 40, 60))));
  DovOptions opt = FacesOf(64);
  opt.geometry = OccluderGeometry::kMeshLod;
  ExpectPointDovExact(scene, opt,
                      {Vec3(0, 0, 1.7), Vec3(0, 8, 1.7), Vec3(30, 0, 20)});
  opt.occluder_lod_level = 0;  // The finest level: the MBR box itself.
  ExpectPointDovExact(scene, opt, {Vec3(0, 0, 1.7), Vec3(0, 8, 1.7)});
}

// The boxes of CoplanarTouchingBoxesTieExactly: exact depth ties at many
// pixels, and a duplicate box.
std::vector<Aabb> CoplanarTouchingBoxes() {
  std::vector<Aabb> boxes;
  for (int i = 0; i < 6; ++i) {
    boxes.emplace_back(Vec3(10 + 2 * i, -4, 0), Vec3(12 + 2 * i, 4, 6));
    boxes.emplace_back(Vec3(-8, 4 * i, 0), Vec3(-6, 4 * i + 4, 3 + i));
  }
  boxes.emplace_back(Vec3(-3, -20, 0), Vec3(3, -18, 4));
  boxes.emplace_back(Vec3(-3, -20, 4), Vec3(3, -18, 8));
  boxes.emplace_back(Vec3(-3, -20, 0), Vec3(3, -18, 4));
  boxes.emplace_back(Vec3(-3, -21, 0), Vec3(3, -20, 8));
  boxes.emplace_back(Vec3(-40, -6, 0), Vec3(-30, 6, 1));
  boxes.emplace_back(Vec3(-31, -2, 0), Vec3(-30, 2, 4));
  return boxes;
}

TEST(CubeMapDrawOrderTest, TiedBoxesGiveTheSameBufferInAnyOrder) {
  const std::vector<Aabb> boxes = CoplanarTouchingBoxes();
  const uint32_t n = static_cast<uint32_t>(boxes.size());
  Rng rng(7);
  for (int res : {16, 64}) {
    CubeMapOptions opt;
    opt.face_resolution = res;
    for (const Vec3& p : {Vec3(0, 0, 1.7), Vec3(0, 0, 4), Vec3(-7, -5, 3),
                          Vec3(11, 0, 10), Vec3(-20, 0, 1.7),
                          Vec3(-20, 3, 0.5)}) {
      CubeMapBuffer id_order(opt);
      id_order.Reset(p);
      for (uint32_t i = 0; i < n; ++i) {
        id_order.RasterizeBox(boxes[i], i);
      }
      std::vector<uint32_t> order(n);
      for (uint32_t i = 0; i < n; ++i) {
        order[i] = n - 1 - i;  // Reverse id order first.
      }
      for (int round = 0; round < 6; ++round) {
        CubeMapBuffer shuffled(opt);
        shuffled.Reset(p);
        for (uint32_t i : order) {
          shuffled.RasterizeBox(boxes[i], i);
        }
        for (uint32_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(shuffled.SolidAngleOf(i)),
                    std::bit_cast<uint64_t>(id_order.SolidAngleOf(i)))
              << "item " << i << " res " << res << " round " << round;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(shuffled.TotalCoverage()),
                  std::bit_cast<uint64_t>(id_order.TotalCoverage()));
        Shuffle(&order, &rng);
      }
    }
  }
}

// Differential sweep over city worlds. `cell_stride` > 1 checks every
// stride-th cell of the grid through DovComputer::ComputeRegionDov (the
// large preset is too slow to brute-force whole); otherwise the whole
// table goes through PrecomputeVisibility on `threads` workers.
struct SweepConfig {
  int blocks;
  int cells;
  int face_resolution;
  int samples;
  uint32_t threads;
  uint32_t cell_stride;
};

class PrecomputeDifferentialTest
    : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(PrecomputeDifferentialTest, MatchesBruteForceBitForBit) {
  const SweepConfig& cfg = GetParam();
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = cfg.blocks;
  copt.blocks_y = cfg.blocks;
  Result<Scene> city = GenerateCity(copt);
  ASSERT_TRUE(city.ok());
  CellGridOptions gopt;
  gopt.cells_x = cfg.cells;
  gopt.cells_y = cfg.cells;
  Result<CellGrid> grid = CellGrid::Build(city->bounds(), gopt);
  ASSERT_TRUE(grid.ok());
  PrecomputeOptions popt;
  popt.dov = FacesOf(cfg.face_resolution);
  popt.samples_per_cell = cfg.samples;
  popt.threads = cfg.threads;
  if (cfg.cell_stride <= 1) {
    ExpectTableExact(*city, *grid, popt);
    return;
  }
  DovComputer computer(&*city, popt.dov);
  for (CellId c = 0; c < grid->num_cells(); c += cfg.cell_stride) {
    std::vector<Vec3> samples = CellSamples(*grid, c, cfg.samples);
    for (Vec3& p : samples) {
      p = PushOutOfObjects(*city, p);
    }
    const CellVisibility expected = BruteForceCell(*city, *grid, c, popt);
    const std::vector<float> region = computer.ComputeRegionDov(samples);
    std::vector<float> dense(city->size(), 0.0f);
    for (size_t i = 0; i < expected.ids.size(); ++i) {
      dense[expected.ids[i]] = expected.dov[i];
    }
    EXPECT_EQ(Bits(region), Bits(dense)) << "cell " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrecomputeDifferentialTest,
    ::testing::Values(
        // blocks, cells, faces, samples, threads, stride
        SweepConfig{4, 4, 16, 1, 1, 1}, SweepConfig{4, 4, 32, 5, 4, 1},
        SweepConfig{4, 5, 64, 9, 1, 1}, SweepConfig{4, 4, 128, 5, 4, 1},
        SweepConfig{8, 4, 16, 9, 4, 1}, SweepConfig{8, 4, 32, 1, 1, 1},
        SweepConfig{8, 4, 64, 5, 4, 1}, SweepConfig{8, 3, 128, 1, 1, 1},
        // The large preset: 20 x 20 blocks, 24 x 24 cells.
        SweepConfig{20, 24, 64, 5, 1, 47}, SweepConfig{20, 24, 32, 9, 1, 89},
        SweepConfig{20, 24, 128, 1, 1, 71}, SweepConfig{20, 24, 16, 5, 1, 97}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      const SweepConfig& c = info.param;
      return "blocks" + std::to_string(c.blocks) + "_faces" +
             std::to_string(c.face_resolution) + "_samples" +
             std::to_string(c.samples) + "_threads" +
             std::to_string(c.threads) + "_stride" +
             std::to_string(c.cell_stride);
    });

// ------------------------------------------------- frozen raster kernel

// Cube-face bases (forward, right, up), as the buffer orders them.
struct FaceBasis {
  Vec3 forward, right, up;
};
constexpr FaceBasis kFaceBases[6] = {
    {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},   {{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}},
    {{0, 1, 0}, {-1, 0, 0}, {0, 0, 1}},  {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}},
    {{0, 0, 1}, {1, 0, 0}, {0, 1, 0}},   {{0, 0, -1}, {1, 0, 0}, {0, -1, 0}}};

// CubeMapBuffer's raster kernel as it stood before its fast path: pixel
// centres computed per pixel, every clip loop run in full, box sides in a
// fixed order. Frozen here as the oracle for the live kernel, which must
// leave every pixel's inverse depth and owner bit-identical to it. Keep it
// as it is; the z-test itself (UpdatePixel) is shared.
class FrozenCubeMap {
 public:
  FrozenCubeMap(int res, const Vec3& viewpoint)
      : res_(res),
        viewpoint_(viewpoint),
        inv_depth_(static_cast<size_t>(6) * res * res, 0.0f),
        lo_(inv_depth_.size(), kNoItem),
        above_(inv_depth_.size(), kNoItem) {}

  float depth(int face, int i, int j) const {
    return inv_depth_[Index(face, i, j)];
  }
  uint32_t owner(int face, int i, int j) const {
    const size_t p = Index(face, i, j);
    return PixelOwner(lo_[p], above_[p]);
  }

  void RasterizeTriangle(const Vec3& a, const Vec3& b, const Vec3& c,
                         uint32_t item, uint8_t faces = kAllCubeFaces) {
    const Vec3 cam[3] = {a - viewpoint_, b - viewpoint_, c - viewpoint_};
    Vec3 buf_a[16];
    Vec3 buf_b[16];
    for (int face = 0; face < 6; ++face) {
      if ((faces & (1u << face)) == 0) {
        continue;
      }
      const FaceBasis& f = kFaceBases[face];
      if (f.forward.Dot(cam[0]) <= 0.0 && f.forward.Dot(cam[1]) <= 0.0 &&
          f.forward.Dot(cam[2]) <= 0.0) {
        continue;
      }
      buf_a[0] = cam[0];
      buf_a[1] = cam[1];
      buf_a[2] = cam[2];
      int n = 3;
      n = ClipAgainstPlane(buf_a, n, f.forward, 1e-6, buf_b);
      if (n < 3) continue;
      const Vec3 fs = f.forward * (1.0 + 1e-9);
      n = ClipAgainstPlane(buf_b, n, fs - f.right, 0.0, buf_a);
      if (n < 3) continue;
      n = ClipAgainstPlane(buf_a, n, fs + f.right, 0.0, buf_b);
      if (n < 3) continue;
      n = ClipAgainstPlane(buf_b, n, fs - f.up, 0.0, buf_a);
      if (n < 3) continue;
      n = ClipAgainstPlane(buf_a, n, fs + f.up, 0.0, buf_b);
      if (n < 3) continue;
      RasterizeOnFace(face, buf_b, n, item);
    }
  }

  void RasterizeBox(const Aabb& box, uint32_t item,
                    uint8_t faces = kAllCubeFaces) {
    if (box.IsEmpty()) {
      return;
    }
    Vec3 c[8];
    for (int i = 0; i < 8; ++i) {
      c[i] = box.Corner(i);
    }
    static constexpr int kQuads[6][4] = {{0, 2, 3, 1}, {4, 5, 7, 6},
                                         {0, 1, 5, 4}, {2, 6, 7, 3},
                                         {0, 4, 6, 2}, {1, 3, 7, 5}};
    for (const int* v : kQuads) {
      RasterizeTriangle(c[v[0]], c[v[1]], c[v[2]], item, faces);
      RasterizeTriangle(c[v[0]], c[v[2]], c[v[3]], item, faces);
    }
  }

 private:
  size_t Index(int face, int i, int j) const {
    return (static_cast<size_t>(face) * res_ + j) * res_ + i;
  }

  static int ClipAgainstPlane(const Vec3* in, int n_in, const Vec3& n,
                              double offset, Vec3* out) {
    int n_out = 0;
    for (int i = 0; i < n_in; ++i) {
      const Vec3& a = in[i];
      const Vec3& b = in[(i + 1) % n_in];
      const double da = n.Dot(a) - offset;
      const double db = n.Dot(b) - offset;
      if (da >= 0.0) {
        out[n_out++] = a;
      }
      if ((da >= 0.0) != (db >= 0.0)) {
        double t = da / (da - db);
        out[n_out++] = a + (b - a) * t;
      }
    }
    return n_out;
  }

  void RasterizeOnFace(int face, const Vec3* poly, int n, uint32_t item) {
    const FaceBasis& f = kFaceBases[face];
    double u[16];
    double v[16];
    double w[16];
    for (int i = 0; i < n; ++i) {
      const double depth = f.forward.Dot(poly[i]);
      const double inv = 1.0 / depth;
      u[i] = f.right.Dot(poly[i]) * inv;
      v[i] = f.up.Dot(poly[i]) * inv;
      w[i] = inv;
    }
    const size_t face_offset = static_cast<size_t>(face) * res_ * res_;
    float* face_depth = inv_depth_.data() + face_offset;
    uint32_t* face_lo = lo_.data() + face_offset;
    uint32_t* face_above = above_.data() + face_offset;
    for (int k = 1; k + 1 < n; ++k) {
      const double ux[3] = {u[0], u[k], u[k + 1]};
      const double vy[3] = {v[0], v[k], v[k + 1]};
      const double ws[3] = {w[0], w[k], w[k + 1]};
      double min_u = std::min({ux[0], ux[1], ux[2]});
      double max_u = std::max({ux[0], ux[1], ux[2]});
      double min_v = std::min({vy[0], vy[1], vy[2]});
      double max_v = std::max({vy[0], vy[1], vy[2]});
      int i0 = std::max(0, static_cast<int>((min_u + 1.0) * 0.5 * res_));
      int i1 = std::min(res_ - 1,
                        static_cast<int>((max_u + 1.0) * 0.5 * res_));
      int j0 = std::max(0, static_cast<int>((min_v + 1.0) * 0.5 * res_));
      int j1 = std::min(res_ - 1,
                        static_cast<int>((max_v + 1.0) * 0.5 * res_));
      if (i0 > i1 || j0 > j1) {
        continue;
      }
      const double area = (ux[1] - ux[0]) * (vy[2] - vy[0]) -
                          (ux[2] - ux[0]) * (vy[1] - vy[0]);
      if (std::fabs(area) < 1e-18) {
        continue;
      }
      const double inv_area = 1.0 / area;
      for (int j = j0; j <= j1; ++j) {
        const double py = 2.0 * (j + 0.5) / res_ - 1.0;
        for (int i = i0; i <= i1; ++i) {
          const double px = 2.0 * (i + 0.5) / res_ - 1.0;
          const double w0 = ((ux[1] - px) * (vy[2] - py) -
                             (ux[2] - px) * (vy[1] - py)) *
                            inv_area;
          const double w1 = ((ux[2] - px) * (vy[0] - py) -
                             (ux[0] - px) * (vy[2] - py)) *
                            inv_area;
          const double w2 = 1.0 - w0 - w1;
          if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) {
            continue;
          }
          const double inv_depth = w0 * ws[0] + w1 * ws[1] + w2 * ws[2];
          const size_t pixel = static_cast<size_t>(j) * res_ + i;
          UpdatePixel(inv_depth, item, &face_depth[pixel], &face_lo[pixel],
                      &face_above[pixel]);
        }
      }
    }
  }

  int res_;
  Vec3 viewpoint_;
  std::vector<float> inv_depth_;
  std::vector<uint32_t> lo_;
  std::vector<uint32_t> above_;
};

// Runs `draw` on a live buffer and on the frozen one, both at `viewpoint`,
// and expects every pixel's inverse-depth bits and owner to agree. Returns
// the number of covered pixels, so callers can check the case drew.
template <typename DrawFn>
int ExpectMatchesFrozenKernel(int res, const Vec3& viewpoint, DrawFn draw,
                              const std::string& what) {
  CubeMapOptions opt;
  opt.face_resolution = res;
  CubeMapBuffer live(opt);
  live.Reset(viewpoint);
  FrozenCubeMap frozen(res, viewpoint);
  draw(live);
  draw(frozen);
  int covered = 0;
  int mismatches = 0;
  for (int face = 0; face < 6; ++face) {
    for (int j = 0; j < res; ++j) {
      for (int i = 0; i < res; ++i) {
        const float got = live.PixelInverseDepth(face, i, j);
        const float want = frozen.depth(face, i, j);
        const uint32_t owner = frozen.owner(face, i, j);
        covered += owner != kNoItem;
        if (std::bit_cast<uint32_t>(got) != std::bit_cast<uint32_t>(want) ||
            live.PixelItem(face, i, j) != owner) {
          if (++mismatches <= 3) {
            ADD_FAILURE() << what << ": face " << face << " pixel (" << i
                          << ", " << j << ") depth " << got << " vs " << want
                          << ", owner " << live.PixelItem(face, i, j)
                          << " vs " << owner;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
  return covered;
}

struct Tri {
  Vec3 a, b, c;
  uint32_t item;
  uint8_t faces = kAllCubeFaces;
};

int ExpectTrianglesMatchFrozen(int res, const Vec3& viewpoint,
                               const std::vector<Tri>& tris,
                               const std::string& what) {
  return ExpectMatchesFrozenKernel(
      res, viewpoint,
      [&](auto& buffer) {
        for (const Tri& t : tris) {
          buffer.RasterizeTriangle(t.a, t.b, t.c, t.item, t.faces);
        }
      },
      what);
}

// The camera-space point at depth `d` on `face` that projects to
// face-plane coordinates (u, v); exact when `d` is a power of two.
Vec3 OnFace(int face, double u, double v, double d) {
  const FaceBasis& f = kFaceBases[face];
  return f.forward * d + f.right * (u * d) + f.up * (v * d);
}

double PixelCentre(int i, int res) { return 2.0 * (i + 0.5) / res - 1.0; }

TEST(FrozenKernelTest, SeededRandomTriangles) {
  Rng rng(15);
  for (int res : {8, 16, 37, 64, 128}) {
    for (int round = 0; round < 3; ++round) {
      const Vec3 p(rng.Uniform(-5, 5), rng.Uniform(-5, 5), rng.Uniform(0, 3));
      std::vector<Tri> tris;
      for (int t = 0; t < 160; ++t) {
        // Mostly small triangles at a distance, as city boxes project;
        // some large ones that span faces.
        const bool large = rng.Bernoulli(0.2);
        const Vec3 centre = p + Vec3(rng.Uniform(-30, 30),
                                     rng.Uniform(-30, 30),
                                     rng.Uniform(-10, 10));
        const double size = large ? 25.0 : rng.Uniform(0.2, 4.0);
        auto vertex = [&] {
          return centre + Vec3(rng.Uniform(-size, size),
                               rng.Uniform(-size, size),
                               rng.Uniform(-size, size));
        };
        Tri tri{vertex(), vertex(), vertex(),
                static_cast<uint32_t>(rng.NextUint64(12))};
        if (rng.Bernoulli(0.25)) {
          tri.faces = static_cast<uint8_t>(rng.NextUint64(64));
        }
        tris.push_back(tri);
        if (rng.Bernoulli(0.2)) {  // An exact duplicate: depth ties.
          tri.item = static_cast<uint32_t>(rng.NextUint64(12));
          tris.push_back(tri);
        }
      }
      Shuffle(&tris, &rng);
      const int covered = ExpectTrianglesMatchFrozen(
          res, p, tris,
          "res " + std::to_string(res) + " round " + std::to_string(round));
      EXPECT_GT(covered, 0);
    }
  }
}

TEST(FrozenKernelTest, VerticesAndEdgesOnPixelCentres) {
  Rng rng(16);
  const double depths[] = {0.5, 1, 2, 4};
  for (int res : {8, 16, 64}) {
    for (int face = 0; face < 6; ++face) {
      std::vector<Tri> tris;
      auto at = [&](int i, int j, double d) {
        return OnFace(face, PixelCentre(i, res), PixelCentre(j, res), d);
      };
      for (int t = 0; t < 40; ++t) {
        // A quad of centre vertices split along a diagonal: the shared
        // edges run along rows, columns and (when square) diagonals of
        // pixel centres. Corners may sit past the face edge.
        const int i0 = rng.UniformInt(-2, res + 1);
        const int j0 = rng.UniformInt(-2, res + 1);
        const int di = rng.UniformInt(1, res / 2);
        const int dj = rng.Bernoulli(0.5) ? di : rng.UniformInt(1, res / 2);
        const bool flat = rng.Bernoulli(0.5);
        double d[4];
        for (double& x : d) {
          x = flat ? 2.0 : depths[rng.NextUint64(4)];
        }
        const uint32_t item = static_cast<uint32_t>(rng.NextUint64(6));
        const Vec3 c00 = at(i0, j0, d[0]);
        const Vec3 c10 = at(i0 + di, j0, d[1]);
        const Vec3 c01 = at(i0, j0 + dj, d[2]);
        const Vec3 c11 = at(i0 + di, j0 + dj, d[3]);
        tris.push_back({c00, c10, c01, item});
        tris.push_back({c10, c11, c01, item + 1});
        if (rng.Bernoulli(0.3)) {
          tris.push_back({c01, c00, c10, item + 2});  // Same triangle again.
        }
      }
      EXPECT_GT(ExpectTrianglesMatchFrozen(res, Vec3(0, 0, 0), tris,
                                           "res " + std::to_string(res) +
                                               " face " + std::to_string(face)),
                0);
    }
  }
}

TEST(FrozenKernelTest, SliversAndNearDegenerateAreas) {
  for (int res : {16, 64, 128}) {
    std::vector<Tri> tris;
    uint32_t item = 0;
    // Collinear, and coincident vertices.
    tris.push_back({Vec3(4, 0, 0), Vec3(4, 1, 1), Vec3(4, 2, 2), item++});
    tris.push_back({Vec3(3, 0.5, 0.5), Vec3(3, 0.5 + 1e-12, 0.5),
                    Vec3(3, -2, 1), item++});
    // Slivers whose long edge runs along a row of pixel centres, with
    // heights around the area cut-off.
    const double row = PixelCentre(res / 2 + 1, res);
    for (double h : {1e-19, 1e-18, 2e-18, 1e-17, 1e-15, 1e-12, 1e-9, 1e-6,
                     1e-3}) {
      tris.push_back({OnFace(0, -0.8, row, 1), OnFace(0, 0.8, row, 1),
                      OnFace(0, 0.1, row + h, 1), item});
      tris.push_back({OnFace(2, -0.8, row, 2), OnFace(2, 0.8, row - h, 4),
                      OnFace(2, 0.1, row + h, 1), item + 1});
      item += 2;
    }
    // Needles across a face and across a seam.
    tris.push_back({Vec3(1, -0.9, -0.9), Vec3(1, 0.9, 0.9),
                    Vec3(1, 0.9, 0.9 + 1e-7), item++});
    tris.push_back({Vec3(2, -3, 0.1), Vec3(2, 3, 0.1), Vec3(2, 3, 0.1 + 1e-9),
                    item++});
    // Slivers along random directions.
    Rng rng(17);
    for (int t = 0; t < 60; ++t) {
      const Vec3 a(rng.Uniform(-8, 8), rng.Uniform(-8, 8), rng.Uniform(-8, 8));
      const Vec3 b(rng.Uniform(-8, 8), rng.Uniform(-8, 8), rng.Uniform(-8, 8));
      const double eps = std::pow(10.0, -rng.Uniform(3, 14));
      const Vec3 c = a + (b - a) * rng.Uniform(0, 1) +
                     Vec3(rng.Uniform(-eps, eps), rng.Uniform(-eps, eps),
                          rng.Uniform(-eps, eps));
      tris.push_back({a, b, c, static_cast<uint32_t>(t % 7)});
    }
    EXPECT_GT(ExpectTrianglesMatchFrozen(res, Vec3(0, 0, 0), tris,
                                         "res " + std::to_string(res)),
              0);
  }
}

TEST(FrozenKernelTest, FaceSeamsAndNearPlane) {
  Rng rng(18);
  for (int res : {8, 32, 128}) {
    const Vec3 p(0.25, -0.5, 1.5);
    std::vector<Tri> tris;
    auto add = [&](const Vec3& a, const Vec3& b, const Vec3& c,
                   uint32_t item) {
      tris.push_back({p + a, p + b, p + c, item});
    };
    // Across three faces, and its mirror.
    add(Vec3(5, 0, 0), Vec3(0, 5, 0), Vec3(0, 0, 5), 0);
    add(Vec3(-5, 0, 0), Vec3(0, -5, 0), Vec3(0, 0, -5), 1);
    // Vertices on the x = y seam plane, and straddling it.
    add(Vec3(4, 4, -1), Vec3(4, 4, 1), Vec3(3, 5, 0), 2);
    add(Vec3(4, 4, -1), Vec3(4, 4, 1), Vec3(5, 3, 0), 3);
    add(Vec3(3, -3, 3), Vec3(3, 3, 3), Vec3(3, 0, -3), 4);
    // Through the near plane: one vertex behind the viewer, and vertices
    // at the near distance.
    add(Vec3(-2, 0.5, 0.3), Vec3(3, 1, 0), Vec3(3, -1, 1), 5);
    add(Vec3(1e-6, 1e-7, 0), Vec3(2, 1, 0.5), Vec3(2, -1, -0.5), 6);
    add(Vec3(1e-6, 0, 0), Vec3(1e-6, 1, 0), Vec3(1e-6, 0, 1), 7);
    // Through the viewpoint, and a huge one around it.
    add(Vec3(-1, -1, 0), Vec3(1, 1, 0), Vec3(1, -1, 0.5), 8);
    add(Vec3(100, -100, -1), Vec3(-100, 100, -1), Vec3(0, 0, 50), 9);
    // Small triangles close to the viewer cross seams and the near plane.
    for (int t = 0; t < 200; ++t) {
      auto vertex = [&] {
        return Vec3(rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5),
                    rng.Uniform(-1.5, 1.5));
      };
      add(vertex(), vertex(), vertex(), static_cast<uint32_t>(10 + t % 9));
    }
    EXPECT_GT(ExpectTrianglesMatchFrozen(res, p, tris,
                                         "res " + std::to_string(res)),
              0);
  }
}

// Face-on quads (constant depth) whose inverse depth lies one double below
// the midpoint between two floats: interpolation rounds some pixels up to
// the upper float, so the same quad drawn again by a lower item ties there
// above float(1 / depth). The early depth reject needs its margin for this.
TEST(FrozenKernelTest, TiesJustAboveTheVertexDepth) {
  int rounded_cases = 0;
  for (int n = 0; n < 40; ++n) {
    const float f = 0.05f + 0.001f * n;
    const float up = std::nextafter(f, 1.0f);
    const double d =
        1.0 / std::nextafter((static_cast<double>(f) + up) / 2, 0.0);
    const Vec3 a(d, -0.9 * d, -0.9 * d), b(d, 0.9 * d, -0.9 * d);
    const Vec3 c(d, 0.9 * d, 0.9 * d), e(d, -0.9 * d, 0.9 * d);
    auto draw = [&](auto& buffer, uint32_t item) {
      buffer.RasterizeTriangle(a, b, c, item);
      buffer.RasterizeTriangle(a, c, e, item);
    };
    ExpectMatchesFrozenKernel(
        16, Vec3(0, 0, 0),
        [&](auto& buffer) {
          draw(buffer, 1);
          draw(buffer, 0);
        },
        "depth " + std::to_string(d));
    CubeMapBuffer once(CubeMapOptions{16});
    once.Reset(Vec3(0, 0, 0));
    draw(once, 1);
    bool rounded_up = false;
    for (int j = 0; j < 16; ++j) {
      for (int i = 0; i < 16; ++i) {
        rounded_up = rounded_up || once.PixelInverseDepth(0, i, j) == up;
      }
    }
    rounded_cases += rounded_up;
  }
  EXPECT_GT(rounded_cases, 0);  // Else the case tests nothing.
}

TEST(FrozenKernelTest, BoxesSeenFromEveryOctant) {
  const Aabb box(Vec3(-1, -2, -0.5), Vec3(2, 1, 3));
  const std::vector<std::pair<Aabb, uint32_t>> boxes = {
      {box, 2},
      {Aabb(Vec3(2, -2, -0.5), Vec3(4, 1, 3)), 0},  // Touches box at x = 2.
      {box, 5},                                     // A duplicate.
      {Aabb(Vec3(0, 0, 2), Vec3(3, 3, 5)), 1},      // Overlaps box.
      {Aabb(Vec3(-40, -40, -40), Vec3(40, 40, 40)), 7},  // Encloses all.
  };
  // Per axis: below, on the min plane, inside, on the max plane, above.
  auto positions = [](double lo, double hi) {
    return std::vector<double>{lo - 3.7, lo, (lo + hi) / 2, hi, hi + 2.9};
  };
  for (int res : {16, 64}) {
    for (double x : positions(box.min.x, box.max.x)) {
      for (double y : positions(box.min.y, box.max.y)) {
        for (double z : positions(box.min.z, box.max.z)) {
          const int covered = ExpectMatchesFrozenKernel(
              res, Vec3(x, y, z),
              [&](auto& buffer) {
                for (const auto& [b, item] : boxes) {
                  buffer.RasterizeBox(b, item);
                }
              },
              "res " + std::to_string(res) + " viewpoint " +
                  std::to_string(x) + " " + std::to_string(y) + " " +
                  std::to_string(z));
          EXPECT_GT(covered, 0);
        }
      }
    }
  }
}

TEST(CellVisibilityTest, DovOfLookup) {
  CellVisibility cell;
  cell.ids = {3, 7, 9};
  cell.dov = {0.1f, 0.2f, 0.3f};
  EXPECT_FLOAT_EQ(cell.DovOf(3), 0.1f);
  EXPECT_FLOAT_EQ(cell.DovOf(9), 0.3f);
  EXPECT_FLOAT_EQ(cell.DovOf(4), 0.0f);
  EXPECT_FLOAT_EQ(cell.DovOf(100), 0.0f);
}

}  // namespace
}  // namespace hdov
