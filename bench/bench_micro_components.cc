// Component microbenchmarks (google-benchmark): CPU cost of the building
// blocks, plus ablations DESIGN.md calls out — linear-split vs sorted
// fallback pressure, cube-map resolution, sequential vs random page I/O,
// and Eq. 4 heuristic on/off.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hdov/builder.h"
#include "hdov/search.h"
#include "mesh/primitives.h"
#include "rtree/linear_split.h"
#include "rtree/rtree.h"
#include "scene/cell_grid.h"
#include "scene/city_generator.h"
#include "simplify/simplifier.h"
#include "storage/page_device.h"
#include "telemetry/flight_recorder.h"
#include "testbed/testbed_glue.h"
#include "visibility/cubemap_buffer.h"
#include "visibility/precompute.h"

namespace hdov {
namespace {

Aabb RandomBox(Rng* rng, double world, double extent) {
  Vec3 lo(rng->Uniform(0, world), rng->Uniform(0, world),
          rng->Uniform(0, world));
  return Aabb(lo, lo + Vec3(rng->Uniform(0.1, extent),
                            rng->Uniform(0.1, extent),
                            rng->Uniform(0.1, extent)));
}

void BM_RTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(1);
    RTree tree;
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(tree.Insert(RandomBox(&rng, 1000, 20),
                                           static_cast<uint64_t>(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(4000);

void BM_RTreeWindowQuery(benchmark::State& state) {
  Rng rng(2);
  RTree tree;
  for (int i = 0; i < 5000; ++i) {
    (void)tree.Insert(RandomBox(&rng, 1000, 20), static_cast<uint64_t>(i));
  }
  std::vector<uint64_t> results;
  for (auto _ : state) {
    Aabb window = RandomBox(&rng, 1000, static_cast<double>(state.range(0)));
    tree.WindowQuery(window, &results);
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_RTreeWindowQuery)->Arg(50)->Arg(200)->Arg(500);

void BM_LinearSplit(benchmark::State& state) {
  Rng rng(3);
  std::vector<Aabb> boxes;
  for (int i = 0; i < 33; ++i) {
    boxes.push_back(RandomBox(&rng, 100, 10));
  }
  for (auto _ : state) {
    SplitResult split = LinearSplit(boxes, 13);
    benchmark::DoNotOptimize(split.left.data());
  }
}
BENCHMARK(BM_LinearSplit);

void BM_SimplifyIcosphere(benchmark::State& state) {
  TriangleMesh sphere = MakeIcosphere(4);  // 5120 triangles.
  SimplifyOptions opt;
  opt.target_triangles = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Result<TriangleMesh> out = Simplify(sphere, opt);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * 5120);
}
BENCHMARK(BM_SimplifyIcosphere)->Arg(1024)->Arg(256)->Arg(64);

void BM_CubeMapPointDov(benchmark::State& state) {
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = 8;
  copt.blocks_y = 8;
  Scene scene = std::move(*GenerateCity(copt));
  DovOptions dopt;
  dopt.cubemap.face_resolution = static_cast<int>(state.range(0));
  DovComputer computer(&scene, dopt);
  Vec3 center = scene.bounds().Center();
  for (auto _ : state) {
    const std::vector<float>& dov =
        computer.ComputePointDov(Vec3(center.x, center.y, 1.7));
    benchmark::DoNotOptimize(dov.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scene.size()));
}
BENCHMARK(BM_CubeMapPointDov)->Arg(16)->Arg(32)->Arg(64);

void BM_PageDeviceSequentialVsRandom(benchmark::State& state) {
  const bool sequential = state.range(0) == 1;
  PageDevice device;
  const uint64_t kPages = 4096;
  device.AllocateUnmaterialized(kPages);
  Rng rng(4);
  std::string data;
  uint64_t next = 0;
  for (auto _ : state) {
    PageId page = sequential ? (next++ % kPages) : rng.NextUint64(kPages);
    benchmark::DoNotOptimize(device.Read(page, &data));
  }
  state.SetLabel(sequential ? "sequential" : "random");
  // The interesting output is the simulated cost, not wall time:
  state.counters["sim_ms_per_read"] = benchmark::Counter(
      device.clock().NowMillis(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["seek_fraction"] =
      static_cast<double>(device.stats().seeks) /
      static_cast<double>(device.stats().page_reads);
}
BENCHMARK(BM_PageDeviceSequentialVsRandom)->Arg(1)->Arg(0);

// Record-path cost of one flight-recorder page read: enabled, disabled,
// and batched. The recorder is always on in production paths, so the
// enabled per-event cost IS the observability tax; the disabled arm
// measures the short-circuit branch; the batched arm records the same
// reads inside a FlightReadBatch reopened every kReadsPerBatch reads, the
// shape of one query's model-fetch loop. The periodic drain that keeps
// the ring from lapping is excluded from the timing (BM_FlightRecorderDrain
// measures it).
void BM_FlightRecorderOverhead(benchmark::State& state) {
  constexpr uint64_t kReadsPerBatch = 75;
  const bool enabled = state.range(0) != 0;
  const bool batched = state.range(0) == 2;
  telemetry::FlightRecorder recorder(1 << 16);
  recorder.set_enabled(enabled);
  const uint16_t code = telemetry::FlightInternName("bench");
  std::optional<telemetry::FlightReadBatch> batch;
  uint64_t n = 0;
  for (auto _ : state) {
    if (batched && n % kReadsPerBatch == 0) {
      batch.reset();
      batch.emplace(recorder);
    }
    recorder.Record(telemetry::FlightEventType::kPageRead, code, n, 1);
    ++n;
    if (enabled && (n & 0xffff) == 0) {
      state.PauseTiming();
      benchmark::DoNotOptimize(recorder.Drain(/*consume=*/true).events.size());
      state.ResumeTiming();
    }
  }
  batch.reset();
  state.SetLabel(batched ? "batched" : enabled ? "enabled" : "disabled");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderOverhead)->Arg(1)->Arg(0)->Arg(2);

// Cost per drained event of Drain(consume) over one full ring of page
// reads: the merge, sort and copy a dump or slow-frame capture pays.
void BM_FlightRecorderDrain(benchmark::State& state) {
  constexpr uint64_t kEvents = 1 << 15;
  telemetry::FlightRecorder recorder(kEvents * 2);
  const uint16_t code = telemetry::FlightInternName("bench");
  for (auto _ : state) {
    state.PauseTiming();
    for (uint64_t n = 0; n < kEvents; ++n) {
      recorder.Record(telemetry::FlightEventType::kPageRead, code, n, 1);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(recorder.Drain(/*consume=*/true).events.size());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_FlightRecorderDrain);

// Thread scaling of the per-cell DoV precompute (the parallel build
// path). Per-cell work is independent, so real time should drop
// near-linearly with threads while the produced table stays
// bit-identical; compare the ms/op column across the thread args.
class PrecomputeFixture {
 public:
  static PrecomputeFixture& Get() {
    static PrecomputeFixture* instance = new PrecomputeFixture();
    return *instance;
  }

  Scene scene;
  std::unique_ptr<CellGrid> grid;

 private:
  PrecomputeFixture() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 12;
    copt.blocks_y = 12;
    scene = std::move(*GenerateCity(copt));
    CellGridOptions gopt;
    gopt.cells_x = 12;
    gopt.cells_y = 12;
    grid = std::make_unique<CellGrid>(
        std::move(*CellGrid::Build(scene.bounds(), gopt)));
  }
};

void BM_PrecomputeVisibilityThreads(benchmark::State& state) {
  PrecomputeFixture& fx = PrecomputeFixture::Get();
  PrecomputeOptions popt;
  popt.dov.cubemap.face_resolution = 32;
  popt.samples_per_cell = 1;
  popt.threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Result<VisibilityTable> table =
        PrecomputeVisibility(fx.scene, *fx.grid, popt);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * fx.grid->num_cells());
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PrecomputeVisibilityThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The DoV raster kernel alone at the perfbench `build` settings (large
// preset world, 64^2 cube faces, 5 samples per cell, one thread), over a
// fixed set of cells. Samples and the computer are set up once, so an
// iteration is pure ComputeRegionDov; the per_sample column (seconds) is
// comparable with perfbench's single-thread visibility.us_per_sample.
void BM_DovComputerRegion(benchmark::State& state) {
  TestbedOptions topt;
  testbed::ApplyLargeScalePreset(&topt);
  topt.face_resolution = 64;
  CityOptions copt;
  copt.mode = GeometryMode::kProxy;
  copt.blocks_x = topt.blocks;
  copt.blocks_y = topt.blocks;
  copt.seed = topt.seed;
  Scene scene = std::move(*GenerateCity(copt));
  CellGridOptions gopt;
  gopt.cells_x = topt.cells;
  gopt.cells_y = topt.cells;
  CellGrid grid = std::move(*CellGrid::Build(scene.bounds(), gopt));

  std::vector<std::vector<Vec3>> cells;
  for (CellId c = 0; c < grid.num_cells(); c += 23) {
    std::vector<Vec3> samples = CellSamples(grid, c, topt.samples_per_cell);
    for (Vec3& p : samples) {
      p = PushOutOfObjects(scene, p);
    }
    cells.push_back(std::move(samples));
  }
  DovOptions dopt;
  dopt.cubemap.face_resolution = topt.face_resolution;
  DovComputer computer(&scene, dopt);
  int64_t samples = 0;
  for (auto _ : state) {
    for (const std::vector<Vec3>& cell : cells) {
      std::vector<float> region = computer.ComputeRegionDov(cell);
      benchmark::DoNotOptimize(region.data());
      samples += static_cast<int64_t>(cell.size());
    }
  }
  state.SetItemsProcessed(samples);
  state.counters["per_sample"] = benchmark::Counter(
      static_cast<double>(samples),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DovComputerRegion)->Unit(benchmark::kMillisecond);

// Ablation: full HDoV search with and without the Eq. 4 NVO heuristic.
class SearchFixture {
 public:
  static SearchFixture& Get() {
    static SearchFixture* instance = new SearchFixture();
    return *instance;
  }

  Scene scene;
  std::unique_ptr<CellGrid> grid;
  std::unique_ptr<VisibilityTable> table;
  PageDevice model_device;
  std::unique_ptr<ModelStore> models;
  std::unique_ptr<HdovTree> tree;
  PageDevice store_device;
  std::unique_ptr<VisibilityStore> store;
  std::unique_ptr<HdovSearcher> searcher;

 private:
  SearchFixture() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 10;
    copt.blocks_y = 10;
    scene = std::move(*GenerateCity(copt));
    CellGridOptions gopt;
    gopt.cells_x = 8;
    gopt.cells_y = 8;
    grid = std::make_unique<CellGrid>(
        std::move(*CellGrid::Build(scene.bounds(), gopt)));
    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = 16;
    popt.samples_per_cell = 1;
    table = std::make_unique<VisibilityTable>(
        std::move(*PrecomputeVisibility(scene, *grid, popt)));
    models = std::make_unique<ModelStore>(&model_device);
    tree = std::make_unique<HdovTree>(
        std::move(*HdovBuilder::Build(scene, models.get(),
                                      HdovBuildOptions())));
    store = std::move(BuildStore(StorageScheme::kIndexedVertical, *tree,
                                 *table, &store_device))
                .value();
    searcher = std::make_unique<HdovSearcher>(tree.get(), &scene,
                                              models.get(), nullptr);
  }
};

void BM_HdovSearch(benchmark::State& state) {
  SearchFixture& fx = SearchFixture::Get();
  SearchOptions opt;
  opt.eta = static_cast<double>(state.range(0)) / 100000.0;
  opt.heuristic = static_cast<TerminationHeuristic>(state.range(1));
  std::vector<RetrievedLod> result;
  CellId cell = 0;
  uint64_t total_items = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    (void)fx.searcher->Search(fx.store.get(), cell, opt, &result);
    benchmark::DoNotOptimize(result.data());
    total_items += result.size();
    ++queries;
    cell = (cell + 1) % fx.grid->num_cells();
  }
  state.counters["avg_result_items"] =
      static_cast<double>(total_items) / static_cast<double>(queries);
}
BENCHMARK(BM_HdovSearch)
    ->Args({0, 0})      // eta = 0.
    ->Args({100, 0})    // eta = 0.001, Eq. 4.
    ->Args({100, 1})    // eta = 0.001, eta-only (ablation).
    ->Args({100, 2})    // eta = 0.001, cost model (extension).
    ->Args({800, 0})    // eta = 0.008, Eq. 4.
    ->Args({800, 2});   // eta = 0.008, cost model.

}  // namespace
}  // namespace hdov

// Custom main instead of BENCHMARK_MAIN(): translate the repo-standard
// --json-out=<path> flag into google-benchmark's own JSON reporter flags
// so every bench binary shares one machine-readable output convention.
// Micro timings are wall-clock only, so this file is not part of the CI
// drift gate (see EXPERIMENTS.md).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  constexpr const char kJsonOut[] = "--json-out=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (std::strncmp(*it, kJsonOut, sizeof(kJsonOut) - 1) == 0) {
      out_flag = std::string("--benchmark_out=") +
                 (*it + sizeof(kJsonOut) - 1);
      format_flag = "--benchmark_out_format=json";
      args.erase(it);
      break;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
