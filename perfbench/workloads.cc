#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "hdov/builder.h"
#include "inputs.h"
#include "persist/snapshot.h"
#include "persist/world_codec.h"
#include "rtree/rtree.h"
#include "scene/cell_grid.h"
#include "scene/city_generator.h"
#include "server/walkthrough_server.h"
#include "spans.h"
#include "storage/model_store.h"
#include "visibility/precompute.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/visual_system.h"

namespace perfbench {
namespace {

using hdov::IoStats;
using hdov::Result;
using hdov::RetrievedLod;
using hdov::SearchStats;
using hdov::Status;
using hdov::VisualSystem;

// Workload shape. The world is the large preset; these fix the traffic.
constexpr uint32_t kBuildThreads = 2;   // Precompute and store workers.
constexpr size_t kMinBuilds = 4;        // Builds per build run, at least.
constexpr size_t kProbeQueries = 4000;  // Build check: per scheme.
constexpr size_t kQueryStream = 20000;  // Distinct queries per query run.
constexpr size_t kQueryChecks = 2000;   // Queries cross-checked per run.
constexpr int kSetupRepeats = 9;        // Set-ups per run; median reported.
constexpr double kWindowSeconds = 0.5;  // Timing window of the query loop.
constexpr size_t kUsers = 8;
constexpr size_t kFramesPerUser = 600;
constexpr size_t kSimEpochs = 32;  // Server rounds whose simulated cost counts.
constexpr uint32_t kServeWorkers = 1;  // Inline: rounds run on the caller.
constexpr size_t kStoreCachePages = 256;
constexpr size_t kMaxSpans = 100000;

constexpr hdov::StorageScheme kSchemes[] = {
    hdov::StorageScheme::kHorizontal, hdov::StorageScheme::kVertical,
    hdov::StorageScheme::kIndexedVertical,
    hdov::StorageScheme::kBitmapVertical};
constexpr const char* kSchemeLabel[] = {"horizontal", "vertical",
                                        "indexed_vertical", "bitmap_vertical"};
constexpr const char* kStoreBuildSpan[] = {
    "hdov.store_build.horizontal", "hdov.store_build.vertical",
    "hdov.store_build.indexed_vertical", "hdov.store_build.bitmap_vertical"};
constexpr const char* kStoreWriteSpan[] = {
    "persist.write_store.horizontal", "persist.write_store.vertical",
    "persist.write_store.indexed_vertical",
    "persist.write_store.bitmap_vertical"};

constexpr double kMiB = 1024.0 * 1024.0;

std::string Fmt(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

void Add(RunResult* r, const std::string& name, double value,
         const std::string& unit) {
  r->metrics.push_back(Metric{name, value, unit});
}

// Adds a percentile metric, counting a refused percentile (too few
// samples beyond it) as a failed check.
void AddPercentile(RunResult* r, const std::string& name,
                   const std::vector<double>& samples, double q,
                   const std::string& unit) {
  std::optional<double> v = Percentile(samples, q);
  r->tally.Check(v.has_value(),
                 name + ": too few samples (" +
                     std::to_string(samples.size()) + ")");
  Add(r, name, v.value_or(0.0), unit);
}

// All latencies of a run's windows, and its overall throughput.
std::vector<double> AllLatencies(const std::vector<Window>& windows) {
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), w.latency_us.begin(), w.latency_us.end());
  }
  return all;
}

double OverallRate(const std::vector<Window>& windows) {
  double seconds = 0.0;
  uint64_t ops = 0;
  for (const Window& w : windows) {
    seconds += w.seconds;
    ops += w.ops;
  }
  return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
}

void AddTiming(RunResult* r, const WindowSummary& t, const char* which) {
  Add(r, "ops_per_s", t.ops_per_s, "1/s");
  Add(r, "op_p50_us", Median(t.latency_us), "us");
  Add(r, "op_tail_us", TailPercentile(t.latency_us), "us");
  r->notes.push_back(std::string("timing from the ") + which + " " +
                     std::to_string(t.windows_used) + " of " +
                     std::to_string(t.windows) + " windows, " +
                     std::to_string(t.latency_us.size()) + " samples");
}

// Peak resident set size of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// ---------------------------------------------------------------------------
// One visibility query and everything it billed.

struct QueryOutcome {
  std::vector<RetrievedLod> result;
  SearchStats stats;
  IoStats tree, store, model;
  double sim_ms = 0.0;
  Status status;
};

QueryOutcome RunOneQuery(VisualSystem* sys, const QueryInput& q,
                         bool fetch_models) {
  QueryOutcome out;
  const IoStats tree0 = sys->tree_device().stats();
  const IoStats store0 = sys->store_device().stats();
  const IoStats model0 = sys->model_device().stats();
  const double clock0 = sys->clock().NowMillis();
  sys->set_eta(q.eta);
  out.status = sys->Query(q.position, fetch_models, &out.result, &out.stats);
  out.tree = sys->tree_device().stats().Delta(tree0);
  out.store = sys->store_device().stats().Delta(store0);
  out.model = sys->model_device().stats().Delta(model0);
  out.sim_ms = sys->clock().NowMillis() - clock0;
  return out;
}

bool SameIo(const IoStats& a, const IoStats& b) {
  return a.page_reads == b.page_reads && a.page_writes == b.page_writes &&
         a.seeks == b.seeks && a.bytes_read == b.bytes_read &&
         a.bytes_written == b.bytes_written;
}

bool SameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  if (!a.status.ok() || !b.status.ok() ||
      a.result.size() != b.result.size()) {
    return false;
  }
  for (size_t i = 0; i < a.result.size(); ++i) {
    const RetrievedLod& x = a.result[i];
    const RetrievedLod& y = b.result[i];
    if (x.kind != y.kind || x.owner != y.owner || x.lod_level != y.lod_level ||
        x.model != y.model || x.triangle_count != y.triangle_count ||
        x.byte_size != y.byte_size || x.dov != y.dov) {
      return false;
    }
  }
  const SearchStats& s = a.stats;
  const SearchStats& t = b.stats;
  return s.nodes_visited == t.nodes_visited &&
         s.vpages_fetched == t.vpages_fetched &&
         s.hidden_entries_pruned == t.hidden_entries_pruned &&
         s.internal_terminations == t.internal_terminations &&
         SameIo(a.tree, b.tree) && SameIo(a.store, b.store) &&
         SameIo(a.model, b.model) && a.sim_ms == b.sim_ms;
}

// The paper's simulated cost of a query sequence: per-query disk time and
// page reads, summed.
struct SimTotals {
  double sim_ms = 0.0;
  double io_pages = 0.0;
  size_t queries = 0;
  void Add(const QueryOutcome& o) {
    sim_ms += o.sim_ms;
    io_pages += static_cast<double>(o.tree.page_reads + o.store.page_reads +
                                    o.model.page_reads);
    ++queries;
  }
  double MeanMs() const { return queries ? sim_ms / queries : 0.0; }
  double MeanPages() const { return queries ? io_pages / queries : 0.0; }
};

// Runs every `stride`-th query on both systems and checks that results,
// search decisions and simulated billing agree exactly.
void CrossCheck(VisualSystem* a, VisualSystem* b,
                const std::vector<QueryInput>& queries, size_t stride,
                const std::string& label, Tally* tally,
                SimTotals* sim_of_a = nullptr) {
  for (size_t i = 0; i < queries.size(); i += stride) {
    const QueryOutcome oa = RunOneQuery(a, queries[i], true);
    const QueryOutcome ob = RunOneQuery(b, queries[i], true);
    tally->Check(SameOutcome(oa, ob),
                 label + ": query " + std::to_string(i) + " differs");
    if (sim_of_a != nullptr) {
      sim_of_a->Add(oa);
    }
  }
}

// Puts a system back into a cold, comparable state: no resident models,
// zeroed counters and clock, no remembered disk-head position.
void ResetForCheck(VisualSystem* sys) {
  sys->ResetRuntime();
  sys->ResetIoStats();
  sys->tree_device().ResetAccessTracker();
  sys->store_device().ResetAccessTracker();
  sys->model_device().ResetAccessTracker();
}

// ---------------------------------------------------------------------------
// build

void CheckBuild(const RunConfig& cfg, const hdov::Testbed& bed,
                const std::string& snap, RunResult* r, SimTotals* sim) {
  Tally& t = r->tally;
  Result<std::unique_ptr<hdov::SnapshotLoader>> loader =
      hdov::SnapshotLoader::Open(snap);
  t.Check(loader.ok(), "build: committed snapshot does not open");
  if (!loader.ok()) {
    return;
  }
  Result<hdov::Testbed> world = hdov::LoadWorldSections(**loader);
  t.Check(world.ok(), "build: world sections do not load");
  if (!world.ok()) {
    return;
  }
  bool same_world = world->scene.size() == bed.scene.size() &&
                    world->grid.num_cells() == bed.grid.num_cells() &&
                    world->table.num_cells() == bed.table.num_cells();
  for (uint32_t c = 0; same_world && c < bed.table.num_cells(); ++c) {
    same_world = world->table.cell(c).ids == bed.table.cell(c).ids &&
                 world->table.cell(c).dov == bed.table.cell(c).dov;
  }
  t.Check(same_world, "build: reloaded world differs from the built one");

  const std::vector<QueryInput> probes = MakeQueries(
      bed.scene.bounds(), kProbeQueries, SubSeed(cfg.seed, Stream::kProbes));
  for (size_t i = 0; i < std::size(kSchemes); ++i) {
    hdov::VisualOptions opt = hdov::DefaultVisualOptions(kBuildThreads);
    opt.scheme = kSchemes[i];
    Result<std::unique_ptr<VisualSystem>> loaded =
        VisualSystem::CreateFromSnapshot(**loader, &world->scene,
                                         &world->grid, opt);
    Result<std::unique_ptr<VisualSystem>> fresh =
        VisualSystem::Create(&bed.scene, &bed.grid, &bed.table, opt);
    const std::string label = std::string("build/") + kSchemeLabel[i];
    t.Check(loaded.ok(), label + ": scheme does not load from the snapshot");
    t.Check(fresh.ok(), label + ": Create fails");
    if (!loaded.ok() || !fresh.ok()) {
      continue;
    }
    CrossCheck(loaded->get(), fresh->get(), probes, 1, label, &t,
               kSchemes[i] == hdov::StorageScheme::kIndexedVertical ? sim
                                                                    : nullptr);
  }
}

void RunBuild(const RunConfig& cfg, RunResult* r) {
  const std::string snap = cfg.work_dir + "/build.hdov";
  const hdov::TestbedOptions topt = LargeTestbed(kBuildThreads);
  const hdov::VisualOptions vopt = hdov::DefaultVisualOptions(kBuildThreads);
  std::vector<double> setup_s;
  std::vector<double> build_us;
  std::vector<Window> windows;  // One per build.
  std::optional<hdov::Testbed> bed;
  const uint64_t start = NowNs();
  for (;;) {
    bed.reset();  // Hold one world at a time.
    hdov::PersistStats stats;
    const uint64_t t0 = NowNs();
    std::error_code ec;
    std::filesystem::remove(snap, ec);
    Result<std::unique_ptr<hdov::SnapshotWriter>> writer =
        hdov::SnapshotWriter::Create(snap, vopt.disk.page_size, &stats);
    setup_s.push_back(SecondsSince(t0));
    if (!writer.ok()) {
      r->tally.Ops(1, 1);
      r->notes.push_back("build: " + writer.status().ToString());
      return;
    }
    const uint64_t t1 = NowNs();
    Result<hdov::Testbed> built = hdov::BuildTestbed(topt);
    Status status = built.ok() ? hdov::WriteWorldSnapshot(writer->get(),
                                                          *built, vopt)
                               : built.status();
    if (status.ok()) {
      status = (*writer)->Commit();
    }
    const double us = static_cast<double>(NowNs() - t1) / 1e3;
    r->tally.Ops(1, status.ok() ? 0 : 1);
    if (!status.ok()) {
      r->notes.push_back("build: " + status.ToString());
      return;
    }
    build_us.push_back(us);
    windows.push_back(Window{us / 1e6, 1, {us}});
    bed.emplace(std::move(*built));
    // Stop when another build of the same length would overrun the run.
    if (build_us.size() >= kMinBuilds &&
        SecondsSince(start) + us / 1e6 > cfg.seconds) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  SimTotals sim;
  CheckBuild(cfg, *bed, snap, r, &sim);

  Add(r, "setup_s", Median(setup_s), "s");
  AddTiming(r, MedianWindow(windows), "median");
  Add(r, "sim_ms", sim.MeanMs(), "ms");
  Add(r, "io_pages", sim.MeanPages(), "pages");
  Add(r, "snapshot_mb", static_cast<double>(FileBytes(snap)) / kMiB, "MB");
  Add(r, "peak_rss_mb", peak_rss_mb, "MB");
  r->notes.push_back("build: " + std::to_string(build_us.size()) +
                     " builds; build_s (median) = " +
                     Fmt("%.3f s", Median(build_us) / 1e6) +
                     "; commit = fsync(tmp) + rename + fsync(dir)");
  r->notes.push_back("build: sim_ms/io_pages are per probe query of " +
                     std::to_string(sim.queries) +
                     " seeded probes on the reloaded indexed-vertical store");
}

// ---------------------------------------------------------------------------
// query

struct LoadedWorld {
  std::unique_ptr<hdov::SnapshotLoader> loader;
  std::optional<hdov::Testbed> world;
  std::unique_ptr<VisualSystem> system;
  double open_s = 0.0, load_s = 0.0, attach_s = 0.0;
};

// Opens the snapshot, decodes the world and attaches a memory-resident
// indexed-vertical system, each step under its own span.
Status LoadQueryWorld(const std::string& db, SpanRecorder* rec,
                      uint32_t trace, LoadedWorld* out) {
  const hdov::VisualOptions opt = hdov::DefaultVisualOptions();
  {
    ScopedSpan span(rec, "persist.open", trace, &out->open_s);
    HDOV_ASSIGN_OR_RETURN(out->loader, hdov::SnapshotLoader::Open(db));
  }
  {
    ScopedSpan span(rec, "persist.load_world", trace, &out->load_s);
    HDOV_ASSIGN_OR_RETURN(hdov::Testbed world,
                          hdov::LoadWorldSections(*out->loader));
    out->world.emplace(std::move(world));
  }
  {
    ScopedSpan span(rec, "walkthrough.attach", trace, &out->attach_s);
    HDOV_ASSIGN_OR_RETURN(
        out->system,
        VisualSystem::CreateFromSnapshot(*out->loader, &out->world->scene,
                                         &out->world->grid, opt));
  }
  out->system->set_delta_enabled(false);
  return Status::OK();
}

// One untimed pass over the whole query stream from a fresh system: warms
// lazy state and yields the deterministic simulated cost.
SimTotals WarmPass(VisualSystem* sys, const std::vector<QueryInput>& queries,
                   Tally* tally, std::vector<QueryOutcome>* outcomes = nullptr) {
  SimTotals sim;
  for (const QueryInput& q : queries) {
    QueryOutcome o = RunOneQuery(sys, q, true);
    tally->Ops(1, o.status.ok() ? 0 : 1);
    sim.Add(o);
    if (outcomes != nullptr) {
      outcomes->push_back(std::move(o));
    }
  }
  return sim;
}

// Closed loop: the next query starts when the previous one returns. Each
// query is timed alone (under a span when `rec` is set), and the loop runs
// whole windows of kWindowSeconds until `seconds` are used up.
std::vector<Window> TimedQueries(VisualSystem* sys,
                                 const std::vector<QueryInput>& queries,
                                 bool fetch_models, double seconds,
                                 SpanRecorder* rec, const char* span_name,
                                 size_t* next, Tally* tally) {
  std::vector<RetrievedLod> result;
  SearchStats stats;
  uint64_t failed = 0;
  size_t i = *next;
  const size_t num_windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kWindowSeconds)));
  const uint64_t window_ns = static_cast<uint64_t>(kWindowSeconds * 1e9);
  std::vector<Window> windows(num_windows);
  for (Window& w : windows) {
    const uint64_t start = NowNs();
    uint64_t end = start;
    do {
      const QueryInput& q = queries[i % queries.size()];
      double s = 0.0;
      {
        ScopedSpan span(rec, span_name, rec ? rec->NewTrace() : 0, &s);
        sys->set_eta(q.eta);
        if (!sys->Query(q.position, fetch_models, &result, &stats).ok()) {
          ++failed;
        }
      }
      w.latency_us.push_back(s * 1e6);
      ++i;
      end = NowNs();
    } while (end - start < window_ns);
    w.ops = w.latency_us.size();
    w.seconds = static_cast<double>(end - start) / 1e9;
  }
  tally->Ops(i - *next, failed);
  *next = i;
  return windows;
}

void RunQuery(const RunConfig& cfg, RunResult* r) {
  std::vector<double> setup_s;
  LoadedWorld w;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w = LoadedWorld();
    const uint64_t t0 = NowNs();
    Status s = LoadQueryWorld(cfg.db, nullptr, 0, &w);
    setup_s.push_back(SecondsSince(t0));
    r->tally.Ops(1, s.ok() ? 0 : 1);
    if (!s.ok()) {
      r->notes.push_back("query: set-up: " + s.ToString());
      return;
    }
  }
  const std::vector<QueryInput> queries =
      MakeQueries(w.world->scene.bounds(), kQueryStream,
                  SubSeed(cfg.seed, Stream::kQueries));
  const SimTotals sim = WarmPass(w.system.get(), queries, &r->tally);
  // Memory after a fixed amount of work, before the timing buffers grow.
  const double peak_rss_mb = PeakRssMb();

  size_t next = 0;
  const std::vector<Window> windows =
      TimedQueries(w.system.get(), queries, true, cfg.seconds, nullptr, "",
                   &next, &r->tally);

  // Cross-check a sample against a twin built by Create over the decoded
  // world. Both start cold and run one identical priming query, so their
  // disk-head and current-cell state match before the compared queries.
  Result<std::unique_ptr<VisualSystem>> twin = VisualSystem::Create(
      &w.world->scene, &w.world->grid, &w.world->table,
      hdov::DefaultVisualOptions());
  r->tally.Check(twin.ok(), "query: Create twin fails");
  if (twin.ok()) {
    ResetForCheck(w.system.get());
    ResetForCheck(twin->get());
    RunOneQuery(w.system.get(), queries.back(), true);
    RunOneQuery(twin->get(), queries.back(), true);
    CrossCheck(w.system.get(), twin->get(), queries,
               queries.size() / kQueryChecks, "query", &r->tally);
  }

  Add(r, "setup_s", Median(setup_s), "s");
  AddTiming(r, SlowestTenth(windows), "slowest");
  Add(r, "sim_ms", sim.MeanMs(), "ms");
  Add(r, "io_pages", sim.MeanPages(), "pages");
  Add(r, "snapshot_mb", static_cast<double>(FileBytes(cfg.db)) / kMiB, "MB");
  Add(r, "peak_rss_mb", peak_rss_mb, "MB");
  r->notes.push_back("query: overall " +
                     Fmt("%.0f queries/s", OverallRate(windows)));
}

// ---------------------------------------------------------------------------
// serve

hdov::ServerOptions ServeOptions(const std::string& db) {
  hdov::ServerOptions opt;
  opt.snapshot_path = db;
  opt.visual = hdov::DefaultVisualOptions();
  opt.shared_cache_pages = kStoreCachePages;
  opt.workers = kServeWorkers;
  opt.batch_same_cell = true;
  return opt;
}

bool SameSummary(const hdov::SessionSummary& a, const hdov::SessionSummary& b) {
  return a.session_name == b.session_name && a.num_frames == b.num_frames &&
         a.avg_frame_time_ms == b.avg_frame_time_ms &&
         a.var_frame_time == b.var_frame_time &&
         a.avg_query_time_ms == b.avg_query_time_ms &&
         a.avg_io_pages == b.avg_io_pages &&
         a.avg_light_io_pages == b.avg_light_io_pages &&
         a.avg_cache_hit_rate == b.avg_cache_hit_rate &&
         a.max_resident_bytes == b.max_resident_bytes;
}

struct ServerSetup {
  std::unique_ptr<hdov::WalkthroughServer> server;
  std::vector<hdov::Session> first_round;
  double open_s = 0.0, add_s = 0.0;
};

Status OpenServer(const RunConfig& cfg, SpanRecorder* rec, uint32_t trace,
                  ServerSetup* out) {
  {
    ScopedSpan span(rec, "server.open", trace, &out->open_s);
    HDOV_ASSIGN_OR_RETURN(out->server,
                          hdov::WalkthroughServer::Open(ServeOptions(cfg.db)));
  }
  if (out->first_round.empty()) {  // Inputs are not set-up: made untimed.
    out->first_round = MakeUserSessions(out->server->scene().bounds(), kUsers,
                                        kFramesPerUser, cfg.seed, 0);
  }
  ScopedSpan span(rec, "server.add_sessions", trace, &out->add_s);
  for (const hdov::Session& s : out->first_round) {
    HDOV_RETURN_IF_ERROR(out->server->AddSession(s));
  }
  return Status::OK();
}

// What a sequence of Play() rounds measured.
struct ServeTotals {
  std::vector<hdov::SessionSummary> first_round;  // Round 0 summaries.
  std::vector<Window> windows;     // One per timed round; enqueue to
                                   // completion per frame.
  std::vector<double> queue_us;    // Enqueue to dispatch.
  std::vector<double> service_us;  // Dispatch to completion.
  double wall_s = 0.0;             // Play() wall time of timed rounds.
  uint64_t frames = 0, rounds = 0, batched_frames = 0;
  hdov::BufferPoolStats store_cache, tree_cache;
  double sim_ms = 0.0, io_pages = 0.0;
  uint64_t sim_frames = 0;
  double peak_rss_mb = 0.0;  // After the rounds whose simulated cost counts.
};

// Plays round `epoch`: kUsers fresh paths (round 0's were added at
// set-up). Round 0 warms the shared cache and is not timed. Returns false
// when the round could not be played.
bool PlayRound(const RunConfig& cfg, ServerSetup* setup, uint64_t epoch,
               SpanRecorder* rec, ServeTotals* out, Tally* tally) {
  hdov::WalkthroughServer* server = setup->server.get();
  if (epoch > 0) {
    for (const hdov::Session& s :
         MakeUserSessions(server->scene().bounds(), kUsers, kFramesPerUser,
                          cfg.seed, epoch)) {
      if (Status st = server->AddSession(s); !st.ok()) {
        tally->Ops(1, 1);
        return false;
      }
    }
  }
  Result<hdov::ServerRunStats> stats = Status::Internal("not played");
  {
    ScopedSpan span(rec, "server.play", rec ? rec->NewTrace() : 0);
    stats = server->Play();
  }
  if (!stats.ok()) {
    tally->Ops(kUsers * kFramesPerUser, kUsers * kFramesPerUser);
    return false;
  }
  tally->Ops(stats->total_frames);
  for (const hdov::ServerSessionRecord& rec_s : stats->sessions) {
    if (epoch == 0) {
      out->first_round.push_back(rec_s.summary);
    }
    if (epoch < kSimEpochs) {
      const double n = static_cast<double>(rec_s.summary.num_frames);
      out->sim_ms += rec_s.summary.avg_frame_time_ms * n;
      out->io_pages += rec_s.summary.avg_io_pages * n;
      out->sim_frames += rec_s.summary.num_frames;
    }
  }
  if (epoch + 1 == kSimEpochs) {
    out->peak_rss_mb = PeakRssMb();
  }
  if (epoch > 0) {
    Window w;
    w.seconds = stats->wall_ms / 1e3;
    w.ops = stats->total_frames;
    for (const hdov::ServerSessionRecord& rec_s : stats->sessions) {
      for (size_t j = 0; j < rec_s.frame_wall_ms.size(); ++j) {
        const double q = rec_s.frame_queue_wait_ms[j] * 1e3;
        const double s = rec_s.frame_wall_ms[j] * 1e3;
        out->queue_us.push_back(q);
        out->service_us.push_back(s);
        w.latency_us.push_back(q + s);
      }
    }
    out->windows.push_back(std::move(w));
    out->wall_s += stats->wall_ms / 1e3;
    out->frames += stats->total_frames;
    out->rounds += stats->rounds;
    out->batched_frames += stats->batched_frames;
    out->store_cache.hits += stats->store_cache.hits;
    out->store_cache.misses += stats->store_cache.misses;
    out->store_cache.evictions += stats->store_cache.evictions;
    out->tree_cache.hits += stats->tree_cache.hits;
    out->tree_cache.misses += stats->tree_cache.misses;
  }
  return true;
}

// True once the rounds whose simulated cost counts are played and
// `seconds` of timed Play() wall time have passed.
bool ServeDone(const ServeTotals& totals, uint64_t rounds, double seconds) {
  return rounds >= kSimEpochs && totals.wall_s >= seconds;
}

// Checks every first-round session's summary against a solo PlaySession
// replay on its own file-backed system, bit for bit.
void CheckSoloReplay(const RunConfig& cfg, const ServerSetup& setup,
                     const ServeTotals& totals, Tally* tally) {
  Result<std::unique_ptr<hdov::SnapshotLoader>> loader =
      hdov::SnapshotLoader::Open(cfg.db);
  tally->Check(loader.ok(), "serve: snapshot does not reopen");
  tally->Check(totals.first_round.size() == setup.first_round.size(),
               "serve: first round lost sessions");
  if (!loader.ok() || totals.first_round.size() != setup.first_round.size()) {
    return;
  }
  for (size_t i = 0; i < setup.first_round.size(); ++i) {
    Result<std::unique_ptr<VisualSystem>> solo =
        VisualSystem::CreateFromSnapshot(
            **loader, &setup.server->scene(), &setup.server->grid(),
            hdov::DefaultVisualOptions(), hdov::SnapshotLoadMode::kFileBacked);
    Result<hdov::SessionSummary> summary =
        solo.ok() ? hdov::PlaySession(solo->get(), setup.first_round[i])
                  : Result<hdov::SessionSummary>(solo.status());
    tally->Check(summary.ok() && SameSummary(*summary, totals.first_round[i]),
                 "serve: session " + setup.first_round[i].name +
                     " differs from its solo replay");
  }
}

void RunServe(const RunConfig& cfg, RunResult* r) {
  std::vector<double> setup_s;
  ServerSetup setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.server.reset();
    Status s = OpenServer(cfg, nullptr, 0, &setup);
    setup_s.push_back(setup.open_s + setup.add_s);
    r->tally.Ops(1, s.ok() ? 0 : 1);
    if (!s.ok()) {
      r->notes.push_back("serve: set-up: " + s.ToString());
      return;
    }
  }
  ServeTotals totals;
  for (uint64_t epoch = 0;; ++epoch) {
    if (!PlayRound(cfg, &setup, epoch, nullptr, &totals, &r->tally) ||
        ServeDone(totals, epoch + 1, cfg.seconds)) {
      break;
    }
  }
  CheckSoloReplay(cfg, setup, totals, &r->tally);

  const double frames = static_cast<double>(totals.sim_frames);
  Add(r, "setup_s", Median(setup_s), "s");
  AddTiming(r, SlowestTenth(totals.windows), "slowest");
  Add(r, "sim_ms", frames > 0 ? totals.sim_ms / frames : 0.0, "ms");
  Add(r, "io_pages", frames > 0 ? totals.io_pages / frames : 0.0, "pages");
  Add(r, "snapshot_mb", static_cast<double>(FileBytes(cfg.db)) / kMiB, "MB");
  Add(r, "peak_rss_mb", totals.peak_rss_mb, "MB");
  r->notes.push_back("serve: overall " +
                     Fmt("%.0f frames/s", OverallRate(totals.windows)));
}

// ---------------------------------------------------------------------------
// Traced run

struct BuildStages {
  double total_s = 0.0;
  double scene_s = 0.0, precompute_s = 0.0, tree_build_s = 0.0;
  double tree_pack_s = 0.0, write_s = 0.0, commit_s = 0.0;
  double store_s[4] = {};
  uint64_t store_pages[4] = {};
  uint64_t visible_pairs = 0, pairs = 0, samples = 0;
};

// BuildTestbed + WriteWorldSnapshot + Commit, stage by stage through the
// same public functions in the same order, each stage under its own span.
// The snapshot it commits is byte-identical to the untraced build's.
Status TracedBuild(SpanRecorder* rec, uint32_t trace,
                   const hdov::TestbedOptions& topt,
                   const hdov::VisualOptions& opt,
                   hdov::SnapshotWriter* writer, BuildStages* st,
                   std::optional<hdov::Testbed>* out) {
  ScopedSpan root(rec, "build.world", trace, &st->total_s);
  std::optional<hdov::Scene> scene;
  std::optional<hdov::CellGrid> grid;
  {
    ScopedSpan span(rec, "scene.generate", trace, &st->scene_s);
    hdov::CityOptions copt;
    copt.mode = hdov::GeometryMode::kProxy;
    copt.blocks_x = topt.blocks;
    copt.blocks_y = topt.blocks;
    copt.seed = topt.seed;
    HDOV_ASSIGN_OR_RETURN(hdov::Scene s, hdov::GenerateCity(copt));
    hdov::CellGridOptions gopt;
    gopt.cells_x = topt.cells;
    gopt.cells_y = topt.cells;
    HDOV_ASSIGN_OR_RETURN(hdov::CellGrid g,
                          hdov::CellGrid::Build(s.bounds(), gopt));
    scene.emplace(std::move(s));
    grid.emplace(std::move(g));
  }
  {
    ScopedSpan span(rec, "visibility.precompute", trace, &st->precompute_s);
    hdov::PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = topt.face_resolution;
    popt.samples_per_cell = topt.samples_per_cell;
    popt.threads = topt.threads;
    HDOV_ASSIGN_OR_RETURN(hdov::VisibilityTable table,
                          hdov::PrecomputeVisibility(*scene, *grid, popt));
    out->emplace(hdov::Testbed{std::move(*scene), std::move(*grid),
                               std::move(table)});
  }
  const hdov::Testbed& bed = **out;
  double s = 0.0;
  {
    ScopedSpan span(rec, "persist.write_sections", trace, &s);
    HDOV_RETURN_IF_ERROR(hdov::WriteWorldSections(writer, bed));
  }
  st->write_s += s;
  hdov::SimClock clock;
  hdov::PageDevice tree_device(opt.disk, &clock);
  hdov::PageDevice model_device(opt.disk, &clock);
  hdov::ModelStore models(&model_device);
  std::optional<hdov::HdovTree> tree;
  {
    ScopedSpan span(rec, "hdov.tree_build", trace, &st->tree_build_s);
    HDOV_ASSIGN_OR_RETURN(hdov::HdovTree t,
                          hdov::HdovBuilder::Build(bed.scene, &models,
                                                   opt.build));
    tree.emplace(std::move(t));
  }
  {
    ScopedSpan span(rec, "hdov.tree_pack", trace, &st->tree_pack_s);
    HDOV_RETURN_IF_ERROR(tree->Pack(&tree_device));
  }
  {
    ScopedSpan span(rec, "persist.write_tree", trace, &s);
    std::string manifest;
    HDOV_RETURN_IF_ERROR(tree->EncodeManifest(&manifest));
    HDOV_RETURN_IF_ERROR(
        writer->AddBlob(hdov::kSectionTreeManifest, manifest));
    HDOV_RETURN_IF_ERROR(
        writer->AddDevice(hdov::kSectionTreeDevice, tree_device));
    std::string model_meta;
    models.EncodeMeta(&model_meta);
    HDOV_RETURN_IF_ERROR(writer->AddBlob(hdov::kSectionModelMeta, model_meta));
    HDOV_RETURN_IF_ERROR(
        writer->AddDevice(hdov::kSectionModelDevice, model_device));
  }
  st->write_s += s;
  for (size_t i = 0; i < std::size(kSchemes); ++i) {
    hdov::PageDevice store_device(opt.disk, &clock);
    std::unique_ptr<hdov::VisibilityStore> store;
    {
      ScopedSpan span(rec, kStoreBuildSpan[i], trace, &st->store_s[i]);
      HDOV_ASSIGN_OR_RETURN(store,
                            hdov::BuildStore(kSchemes[i], *tree, bed.table,
                                             &store_device,
                                             opt.build_threads));
    }
    st->store_pages[i] = store_device.page_count();
    {
      ScopedSpan span(rec, kStoreWriteSpan[i], trace, &s);
      std::string meta;
      store->EncodeMeta(&meta);
      const std::string name = hdov::StorageSchemeName(kSchemes[i]);
      HDOV_RETURN_IF_ERROR(writer->AddBlob(hdov::StoreMetaSection(name), meta));
      HDOV_RETURN_IF_ERROR(
          writer->AddDevice(hdov::StoreDeviceSection(name), store_device));
    }
    st->write_s += s;
  }
  {
    ScopedSpan span(rec, "persist.commit", trace, &st->commit_s);
    HDOV_RETURN_IF_ERROR(writer->Commit());
  }
  for (uint32_t c = 0; c < bed.table.num_cells(); ++c) {
    st->visible_pairs += bed.table.cell(c).num_visible();
  }
  st->pairs = static_cast<uint64_t>(bed.table.num_cells()) * bed.scene.size();
  st->samples = static_cast<uint64_t>(bed.grid.num_cells()) *
                static_cast<uint64_t>(topt.samples_per_cell);
  return Status::OK();
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) {
    return false;
  }
  return std::string(std::istreambuf_iterator<char>(fa), {}) ==
         std::string(std::istreambuf_iterator<char>(fb), {});
}

// The traced build: one untraced build for reference, then the staged,
// spanned build of the same world. Returns the traced snapshot's path
// (empty on failure) for the query and serve passes.
std::string TraceBuildPass(const RunConfig& cfg, SpanRecorder* rec,
                           RunResult* r) {
  const hdov::TestbedOptions topt = LargeTestbed(kBuildThreads);
  const hdov::VisualOptions vopt = hdov::DefaultVisualOptions(kBuildThreads);
  const std::string plain = cfg.work_dir + "/untraced.hdov";
  const std::string traced = cfg.work_dir + "/traced.hdov";
  Tally& t = r->tally;

  double untraced_s = 0.0;
  {
    Result<std::unique_ptr<hdov::SnapshotWriter>> writer =
        hdov::SnapshotWriter::Create(plain, vopt.disk.page_size);
    const uint64_t t0 = NowNs();
    Result<hdov::Testbed> bed =
        writer.ok() ? hdov::BuildTestbed(topt) : writer.status();
    Status s = bed.ok() ? hdov::WriteWorldSnapshot(writer->get(), *bed, vopt)
                        : bed.status();
    if (s.ok()) {
      s = (*writer)->Commit();
    }
    untraced_s = SecondsSince(t0);
    t.Ops(1, s.ok() ? 0 : 1);
  }

  hdov::PersistStats stats;
  BuildStages st;
  std::optional<hdov::Testbed> bed;
  Result<std::unique_ptr<hdov::SnapshotWriter>> writer =
      hdov::SnapshotWriter::Create(traced, vopt.disk.page_size, &stats);
  Status s = writer.ok() ? TracedBuild(rec, rec->NewTrace(), topt, vopt,
                                       writer->get(), &st, &bed)
                         : writer.status();
  t.Ops(1, s.ok() ? 0 : 1);
  if (!s.ok()) {
    r->notes.push_back("trace/build: " + s.ToString());
  }
  t.Check(s.ok() && SameFileBytes(plain, traced),
          "trace/build: traced snapshot differs from the untraced one");

  // The R-tree backbone alone, built the way HdovBuilder::Build builds it
  // (insertion with the same options), as its own span.
  double rtree_s = 0.0;
  if (bed.has_value()) {
    ScopedSpan span(rec, "rtree.build", rec->NewTrace(), &rtree_s);
    hdov::RTree rtree(vopt.build.rtree);
    for (const hdov::Object& obj : bed->scene.objects()) {
      t.Check(rtree.Insert(obj.mbr, obj.id).ok(), "trace/rtree: insert");
    }
  }

  double stages = st.scene_s + st.precompute_s + st.tree_build_s +
                  st.tree_pack_s + st.write_s + st.commit_s;
  for (double x : st.store_s) {
    stages += x;
  }
  Add(r, "scene.generate_s", st.scene_s, "s");
  Add(r, "visibility.precompute_s", st.precompute_s, "s");
  Add(r, "visibility.us_per_sample",
      st.samples ? st.precompute_s * 1e6 / static_cast<double>(st.samples)
                 : 0.0,
      "us");
  Add(r, "visibility.samples", static_cast<double>(st.samples), "count");
  Add(r, "visibility.visible_ratio",
      st.pairs ? static_cast<double>(st.visible_pairs) /
                     static_cast<double>(st.pairs)
               : 0.0,
      "ratio");
  Add(r, "visibility.pairs", static_cast<double>(st.pairs), "count");
  Add(r, "hdov.tree_build_s", st.tree_build_s, "s");
  Add(r, "rtree.build_s", rtree_s, "s");
  Add(r, "hdov.tree_pack_s", st.tree_pack_s, "s");
  for (size_t i = 0; i < std::size(kSchemes); ++i) {
    Add(r, std::string("hdov.store_build_s.") + kSchemeLabel[i], st.store_s[i],
        "s");
  }
  for (size_t i = 0; i < std::size(kSchemes); ++i) {
    Add(r, std::string("hdov.store_pages.") + kSchemeLabel[i],
        static_cast<double>(st.store_pages[i]), "pages");
  }
  Add(r, "persist.snapshot_write_s", st.write_s, "s");
  Add(r, "persist.commit_s", st.commit_s, "s");
  Add(r, "persist.bytes_written", static_cast<double>(stats.bytes_written),
      "bytes");
  Add(r, "persist.fsyncs", static_cast<double>(stats.fsyncs), "count");
  Add(r, "build.untraced_s", untraced_s, "s");
  Add(r, "build.traced_s", st.total_s, "s");
  Add(r, "build.stage_cover_ratio", st.total_s > 0 ? stages / st.total_s : 0.0,
      "ratio");
  Add(r, "trace.overhead.build",
      untraced_s > 0 ? st.total_s / untraced_s - 1.0 : 0.0, "ratio");
  r->notes.push_back(
      "trace/build: visibility.precompute_s is " +
      Fmt("%.1f%% of the traced build; stages cover %.1f%%",
          st.total_s > 0 ? 100.0 * st.precompute_s / st.total_s : 0.0,
          st.total_s > 0 ? 100.0 * stages / st.total_s : 0.0));
  return s.ok() ? traced : std::string();
}

void TraceQueryPass(const RunConfig& cfg, double pass_s, SpanRecorder* rec,
                    RunResult* r) {
  Tally& t = r->tally;
  LoadedWorld plain, traced, twin;
  Status s = LoadQueryWorld(cfg.db, nullptr, 0, &plain);
  if (s.ok()) {
    s = LoadQueryWorld(cfg.db, rec, rec->NewTrace(), &traced);
  }
  if (s.ok()) {
    s = LoadQueryWorld(cfg.db, nullptr, 0, &twin);
  }
  t.Ops(3, s.ok() ? 0 : 1);
  if (!s.ok()) {
    r->notes.push_back("trace/query: " + s.ToString());
    return;
  }
  const std::vector<QueryInput> queries =
      MakeQueries(plain.world->scene.bounds(), kQueryStream,
                  SubSeed(cfg.seed, Stream::kQueries));

  // Warm passes: the untraced and traced systems must bill the stream
  // identically; the traced one's outcomes give the per-query counters.
  const SimTotals sim_plain = WarmPass(plain.system.get(), queries, &t);
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(queries.size());
  const SimTotals sim_traced =
      WarmPass(traced.system.get(), queries, &t, &outcomes);
  t.Check(sim_plain.sim_ms == sim_traced.sim_ms &&
              sim_plain.io_pages == sim_traced.io_pages,
          "trace/query: traced simulated cost differs from untraced");
  WarmPass(twin.system.get(), queries, &t);

  // Untraced and traced windows alternate, so that load from the rest of
  // the host falls on both alike.
  std::vector<Window> plain_w, traced_w;
  size_t next_plain = 0, next_traced = 0, next_search = 0;
  while (plain_w.size() * kWindowSeconds < pass_s) {
    for (Window& w : TimedQueries(plain.system.get(), queries, true,
                                  kWindowSeconds, nullptr, "", &next_plain,
                                  &t)) {
      plain_w.push_back(std::move(w));
    }
    for (Window& w : TimedQueries(traced.system.get(), queries, true,
                                  kWindowSeconds, rec, "walkthrough.query",
                                  &next_traced, &t)) {
      traced_w.push_back(std::move(w));
    }
  }
  const std::vector<double> traced_us = AllLatencies(traced_w);
  const std::vector<double> search_us =
      AllLatencies(TimedQueries(twin.system.get(), queries, false, pass_s, rec,
                                "hdov.search", &next_search, &t));

  double nodes = 0, vpages = 0, pruned = 0, terminations = 0, results = 0;
  double tree_pages = 0, store_pages = 0, model_pages = 0, seeks = 0;
  for (const QueryOutcome& o : outcomes) {
    nodes += static_cast<double>(o.stats.nodes_visited);
    vpages += static_cast<double>(o.stats.vpages_fetched);
    pruned += static_cast<double>(o.stats.hidden_entries_pruned);
    terminations += static_cast<double>(o.stats.internal_terminations);
    results += static_cast<double>(o.result.size());
    tree_pages += static_cast<double>(o.tree.page_reads);
    store_pages += static_cast<double>(o.store.page_reads);
    model_pages += static_cast<double>(o.model.page_reads);
    seeks += static_cast<double>(o.tree.seeks + o.store.seeks + o.model.seeks);
  }
  const double n = static_cast<double>(outcomes.size());
  Add(r, "persist.open_s", traced.open_s, "s");
  Add(r, "persist.load_world_s", traced.load_s, "s");
  Add(r, "walkthrough.attach_s", traced.attach_s, "s");
  AddPercentile(r, "hdov.search_us.p50", search_us, 0.5, "us");
  AddPercentile(r, "hdov.search_us.p99", search_us, 0.99, "us");
  Add(r, "hdov.search_samples", static_cast<double>(search_us.size()),
      "count");
  AddPercentile(r, "walkthrough.query_us.p50", traced_us, 0.5, "us");
  AddPercentile(r, "walkthrough.query_us.p99", traced_us, 0.99, "us");
  Add(r, "walkthrough.query_samples", static_cast<double>(traced_us.size()),
      "count");
  Add(r, "hdov.nodes_visited", nodes / n, "count/query");
  Add(r, "hdov.vpages_fetched", vpages / n, "count/query");
  Add(r, "hdov.hidden_pruned", pruned / n, "count/query");
  Add(r, "hdov.internal_terminations", terminations / n, "count/query");
  Add(r, "hdov.results_per_node", nodes > 0 ? results / nodes : 0.0, "ratio");
  Add(r, "storage.tree_pages", tree_pages / n, "pages/query");
  Add(r, "storage.store_pages", store_pages / n, "pages/query");
  Add(r, "storage.model_pages", model_pages / n, "pages/query");
  Add(r, "storage.seeks", seeks / n, "count/query");
  Add(r, "trace.overhead.query",
      SlowestTenth(plain_w).ops_per_s / SlowestTenth(traced_w).ops_per_s - 1.0,
      "ratio");
}

void TraceServePass(const RunConfig& cfg, double pass_s, SpanRecorder* rec,
                    RunResult* r) {
  Tally& t = r->tally;
  ServerSetup plain, traced;
  Status s = OpenServer(cfg, nullptr, 0, &plain);
  if (s.ok()) {
    s = OpenServer(cfg, rec, rec->NewTrace(), &traced);
  }
  t.Ops(2, s.ok() ? 0 : 1);
  if (!s.ok()) {
    r->notes.push_back("trace/serve: " + s.ToString());
    return;
  }
  // The untraced and traced servers play alternate rounds, so that load
  // from the rest of the host falls on both alike.
  ServeTotals plain_totals, totals;
  for (uint64_t epoch = 0;; ++epoch) {
    if (!PlayRound(cfg, &plain, epoch, nullptr, &plain_totals, &t) ||
        !PlayRound(cfg, &traced, epoch, rec, &totals, &t) ||
        (ServeDone(plain_totals, epoch + 1, pass_s) &&
         ServeDone(totals, epoch + 1, pass_s))) {
      break;
    }
  }
  bool same = plain_totals.first_round.size() == totals.first_round.size() &&
              plain_totals.sim_ms == totals.sim_ms &&
              plain_totals.io_pages == totals.io_pages;
  for (size_t i = 0; same && i < totals.first_round.size(); ++i) {
    same = SameSummary(plain_totals.first_round[i], totals.first_round[i]);
  }
  t.Check(same, "trace/serve: traced simulated cost differs from untraced");

  // Solo replay of the first round on twin file-backed systems: one renders
  // frames, the other runs the same frames' searches alone.
  std::vector<double> render_us, search_us;
  double models_fetched = 0.0;
  uint64_t max_resident = 0;
  Result<std::unique_ptr<hdov::SnapshotLoader>> loader =
      hdov::SnapshotLoader::Open(cfg.db);
  t.Check(loader.ok(), "trace/serve: snapshot does not reopen");
  for (size_t i = 0; loader.ok() && i < traced.first_round.size(); ++i) {
    const hdov::Session& session = traced.first_round[i];
    auto make = [&] {
      return VisualSystem::CreateFromSnapshot(
          **loader, &traced.server->scene(), &traced.server->grid(),
          hdov::DefaultVisualOptions(), hdov::SnapshotLoadMode::kFileBacked);
    };
    Result<std::unique_ptr<VisualSystem>> render = make();
    Result<std::unique_ptr<VisualSystem>> search = make();
    if (!render.ok() || !search.ok()) {
      t.Check(false, "trace/serve: twin systems do not load");
      continue;
    }
    hdov::SessionAccumulator acc;
    std::vector<RetrievedLod> lods;
    SearchStats stats;
    uint64_t failed = 0;
    for (const hdov::Viewpoint& vp : session.frames) {
      const uint32_t frame_trace = rec->NewTrace();
      hdov::FrameResult frame;
      double us = 0.0;
      {
        ScopedSpan span(rec, "walkthrough.render_frame", frame_trace, &us);
        failed += (*render)->RenderFrame(vp, &frame).ok() ? 0 : 1;
      }
      render_us.push_back(us * 1e6);
      acc.Add(frame);
      models_fetched += static_cast<double>(frame.models_fetched);
      max_resident = std::max(max_resident, frame.resident_bytes);
      {
        ScopedSpan span(rec, "hdov.search", frame_trace, &us);
        failed +=
            (*search)->Query(vp.position, false, &lods, &stats).ok() ? 0 : 1;
      }
      search_us.push_back(us * 1e6);
    }
    t.Ops(2 * session.frames.size(), failed);
    hdov::SessionSummary summary;
    summary.session_name = session.name;
    if (acc.count() > 0) {
      acc.FinishInto(&summary);
    }
    t.Check(i < totals.first_round.size() &&
                SameSummary(summary, totals.first_round[i]),
            "trace/serve: solo replay of " + session.name +
                " differs from the server");
  }

  const uint64_t lookups = totals.store_cache.hits + totals.store_cache.misses;
  const uint64_t tree_lookups =
      totals.tree_cache.hits + totals.tree_cache.misses;
  Add(r, "server.open_s", traced.open_s, "s");
  Add(r, "server.add_sessions_s", traced.add_s, "s");
  AddPercentile(r, "server.queue_wait_us.p50", totals.queue_us, 0.5, "us");
  AddPercentile(r, "server.queue_wait_us.p99", totals.queue_us, 0.99, "us");
  AddPercentile(r, "server.service_us.p50", totals.service_us, 0.5, "us");
  AddPercentile(r, "server.service_us.p99", totals.service_us, 0.99, "us");
  Add(r, "server.rounds", static_cast<double>(totals.rounds), "count");
  Add(r, "server.frames", static_cast<double>(totals.frames), "count");
  Add(r, "server.batched_ratio",
      totals.frames ? static_cast<double>(totals.batched_frames) /
                          static_cast<double>(totals.frames)
                    : 0.0,
      "ratio");
  Add(r, "storage.store_cache_hit_ratio",
      lookups ? static_cast<double>(totals.store_cache.hits) /
                    static_cast<double>(lookups)
              : 0.0,
      "ratio");
  Add(r, "storage.store_cache_lookups", static_cast<double>(lookups), "count");
  Add(r, "storage.store_cache_evictions",
      static_cast<double>(totals.store_cache.evictions), "count");
  AddPercentile(r, "walkthrough.render_frame_us.p50", render_us, 0.5, "us");
  AddPercentile(r, "walkthrough.render_frame_us.p99", render_us, 0.99, "us");
  Add(r, "walkthrough.replay_frames", static_cast<double>(render_us.size()),
      "count");
  AddPercentile(r, "hdov.search_us.walk.p50", search_us, 0.5, "us");
  Add(r, "walkthrough.models_fetched",
      render_us.empty() ? 0.0
                        : models_fetched / static_cast<double>(render_us.size()),
      "count/frame");
  Add(r, "walkthrough.resident_mb", static_cast<double>(max_resident) / kMiB,
      "MB");
  const double traced_rate = SlowestTenth(totals.windows).ops_per_s;
  Add(r, "trace.overhead.serve",
      traced_rate > 0
          ? SlowestTenth(plain_totals.windows).ops_per_s / traced_rate - 1.0
          : 0.0,
      "ratio");
  r->notes.push_back(
      tree_lookups == 0
          ? std::string("trace/serve: shared tree cache: no traffic "
                        "(0 lookups; tree reads bill without data)")
          : "trace/serve: shared tree cache hit ratio " +
                Fmt("%.4f of %.0f lookups",
                    static_cast<double>(totals.tree_cache.hits) /
                        static_cast<double>(tree_lookups),
                    static_cast<double>(tree_lookups)));
  r->notes.push_back(
      lookups == 0 ? std::string("trace/serve: shared store cache: no traffic")
                   : "trace/serve: shared store cache hit ratio " +
                         Fmt("%.4f of %.0f lookups",
                             static_cast<double>(totals.store_cache.hits) /
                                 static_cast<double>(lookups),
                             static_cast<double>(lookups)));
}

}  // namespace

hdov::Status PrepareWorld(const std::string& path) {
  const hdov::VisualOptions vopt = hdov::DefaultVisualOptions(kBuildThreads);
  HDOV_ASSIGN_OR_RETURN(
      std::unique_ptr<hdov::SnapshotWriter> writer,
      hdov::SnapshotWriter::Create(path, vopt.disk.page_size));
  HDOV_ASSIGN_OR_RETURN(hdov::Testbed bed,
                        hdov::BuildTestbed(LargeTestbed(kBuildThreads)));
  HDOV_RETURN_IF_ERROR(hdov::WriteWorldSnapshot(writer.get(), bed, vopt));
  return writer->Commit();
}

void RunWorkload(const RunConfig& config, RunResult* result) {
  if (config.workload == "build") {
    RunBuild(config, result);
  } else if (config.workload == "query") {
    RunQuery(config, result);
  } else {
    RunServe(config, result);
  }
}

void RunTraced(const RunConfig& config, const std::string& trace_path,
               RunResult* result) {
  SpanRecorder rec(kMaxSpans);
  RunConfig cfg = config;
  cfg.db = TraceBuildPass(config, &rec, result);
  // The three timed loops of each read-only pass share an eighth of the
  // run's seconds apiece; the build pass is as long as two builds.
  const double pass_s = std::max(1.0, config.seconds / 8.0);
  if (!cfg.db.empty()) {
    TraceQueryPass(cfg, pass_s, &rec, result);
    TraceServePass(cfg, pass_s, &rec, result);
  }
  Add(result, "trace.spans", static_cast<double>(rec.spans().size()), "count");
  Add(result, "trace.spans_dropped", static_cast<double>(rec.dropped()),
      "count");
  result->tally.Check(rec.WriteChromeTrace(trace_path),
                      "trace: cannot write " + trace_path);
}

}  // namespace perfbench
