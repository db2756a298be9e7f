#include "walkthrough/visual_system.h"

#include <algorithm>
#include <unordered_set>

#include "persist/world_codec.h"
#include "telemetry/trace_context.h"

namespace hdov {

VisualSystem::VisualSystem(const Scene* scene, const CellGrid* grid,
                           const VisualOptions& options)
    : scene_(scene), grid_(grid), options_(options),
      tree_device_(std::make_unique<PageDevice>(options.disk, &clock_)),
      store_device_(std::make_unique<PageDevice>(options.disk, &clock_)),
      model_device_(std::make_unique<PageDevice>(options.disk, &clock_)),
      models_(std::make_unique<ModelStore>(model_device_.get())) {}

// Shared tail of the three factories: wire the searcher, then zero every
// simulated counter and the disk-head trackers so measured workloads start
// from an identical state on every path.
Status VisualSystem::FinishConstruction() {
  searcher_ = std::make_unique<HdovSearcher>(tree_.get(), scene_,
                                             models_.get(),
                                             tree_device_.get());
  // Nonzero prefetch_models_per_frame is the historical way to ask for
  // the (then-inline) synchronous prefetch; it keeps meaning exactly
  // that.
  if (options_.prefetch == prefetch::PrefetchMode::kOff &&
      options_.prefetch_models_per_frame > 0) {
    options_.prefetch = prefetch::PrefetchMode::kSync;
  }
  if (options_.prefetch != prefetch::PrefetchMode::kOff) {
    prefetch::PrefetcherOptions popt;
    popt.mode = options_.prefetch;
    popt.max_models = options_.prefetch_max_models;
    prefetch::PrefetcherWiring wiring;
    wiring.grid = grid_;
    if (options_.prefetch == prefetch::PrefetchMode::kAsync) {
      wiring.scene = scene_;
      wiring.tree = tree_;
      wiring.scheme = options_.scheme;
      store_->EncodeMeta(&wiring.store_meta);
      wiring.models = models_.get();
      wiring.tree_device = tree_device_.get();
      wiring.store_device = store_device_.get();
      wiring.model_device = model_device_.get();
      if (options_.prefetch_queue != nullptr) {
        wiring.queue = options_.prefetch_queue;
      } else {
        prefetch::FetchQueueOptions qopt;
        qopt.workers = options_.prefetch_workers;
        own_queue_ = std::make_unique<prefetch::AsyncFetchQueue>(qopt);
        wiring.queue = own_queue_.get();
      }
      if (warm_pool_) {
        auto warm = warm_pool_;
        wiring.warm_pool = [warm](prefetch::PrefetchRole role) {
          return warm(static_cast<SessionDeviceRole>(static_cast<int>(role)));
        };
      }
      wiring.is_resident = [this](const RetrievedLod& lod) {
        auto it = resident_.find(ResidentKey(lod));
        return it != resident_.end() && it->second.lod_level <= lod.lod_level;
      };
    }
    HDOV_ASSIGN_OR_RETURN(prefetcher_,
                          prefetch::Prefetcher::Create(wiring, popt));
  }
  tree_device_->ResetAccessTracker();
  store_device_->ResetAccessTracker();
  model_device_->ResetAccessTracker();
  ResetIoStats();
  return Status::OK();
}

Result<std::unique_ptr<VisualSystem>> VisualSystem::Create(
    const Scene* scene, const CellGrid* grid, const VisibilityTable* table,
    const VisualOptions& options) {
  if (grid->num_cells() != table->num_cells()) {
    return Status::InvalidArgument(
        "visual: grid and visibility table disagree on cell count");
  }
  auto system = std::unique_ptr<VisualSystem>(
      new VisualSystem(scene, grid, options));
  // Build and pack mutate the tree; afterwards it is frozen behind a
  // shared const handle (sessions of a server may alias it).
  HDOV_ASSIGN_OR_RETURN(
      HdovTree built,
      HdovBuilder::Build(*scene, system->models_.get(), options.build));
  HDOV_RETURN_IF_ERROR(built.Pack(system->tree_device_.get()));
  system->tree_ = std::make_shared<const HdovTree>(std::move(built));
  HDOV_ASSIGN_OR_RETURN(
      system->store_,
      BuildStore(options.scheme, *system->tree_, *table,
                 system->store_device_.get(), options.build_threads));
  HDOV_RETURN_IF_ERROR(system->FinishConstruction());
  return system;
}

Result<std::unique_ptr<VisualSystem>> VisualSystem::CreateFromSnapshot(
    const SnapshotLoader& snapshot, const Scene* scene, const CellGrid* grid,
    const VisualOptions& options, SnapshotLoadMode mode) {
  if (snapshot.page_size() != options.disk.page_size) {
    return Status::InvalidArgument(
        "visual: snapshot page size does not match the disk model");
  }
  auto system = std::unique_ptr<VisualSystem>(
      new VisualSystem(scene, grid, options));
  const std::string scheme = StorageSchemeName(options.scheme);
  if (mode == SnapshotLoadMode::kFileBacked) {
    HDOV_ASSIGN_OR_RETURN(
        system->tree_device_,
        snapshot.OpenDevice(kSectionTreeDevice, options.disk,
                            &system->clock_));
    HDOV_ASSIGN_OR_RETURN(
        system->store_device_,
        snapshot.OpenDevice(StoreDeviceSection(scheme), options.disk,
                            &system->clock_));
    HDOV_ASSIGN_OR_RETURN(
        system->model_device_,
        snapshot.OpenDevice(kSectionModelDevice, options.disk,
                            &system->clock_));
  } else {
    HDOV_RETURN_IF_ERROR(snapshot.RestoreDevice(kSectionTreeDevice,
                                                system->tree_device_.get()));
    HDOV_RETURN_IF_ERROR(snapshot.RestoreDevice(
        StoreDeviceSection(scheme), system->store_device_.get()));
    HDOV_RETURN_IF_ERROR(snapshot.RestoreDevice(kSectionModelDevice,
                                                system->model_device_.get()));
  }
  system->models_ =
      std::make_unique<ModelStore>(system->model_device_.get());
  HDOV_ASSIGN_OR_RETURN(std::string model_meta,
                        snapshot.ReadBlob(kSectionModelMeta));
  HDOV_RETURN_IF_ERROR(system->models_->RestoreMeta(model_meta));
  HDOV_ASSIGN_OR_RETURN(std::string manifest,
                        snapshot.ReadBlob(kSectionTreeManifest));
  HDOV_ASSIGN_OR_RETURN(
      HdovTree loaded,
      HdovTree::FromManifest(system->tree_device_.get(), manifest));
  system->tree_ = std::make_shared<const HdovTree>(std::move(loaded));
  HDOV_ASSIGN_OR_RETURN(std::string store_meta,
                        snapshot.ReadBlob(StoreMetaSection(scheme)));
  HDOV_ASSIGN_OR_RETURN(
      system->store_,
      LoadStore(options.scheme, *system->tree_, store_meta,
                system->store_device_.get()));
  HDOV_RETURN_IF_ERROR(system->FinishConstruction());
  return system;
}

Result<std::unique_ptr<VisualSystem>> VisualSystem::CreateSessionView(
    const SharedWorldView& world, const VisualOptions& options) {
  if (world.scene == nullptr || world.grid == nullptr ||
      world.tree == nullptr || !world.make_device) {
    return Status::InvalidArgument(
        "visual: shared world view is missing a component");
  }
  auto system = std::unique_ptr<VisualSystem>(
      new VisualSystem(world.scene, world.grid, options));
  HDOV_ASSIGN_OR_RETURN(
      system->tree_device_,
      world.make_device(SessionDeviceRole::kTree, &system->clock_));
  HDOV_ASSIGN_OR_RETURN(
      system->store_device_,
      world.make_device(SessionDeviceRole::kStore, &system->clock_));
  HDOV_ASSIGN_OR_RETURN(
      system->model_device_,
      world.make_device(SessionDeviceRole::kModel, &system->clock_));
  system->warm_pool_ = world.warm_pool;
  system->models_ =
      std::make_unique<ModelStore>(system->model_device_.get());
  HDOV_RETURN_IF_ERROR(system->models_->RestoreMeta(world.model_meta));
  system->tree_ = world.tree;
  HDOV_ASSIGN_OR_RETURN(
      system->store_,
      LoadStore(options.scheme, *system->tree_, world.store_meta,
                system->store_device_.get()));
  HDOV_RETURN_IF_ERROR(system->FinishConstruction());
  return system;
}

void VisualSystem::RegisterTelemetry() {
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  const std::string& p = telemetry_prefix();
  tree_device_->RegisterWith(&m, p + ".io.tree");
  store_device_->RegisterWith(&m, p + ".io.store");
  model_device_->RegisterWith(&m, p + ".io.model");
  store_->RegisterTelemetry(&m, p);
  if (prefetcher_ != nullptr &&
      prefetcher_->mode() == prefetch::PrefetchMode::kAsync) {
    // Async only: the sync fold must not add metrics the pinned baseline
    // snapshots do not carry.
    prefetcher_->RegisterTelemetry(&m, p);
  }
  ctr_queries_ = m.GetCounter(p + ".search.queries");
  ctr_nodes_visited_ = m.GetCounter(p + ".search.nodes_visited");
  ctr_vpages_fetched_ = m.GetCounter(p + ".search.vpages_fetched");
  ctr_hidden_pruned_ = m.GetCounter(p + ".search.hidden_pruned");
  ctr_internal_terminations_ =
      m.GetCounter(p + ".search.internal_terminations");
  frame_time_hist_ = m.GetHistogram(
      p + ".frame.time_ms", telemetry::ExponentialBuckets(0.25, 2.0, 14));
  // The node-fanout distribution is a build-time property; fill it once.
  telemetry::Histogram* fanout = m.GetHistogram(
      p + ".tree.node_fanout",
      telemetry::LinearBuckets(2.0, 2.0,
                               std::max<size_t>(2, tree_->fanout() / 2 + 1)));
  for (size_t i = 0; i < tree_->num_nodes(); ++i) {
    fanout->Observe(static_cast<double>(tree_->node(i).entries.size()));
  }
}

void VisualSystem::CountQuery(const SearchStats& stats) {
  ctr_queries_->Increment();
  ctr_nodes_visited_->Add(stats.nodes_visited);
  ctr_vpages_fetched_->Add(stats.vpages_fetched);
  ctr_hidden_pruned_->Add(stats.hidden_entries_pruned);
  ctr_internal_terminations_->Add(stats.internal_terminations);
}

Status VisualSystem::Query(const Vec3& position, bool fetch_models,
                           std::vector<RetrievedLod>* result,
                           SearchStats* stats) {
  const CellId cell = grid_->ClampedCellForPoint(position);
  SearchOptions search = options_.search;
  search.eta = options_.eta;
  const bool telemetry_on = TelemetryOn();
  SearchStats local_stats;
  SearchStats* stats_out =
      stats != nullptr ? stats : (telemetry_on ? &local_stats : nullptr);
  const double t0 = clock_.NowMillis();
  const IoStats tree0 = tree_device_->stats();
  const IoStats store0 = store_device_->stats();
  const IoStats model0 = model_device_->stats();
  if (telemetry_on) {
    // Trace sampling: only 1-in-N queries carry a full span tree; the
    // flight recorder still sees every page/pool event regardless.
    telemetry::TraceRecorder& tracer = telemetry()->tracer();
    if (tracer.SampleQuery()) {
      search.trace = &tracer;
    }
  }
  HDOV_RETURN_IF_ERROR(
      searcher_->Search(store_.get(), cell, search, result, stats_out));
  if (fetch_models) {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kFetch);
    telemetry::FlightReadBatch batch(telemetry::GlobalFlightRecorder());
    for (const RetrievedLod& lod : *result) {
      HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
    }
  }
  if (telemetry_on) {
    CountQuery(*stats_out);
    if (!in_frame_) {
      // Standalone query (the Figs. 7-9 bench path): emit its own record.
      FrameResult r;
      r.query_time_ms = clock_.NowMillis() - t0;
      const IoStats tree_d = tree_device_->stats().Delta(tree0);
      const IoStats store_d = store_device_->stats().Delta(store0);
      const IoStats model_d = model_device_->stats().Delta(model0);
      r.light_io_pages = tree_d.page_reads + store_d.page_reads;
      r.io_pages = r.light_io_pages + model_d.page_reads;
      r.index_bytes_read = tree_d.bytes_read;
      r.store_bytes_read = store_d.bytes_read;
      r.model_bytes_read = model_d.bytes_read;
      r.search = *stats_out;
      r.models_fetched = fetch_models ? result->size() : 0;
      EmitFrameRecord(r, cell, "query");
    }
  }
  return Status::OK();
}

Status VisualSystem::QueryWithHeuristic(const Vec3& position,
                                        TerminationHeuristic heuristic,
                                        std::vector<RetrievedLod>* result) {
  const CellId cell = grid_->ClampedCellForPoint(position);
  SearchOptions search = options_.search;
  search.eta = options_.eta;
  search.heuristic = heuristic;
  HDOV_RETURN_IF_ERROR(
      searcher_->Search(store_.get(), cell, search, result, nullptr));
  telemetry::FlightReadBatch batch(telemetry::GlobalFlightRecorder());
  for (const RetrievedLod& lod : *result) {
    HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
  }
  return Status::OK();
}

Status VisualSystem::RenderFrame(const Viewpoint& viewpoint,
                                 FrameResult* result) {
  telemetry::FlightFrameScope flight(FlightCode(), NextFlightFrame());
  const CellId frame_cell = grid_->ClampedCellForPoint(viewpoint.position);
  if (prefetcher_ != nullptr) {
    // Async pipeline: runs staged at the end of the previous frame have
    // completed in the frame gap — publish them resident before anything
    // bills. No-op in sync mode / when nothing was staged.
    prefetcher_->BeginFrame();
  }
  const double t0 = clock_.NowMillis();
  const IoStats tree0 = tree_device_->stats();
  const IoStats store0 = store_device_->stats();
  const IoStats model0 = model_device_->stats();

  in_frame_ = true;
  struct InFrameGuard {
    bool* flag;
    ~InFrameGuard() { *flag = false; }
  } in_frame_guard{&in_frame_};

  HDOV_RETURN_IF_ERROR(
      Query(viewpoint.position, /*fetch_models=*/false, &last_result_,
            &result->search));

  // Delta search: a representation whose owner is already resident at the
  // required (or a finer) LoD is reused; otherwise the requested level is
  // fetched. Afterwards only the current working set stays resident
  // (semantic replacement).
  size_t fetched = 0;
  std::unordered_map<uint64_t, ResidentEntry> next_resident;
  next_resident.reserve(last_result_.size());
  uint64_t triangles = 0;
  {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kFetch);
    telemetry::FlightReadBatch batch(telemetry::GlobalFlightRecorder());
    for (const RetrievedLod& lod : last_result_) {
      const uint64_t key = ResidentKey(lod);
      ResidentEntry entry{lod.lod_level, lod.byte_size, lod.triangle_count};
      auto it = resident_.find(key);
      const bool reusable =
          delta_enabled_ && it != resident_.end() &&
          it->second.lod_level <= lod.lod_level;  // Finer or equal resident.
      if (reusable) {
        entry = it->second;  // Render the (possibly finer) resident copy.
      } else {
        HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
        ++fetched;
      }
      triangles += entry.triangle_count;
      next_resident[key] = entry;
    }
  }
  resident_ = std::move(next_resident);

  // Sync-mode idle-frame prefetching toward the predicted next cell (the
  // legacy inline path, now folded into the prefetcher but driven through
  // hooks so the billing sequence is unchanged). Prefetched
  // representations are pinned in the resident set so the eventual cell
  // flip finds them loaded.
  if (prefetcher_ != nullptr &&
      prefetcher_->mode() == prefetch::PrefetchMode::kSync &&
      options_.prefetch_models_per_frame > 0 && delta_enabled_ &&
      fetched == 0) {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kPrefetch);
    prefetch::Prefetcher::SyncHooks hooks;
    hooks.search = [this](CellId cell, std::vector<RetrievedLod>* out) {
      SearchOptions search = options_.search;
      search.eta = options_.eta;
      return searcher_->Search(store_.get(), cell, search, out, nullptr);
    };
    hooks.clear_loaded = [this] { prefetch_loaded_.clear(); };
    hooks.should_skip = [this](const RetrievedLod& lod) {
      const uint64_t key = ResidentKey(lod);
      auto it = resident_.find(key);
      if (it != resident_.end() && it->second.lod_level <= lod.lod_level) {
        return true;  // Already resident at sufficient detail.
      }
      auto pf = prefetch_loaded_.find(key);
      return pf != prefetch_loaded_.end() &&
             pf->second.lod_level <= lod.lod_level;
    };
    hooks.fetch = [this](const RetrievedLod& lod) {
      HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
      prefetch_loaded_[ResidentKey(lod)] =
          ResidentEntry{lod.lod_level, lod.byte_size, lod.triangle_count};
      return Status::OK();
    };
    HDOV_RETURN_IF_ERROR(prefetcher_->SyncStep(
        viewpoint, frame_cell, options_.prefetch_models_per_frame, hooks,
        &fetched));
  }
  for (const auto& [key, entry] : prefetch_loaded_) {
    resident_.emplace(key, entry);  // Keep current-result entries as-is.
  }

  // Async pipeline: end-of-frame speculation toward the predicted next
  // cell. Billing inside is diverted (frame counters and the clock do not
  // move); the discovered page runs are staged for residency at the next
  // BeginFrame and handed to the background queue to warm for real.
  if (prefetcher_ != nullptr &&
      prefetcher_->mode() == prefetch::PrefetchMode::kAsync) {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kPrefetch);
    SearchOptions search = options_.search;
    search.eta = options_.eta;
    HDOV_RETURN_IF_ERROR(
        prefetcher_->EndFrame(viewpoint, frame_cell, search));
  }

  telemetry::StageTraceScope render_stage(telemetry::TraceStage::kRender);
  const IoStats tree_d = tree_device_->stats().Delta(tree0);
  const IoStats store_d = store_device_->stats().Delta(store0);
  const IoStats model_d = model_device_->stats().Delta(model0);

  result->query_time_ms = clock_.NowMillis() - t0;
  result->light_io_pages = tree_d.page_reads + store_d.page_reads;
  result->io_pages = result->light_io_pages + model_d.page_reads;
  result->index_bytes_read = tree_d.bytes_read;
  result->store_bytes_read = store_d.bytes_read;
  result->model_bytes_read = model_d.bytes_read;
  result->rendered_triangles = triangles;
  result->models_fetched = fetched;
  result->resident_bytes = 0;
  for (const auto& [key, entry] : resident_) {
    result->resident_bytes += entry.byte_size;
  }
  result->frame_time_ms =
      result->query_time_ms + options_.render.FrameMillis(triangles);
  flight.set_io_pages(result->io_pages);
  if (TelemetryOn()) {
    frame_time_hist_->Observe(result->frame_time_ms);
    EmitFrameRecord(*result, frame_cell);
  }
  return Status::OK();
}

void VisualSystem::ResetRuntime() {
  resident_.clear();
  last_result_.clear();
  prefetch_loaded_.clear();
  if (prefetcher_ != nullptr) {
    prefetcher_->Reset();
  }
}

IoStats VisualSystem::TotalIoStats() const {
  IoStats s = tree_device_->stats();
  s += store_device_->stats();
  s += model_device_->stats();
  return s;
}

void VisualSystem::ResetIoStats() {
  tree_device_->ResetStats();
  store_device_->ResetStats();
  model_device_->ResetStats();
  clock_.Reset();
}

}  // namespace hdov
