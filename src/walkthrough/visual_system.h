// VisualSystem: the paper's VISUAL prototype — an HDoV-tree walkthrough
// with threshold-tunable LoD retrieval and a delta search that skips
// representations already resident from previous frames.

#ifndef HDOV_WALKTHROUGH_VISUAL_SYSTEM_H_
#define HDOV_WALKTHROUGH_VISUAL_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "hdov/builder.h"
#include "hdov/search.h"
#include "persist/snapshot.h"
#include "prefetch/fetch_queue.h"
#include "prefetch/prefetcher.h"
#include "scene/cell_grid.h"
#include "walkthrough/render_model.h"
#include "walkthrough/walkthrough_system.h"

namespace hdov {

struct VisualOptions {
  double eta = 0.001;
  StorageScheme scheme = StorageScheme::kIndexedVertical;
  HdovBuildOptions build;
  SearchOptions search;  // eta above overrides search.eta.
  RenderCostModel render;
  DiskModel disk;

  // Motion-directed prefetching (extension; the REVIEW system deployed
  // prefetching as well): during frames that fetch nothing, load up to
  // this many representations of the viewing cell ahead of the walker, so
  // crossing a cell border does not stall the frame. 0 (default) disables;
  // the walkthrough experiments enable it. Nonzero is the historical
  // alias for `prefetch = kSync` below; the billing sequence of that
  // combination is pinned by the committed walkthrough baselines.
  size_t prefetch_models_per_frame = 0;

  // The prefetch pipeline mode (src/prefetch/, docs/prefetch.md). kOff
  // (the seeded default unless HDOV_PREFETCH says otherwise) bills
  // exactly as a build without the subsystem. kAsync runs the
  // speculative end-of-frame pipeline with diverted billing + residency
  // credit; kSync is the legacy inline path (see the alias above).
  prefetch::PrefetchMode prefetch = prefetch::DefaultPrefetchMode();

  // Async mode: model representations warmed per plan and background
  // warm workers for the owned queue (ignored when an external queue is
  // supplied).
  size_t prefetch_max_models = 32;
  size_t prefetch_workers = 2;

  // Async mode: issue background warms into this (possibly shared) queue
  // instead of an owned one. The queue must outlive the system; servers
  // pass their per-process queue so sessions share workers.
  prefetch::AsyncFetchQueue* prefetch_queue = nullptr;

  // Worker threads for the offline per-cell V-page derivation inside
  // Create (0 = one per hardware thread). Affects build wall-clock only;
  // the built store is identical for every value.
  uint32_t build_threads = 1;
};

// Which of a session's three private billing devices a SharedWorldView
// device factory is being asked for.
enum class SessionDeviceRole { kTree = 0, kStore = 1, kModel = 2 };

// One fully built, immutable world, shared by many concurrently running
// session views (see CreateSessionView and src/server/). Everything here
// is read-only after construction: the scene, the grid, the packed tree,
// and the two metadata blobs. Only the device factory produces per-session
// state — each session gets three private devices billing into its own
// SimClock, which is what keeps per-session simulated counters independent
// of how sessions interleave. All referenced objects must outlive every
// session created from the view.
struct SharedWorldView {
  const Scene* scene = nullptr;
  const CellGrid* grid = nullptr;
  std::shared_ptr<const HdovTree> tree;
  // VisibilityStore::EncodeMeta blob of the scheme sessions will use
  // (must match VisualOptions::scheme at CreateSessionView time).
  std::string store_meta;
  // ModelStore::EncodeMeta blob.
  std::string model_meta;
  // Factory for a session's private devices; called three times per
  // session. The returned device must bill into `clock` and serve the
  // same page images as the world the metadata was encoded from.
  std::function<Result<std::unique_ptr<PageDevice>>(SessionDeviceRole,
                                                    SimClock* clock)>
      make_device;
  // Optional: the shared page cache background prefetch warms for a role
  // (servers hand out their ShardedBufferPools here). Null / returning
  // null makes warms read the session device's raw path instead.
  std::function<ShardedBufferPool*(SessionDeviceRole)> warm_pool;
};

// How CreateFromSnapshot materializes the snapshot's device sections.
enum class SnapshotLoadMode {
  // Copy every device image into memory devices (default): queries run
  // exactly as after Create, with no further file access.
  kMemoryResident = 0,
  // Serve pages straight from the snapshot file via FilePageDevice:
  // smaller resident footprint, same simulated billing.
  kFileBacked = 1,
};

class VisualSystem : public WalkthroughSystem {
 public:
  // `scene`, `grid` and `table` must outlive the system.
  static Result<std::unique_ptr<VisualSystem>> Create(
      const Scene* scene, const CellGrid* grid, const VisibilityTable* table,
      const VisualOptions& options);

  // Reattaches a world previously written by a snapshot build (see
  // tools/hdov_build and docs/storage.md) instead of rebuilding it.
  // `scene` and `grid` must be the snapshot's own world (normally decoded
  // from its "scene"/"cellgrid" sections) and must outlive the system. The
  // loaded system answers queries with results and simulated I/O counters
  // identical to a Create() over the same inputs.
  static Result<std::unique_ptr<VisualSystem>> CreateFromSnapshot(
      const SnapshotLoader& snapshot, const Scene* scene, const CellGrid* grid,
      const VisualOptions& options,
      SnapshotLoadMode mode = SnapshotLoadMode::kMemoryResident);

  // A lightweight per-session view over a world somebody else built: the
  // tree is shared (immutable after build), the store/model state is
  // reattached from the view's metadata blobs, and the three devices come
  // from the view's factory. Query results and simulated billing are
  // identical to a CreateFromSnapshot over the same world as long as the
  // factory's devices serve the same pages with the same DiskModel.
  static Result<std::unique_ptr<VisualSystem>> CreateSessionView(
      const SharedWorldView& world, const VisualOptions& options);

  std::string name() const override { return "VISUAL"; }
  Status RenderFrame(const Viewpoint& viewpoint, FrameResult* result) override;
  void ResetRuntime() override;
  const std::vector<RetrievedLod>& last_result() const override {
    return last_result_;
  }
  IoStats TotalIoStats() const override;
  void ResetIoStats() override;

  // Retunes the DoV threshold between sessions.
  void set_eta(double eta) { options_.eta = eta; }
  double eta() const { return options_.eta; }

  const HdovTree& tree() const { return *tree_; }
  // The shared-ownership handle to the (immutable) tree, for building a
  // SharedWorldView from a system that already loaded the world.
  std::shared_ptr<const HdovTree> shared_tree() const { return tree_; }
  VisibilityStore* store() const { return store_.get(); }
  const ModelStore& models() const { return *models_; }
  SimClock& clock() { return clock_; }
  PageDevice& tree_device() { return *tree_device_; }
  PageDevice& store_device() { return *store_device_; }
  PageDevice& model_device() { return *model_device_; }

  // Runs a single visibility query (search only; optionally fetching the
  // models). Exposed for the query benchmarks (Figs. 7-9).
  Status Query(const Vec3& position, bool fetch_models,
               std::vector<RetrievedLod>* result, SearchStats* stats);

  // Like Query (with model fetches) but with an explicit termination
  // heuristic; used by the heuristic ablation bench.
  Status QueryWithHeuristic(const Vec3& position,
                            TerminationHeuristic heuristic,
                            std::vector<RetrievedLod>* result);

  // The prefetch pipeline driving this system (null when prefetch is
  // off); benches read issued/used/wasted off its stats().
  const prefetch::Prefetcher* prefetcher() const { return prefetcher_.get(); }

 private:
  VisualSystem(const Scene* scene, const CellGrid* grid,
               const VisualOptions& options);

  // Searcher + cache wiring and counter reset shared by all factories.
  Status FinishConstruction();

  void RegisterTelemetry() override;
  // Folds one query's stats into the registry counters (telemetry only).
  void CountQuery(const SearchStats& stats);

  const Scene* scene_;
  const CellGrid* grid_;
  VisualOptions options_;

  SimClock clock_;
  // Owned behind pointers so CreateFromSnapshot can swap in file-backed
  // devices; the in-memory defaults are constructed up front.
  std::unique_ptr<PageDevice> tree_device_;
  std::unique_ptr<PageDevice> store_device_;
  std::unique_ptr<PageDevice> model_device_;
  std::unique_ptr<ModelStore> models_;
  // Immutable after the factory that built/loaded it returns; shared
  // across session views, so nothing below this line may mutate it.
  std::shared_ptr<const HdovTree> tree_;
  std::unique_ptr<VisibilityStore> store_;
  std::unique_ptr<HdovSearcher> searcher_;

  // Registry-owned metric handles; valid only while attached (the base
  // class unregisters the prefix on detach).
  telemetry::Counter* ctr_queries_ = nullptr;
  telemetry::Counter* ctr_nodes_visited_ = nullptr;
  telemetry::Counter* ctr_vpages_fetched_ = nullptr;
  telemetry::Counter* ctr_hidden_pruned_ = nullptr;
  telemetry::Counter* ctr_internal_terminations_ = nullptr;
  telemetry::Histogram* frame_time_hist_ = nullptr;
  // True while RenderFrame runs, so its inner Query does not emit a
  // second (kind "query") record for the same frame.
  bool in_frame_ = false;

  // Delta search bookkeeping, keyed by representation *owner* (object or
  // internal node): a resident representation at least as fine as the one
  // the query asks for is reused rather than refetched — the paper's
  // "does not retrieve objects that have been retrieved in earlier
  // operations", robust against LoD-level flicker across cell borders.
  struct ResidentEntry {
    uint32_t lod_level = 0;  // Level currently in memory (lower = finer).
    uint64_t byte_size = 0;
    uint32_t triangle_count = 0;
  };
  // Key: owner id with the representation kind in the top bit.
  static uint64_t ResidentKey(const RetrievedLod& lod) {
    return lod.owner |
           (lod.kind == RetrievedLod::Kind::kInternal ? (1ull << 63) : 0);
  }

  std::unordered_map<uint64_t, ResidentEntry> resident_;
  std::vector<RetrievedLod> last_result_;
  // Sync-mode prefetch: representations loaded ahead of the cell flip,
  // pinned into resident_ every frame (plan/cursor state lives in the
  // prefetcher; this map is the legacy PrefetchState::loaded).
  std::unordered_map<uint64_t, ResidentEntry> prefetch_loaded_;
  // For session views: the shared warm-pool lookup from SharedWorldView.
  std::function<ShardedBufferPool*(SessionDeviceRole)> warm_pool_;
  // Declared after the devices and the queue on purpose: the prefetcher's
  // destructor uninstalls the device residency gates and drains its warms
  // out of the queue, so it must go first.
  std::unique_ptr<prefetch::AsyncFetchQueue> own_queue_;
  std::unique_ptr<prefetch::Prefetcher> prefetcher_;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_VISUAL_SYSTEM_H_
