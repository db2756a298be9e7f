// HdovSearcher: the threshold-based visibility search of the HDoV-tree
// (paper Fig. 3). Given a viewing cell and a DoV threshold eta:
//  - entries with DoV = 0 are pruned (hidden branches cost nothing);
//  - a visible internal entry terminates the descent with one of the child
//    node's internal LoDs when DoV <= eta AND the Eq. 4 heuristic
//    h (1 + log_M s) < log_M NVO says the internal LoD carries fewer
//    polygons than the entry's visible descendants;
//  - internal LoD resolution follows Eq. 5 (blend factor DoV/eta), object
//    LoD resolution follows Eq. 6 (blend factor DoV/MAXDOV, MAXDOV = 0.5).

#ifndef HDOV_HDOV_SEARCH_H_
#define HDOV_HDOV_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/frustum.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "scene/object.h"
#include "storage/model_store.h"
#include "telemetry/trace.h"

namespace hdov {

// Spherical projection of an object never exceeds half the sphere when the
// viewpoint is outside its bounding box (paper §3.3).
inline constexpr double kMaxDov = 0.5;

// The second termination condition of Fig. 3 line 7 (applied after
// DoV <= eta holds).
enum class TerminationHeuristic : uint8_t {
  // The paper's Eq. 4: h (1 + log_M s) < log_M NVO. Assumes descendants
  // would be fetched at full resolution, so it can occasionally terminate
  // where the internal LoD is heavier than the few coarse objects it
  // replaces.
  kEq4 = 0,
  // No second condition: terminate on eta alone (ablation).
  kNone = 1,
  // LoD-aware refinement (extension): estimate the triangles a descent
  // would actually retrieve — NVO objects at the Eq. 6 level of their
  // average DoV — and terminate only when the selected internal LoD is
  // lighter.
  kCostModel = 2,
};

struct SearchOptions {
  // The DoV threshold eta. 0 disables internal-LoD termination entirely
  // (the tree degenerates to the naive cell/list behaviour).
  double eta = 0.001;

  TerminationHeuristic heuristic = TerminationHeuristic::kEq4;

  // kCostModel only: assumed coarsest-LoD fraction of an object chain
  // (matches LodChainOptions::ratios.back() of the scene build).
  double assumed_coarsest_ratio = 0.05;

  // When set, the traversal records a span tree under an open "search"
  // root: a "node" span per visited node with "prune" / "object" /
  // "terminate" / "descend" children carrying DoV, NVO and the Eq. 4
  // operands. Null (the default) costs nothing.
  telemetry::TraceRecorder* trace = nullptr;
};

struct RetrievedLod {
  enum class Kind : uint8_t { kObject = 0, kInternal = 1 };
  Kind kind = Kind::kObject;
  uint64_t owner = 0;  // ObjectId (kObject) or node index (kInternal).
  uint32_t lod_level = 0;
  ModelId model = kInvalidModel;
  uint32_t triangle_count = 0;
  uint64_t byte_size = 0;
  float dov = 0.0f;
};

struct SearchStats {
  uint64_t nodes_visited = 0;
  uint64_t vpages_fetched = 0;
  uint64_t hidden_entries_pruned = 0;
  uint64_t internal_terminations = 0;
};

// Reorders a retrieval set for progressive loading (the paper's §3.2
// third advantage and stated future work: "regions that are closer to the
// current view frustum can be traversed first, while regions that are
// outside the view frustum can be delayed"). Representations whose MBR
// intersects the frustum come first, sorted by descending DoV (most
// noticeable first); the rest follow, nearest first. Fetching in this
// order minimizes the time until what the user actually faces is on
// screen.
void PrioritizeRetrieval(const Frustum& frustum, const HdovTree& tree,
                         const Scene& scene,
                         std::vector<RetrievedLod>* result);

class HdovSearcher {
 public:
  // `tree_device` is billed one page read per visited node (pass nullptr
  // to skip node-page billing, e.g. for pure algorithmic tests).
  HdovSearcher(const HdovTree* tree, const Scene* scene,
               const ModelStore* models, PageDevice* tree_device);

  // Runs the Fig. 3 traversal for `cell`. The result lists every LoD
  // representation to retrieve; fetching their model data is the caller's
  // choice (Fig. 8 separates light-weight from total I/O).
  Status Search(VisibilityStore* store, CellId cell,
                const SearchOptions& options, std::vector<RetrievedLod>* result,
                SearchStats* stats = nullptr);

 private:
  Status SearchNode(VisibilityStore* store, size_t node_index,
                    const SearchOptions& options,
                    std::vector<RetrievedLod>* result, SearchStats* stats);

  const HdovTree* tree_;
  const Scene* scene_;
  const ModelStore* models_;
  PageDevice* tree_device_;
  double log_fanout_ = 1.0;
  // Several nodes share a page; re-reading the page just read is free
  // (it is still in the transfer buffer).
  PageId last_node_page_ = kInvalidPage;
};

}  // namespace hdov

#endif  // HDOV_HDOV_SEARCH_H_
