// Visibility precomputation: evaluates the region DoV of every object for
// every viewing cell — the offline step the paper runs before building the
// HDoV-tree V-pages ("a conservative visibility algorithm is applied on
// pre-determined cells ... a DoV algorithm is then applied on the visible
// set").
//
// Each viewpoint sample is evaluated by DovComputer in one near-to-far
// pass on a cube-map buffer whose z-test does not depend on draw order,
// culling every (object, cube face) pair that provably cannot change a
// pixel. The table is bit-identical to rasterizing every object onto
// every face (the exactness argument is in visibility/dov.h), at a cost
// that follows the visible set. The near-to-far order is sorted once per
// cell, from its first sample.
//
// Cells are independent of each other, so the pass fans out over a worker
// pool (PrecomputeOptions::threads). Each worker owns a private
// DovComputer (cube-map buffer included) and writes only its own cells'
// slots; a cell's result depends on nothing but the cell, so the output
// is bit-identical for every thread count, including the sequential
// threads = 1 default that reproduces the paper's numbers.

#ifndef HDOV_VISIBILITY_PRECOMPUTE_H_
#define HDOV_VISIBILITY_PRECOMPUTE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "scene/cell_grid.h"
#include "scene/object.h"
#include "telemetry/telemetry.h"
#include "visibility/dov.h"

namespace hdov {

// Sparse per-cell visibility: only objects with DoV > 0 are stored,
// sorted by object id.
struct CellVisibility {
  std::vector<ObjectId> ids;
  std::vector<float> dov;  // Parallel to `ids`.

  size_t num_visible() const { return ids.size(); }

  // DoV of `id` from this cell; 0 when the object is hidden.
  float DovOf(ObjectId id) const;
};

struct PrecomputeOptions {
  DovOptions dov;
  // Viewpoint samples per cell for the conservative max of Eq. 2:
  // 1 = center only, 5 = center + mid-height corners, 9 = full corners.
  int samples_per_cell = 5;

  // Nudge sample viewpoints that land inside an object's MBR to just
  // outside it. Viewing cells tile the whole ground plane, so cell
  // corners/centers can fall inside buildings; a viewpoint inside an
  // occluder would see nothing but that occluder, which no real walker
  // experiences.
  bool avoid_object_interiors = true;

  // Worker threads for the per-cell fan-out. 1 (default) runs entirely on
  // the calling thread; N >= 2 runs N workers plus the calling thread, and
  // 0 one worker per hardware thread plus the calling thread. Output is
  // identical for every value (see the header comment).
  uint32_t threads = 1;

  // Optional observability: when set (and enabled), the pass bumps
  // `precompute.*` counters/histograms and — if the tracer is enabled —
  // merges one "cell" span per cell, in cell order, under a "precompute"
  // root span. Workers record into private buffers; the shared registry
  // handles are atomic, so no thread ever touches another's state.
  telemetry::Telemetry* telemetry = nullptr;
};

class VisibilityTable {
 public:
  VisibilityTable() = default;
  explicit VisibilityTable(std::vector<CellVisibility> cells)
      : cells_(std::move(cells)) {}

  uint32_t num_cells() const { return static_cast<uint32_t>(cells_.size()); }
  const CellVisibility& cell(CellId id) const { return cells_[id]; }

  double AverageVisibleObjects() const;

 private:
  std::vector<CellVisibility> cells_;
};

// Runs the DoV precomputation for every cell of `grid`. The optional
// `progress` callback receives (cells_done, cells_total); with threads >
// 1 it is invoked from worker threads, serialized under a mutex, with
// cells_done strictly increasing (completion order, not cell order).
Result<VisibilityTable> PrecomputeVisibility(
    const Scene& scene, const CellGrid& grid, const PrecomputeOptions& options,
    const std::function<void(uint32_t, uint32_t)>& progress = nullptr);

// The viewpoint samples of cell `id`, centre first: 1 = centre only, 2–5
// add the mid-height xy corners, 6–9 the cell box corners. Exposed for
// testing; PrecomputeVisibility evaluates these (pushed out of objects
// when avoid_object_interiors is on).
std::vector<Vec3> CellSamples(const CellGrid& grid, CellId id,
                              int samples_per_cell);

// Moves `p` out of any object MBR it lies inside, along the cheapest xy
// axis (smallest penetration — stepping over a building is not an option
// for an eye-height viewpoint). A few rounds handle points inside
// overlapping boxes; pathological cases give up after four rounds and
// return the last position. Exposed for testing; PrecomputeVisibility
// applies it to every viewpoint sample when avoid_object_interiors is on.
Vec3 PushOutOfObjects(const Scene& scene, Vec3 p);

}  // namespace hdov

#endif  // HDOV_VISIBILITY_PRECOMPUTE_H_
