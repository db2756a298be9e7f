// Prefetch mode selection and the motion predictor feeding the prefetch
// pipeline (src/prefetch/, docs/prefetch.md).
//
// Two prediction flavors live here:
//  - PredictFromLook: the legacy synchronous heuristic — step one cell
//    stride along the horizontal look direction. Kept bit-identical to
//    the old VisualSystem::RunPrefetch probe (same stride, same clamp)
//    except for the degenerate-direction guard: a vertical look used to
//    normalize a (near-)zero-length vector, feeding a garbage probe into
//    ClampedCellForPoint; now it simply predicts nothing.
//  - Observe: the velocity model — an exponentially weighted average of
//    per-frame position deltas. Looking sideways while strafing predicts
//    the cell the walker is MOVING into, not the one they are facing;
//    when the walker is (near) stationary the look direction is the only
//    signal left and Observe falls back to it.

#ifndef HDOV_PREFETCH_PREDICTOR_H_
#define HDOV_PREFETCH_PREDICTOR_H_

#include <cstdint>
#include <string_view>

#include "geometry/vec3.h"
#include "scene/cell_grid.h"
#include "scene/session.h"

namespace hdov::prefetch {

// How a VisualSystem prefetches (VisualOptions::prefetch):
//  - kOff: no prefetcher is constructed at all. Billing, metrics, and
//    flight traffic are bit-identical to a build without the subsystem
//    (the zero-drift contract CI enforces against all committed
//    baselines).
//  - kSync: the legacy model-prefetch path — on idle frames, fetch up to
//    a budget of the predicted next cell's models on the frame's own
//    clock. VisualOptions::prefetch_models_per_frame > 0 selects this
//    mode implicitly (the historical knob is the sync alias).
//  - kAsync: the overlapped pipeline — a speculative search of the
//    predicted cell runs at end of frame under a billing diversion, its
//    pages become resident the next frame, and billed reads of resident
//    pages are consumed for free (see storage/page_device.h).
enum class PrefetchMode : uint8_t {
  kOff = 0,
  kSync = 1,
  kAsync = 2,
};

const char* PrefetchModeName(PrefetchMode mode);

// Parses "off" / "sync" / "async"; returns false (leaving *mode alone) on
// anything else.
bool ParsePrefetchMode(std::string_view name, PrefetchMode* mode);

// Process-wide default mode, seeding VisualOptions::prefetch. Initialized
// once from the HDOV_PREFETCH environment variable ("off"/"sync"/"async",
// unset or unparseable = kOff) so whole test/bench binaries can be
// flipped without touching call sites; mutable for flag plumbing
// (bench --prefetch=...).
PrefetchMode& DefaultPrefetchMode();

struct CellPrediction {
  CellId cell = kInvalidCell;
  bool valid = false;  // False: no usable direction, or staying put.
};

class VelocityPredictor {
 public:
  explicit VelocityPredictor(const CellGrid* grid) : grid_(grid) {}

  // Stateless look-direction prediction (the sync path's heuristic).
  CellPrediction PredictFromLook(const Viewpoint& viewpoint,
                                 CellId current_cell) const;

  // Folds this frame's position into the velocity average and predicts
  // the next cell from it (look-direction fallback when stationary).
  CellPrediction Observe(const Viewpoint& viewpoint, CellId current_cell);

  // The current smoothed per-frame velocity (for tests/inspection).
  const Vec3& velocity() const { return velocity_; }

  void Reset();

 private:
  // Steps `stride` along the horizontal component of `direction` from
  // `position`; invalid when the horizontal component is degenerate or
  // the probe stays in `current_cell`.
  CellPrediction PredictAlong(const Vec3& direction, const Vec3& position,
                              CellId current_cell) const;

  const CellGrid* grid_;
  Vec3 last_position_;
  Vec3 velocity_;
  bool has_last_ = false;
};

}  // namespace hdov::prefetch

#endif  // HDOV_PREFETCH_PREDICTOR_H_
