#include "visibility/precompute.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "common/thread_pool.h"
#include "telemetry/trace.h"

namespace hdov {

float CellVisibility::DovOf(ObjectId id) const {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    return 0.0f;
  }
  return dov[static_cast<size_t>(it - ids.begin())];
}

double VisibilityTable::AverageVisibleObjects() const {
  if (cells_.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const CellVisibility& cell : cells_) {
    total += static_cast<double>(cell.num_visible());
  }
  return total / static_cast<double>(cells_.size());
}

Vec3 PushOutOfObjects(const Scene& scene, Vec3 p) {
  constexpr double kClearance = 0.05;
  for (int round = 0; round < 4; ++round) {
    bool moved = false;
    for (const Object& obj : scene.objects()) {
      const Aabb& box = obj.mbr;
      if (!box.Contains(p)) {
        continue;
      }
      // Penetration depth along each axis face pair (xy only: stepping
      // over a building is not an option for an eye-height viewpoint).
      const double candidates[4] = {
          p.x - box.min.x,  // Exit through min x.
          box.max.x - p.x,  // Exit through max x.
          p.y - box.min.y,
          box.max.y - p.y,
      };
      int best = 0;
      for (int i = 1; i < 4; ++i) {
        if (candidates[i] < candidates[best]) {
          best = i;
        }
      }
      switch (best) {
        case 0:
          p.x = box.min.x - kClearance;
          break;
        case 1:
          p.x = box.max.x + kClearance;
          break;
        case 2:
          p.y = box.min.y - kClearance;
          break;
        case 3:
          p.y = box.max.y + kClearance;
          break;
      }
      moved = true;
    }
    if (!moved) {
      return p;
    }
  }
  return p;
}

std::vector<Vec3> CellSamples(const CellGrid& grid, CellId id,
                              int samples_per_cell) {
  const Aabb box = grid.CellBounds(id);
  const Vec3 center = box.Center();
  std::vector<Vec3> samples;
  samples.push_back(center);
  if (samples_per_cell > 1) {
    // Mid-height corners (the xy extremes dominate the visibility
    // variation; eye height varies little).
    for (int i = 0; i < 4; ++i) {
      Vec3 corner = box.Corner(i);
      samples.emplace_back(corner.x, corner.y, center.z);
      if (static_cast<int>(samples.size()) >= samples_per_cell) {
        break;
      }
    }
  }
  if (static_cast<int>(samples.size()) < samples_per_cell) {
    for (int i = 0; i < 8 && static_cast<int>(samples.size()) <
                                 samples_per_cell;
         ++i) {
      samples.push_back(box.Corner(i));
    }
  }
  return samples;
}

Result<VisibilityTable> PrecomputeVisibility(
    const Scene& scene, const CellGrid& grid, const PrecomputeOptions& options,
    const std::function<void(uint32_t, uint32_t)>& progress) {
  if (options.samples_per_cell < 1) {
    return Status::InvalidArgument("precompute: need at least one sample");
  }
  const uint32_t num_cells = grid.num_cells();
  std::vector<CellVisibility> cells(num_cells);

  telemetry::Telemetry* tel = options.telemetry;
  const bool tel_on = tel != nullptr && tel->enabled();
  telemetry::Counter* ctr_cells = nullptr;
  telemetry::Counter* ctr_samples = nullptr;
  telemetry::Counter* ctr_nudged = nullptr;
  telemetry::Histogram* visible_hist = nullptr;
  const bool tracing = tel_on && tel->tracer().enabled();
  if (tel_on) {
    telemetry::MetricsRegistry& m = tel->metrics();
    ctr_cells = m.GetCounter("precompute.cells");
    ctr_samples = m.GetCounter("precompute.samples");
    ctr_nudged = m.GetCounter("precompute.nudged_samples");
    visible_hist =
        m.GetHistogram("precompute.visible_per_cell",
                       telemetry::ExponentialBuckets(1.0, 2.0, 16));
  }
  // One private recorder per cell so the merge below is in cell order no
  // matter which worker finished first.
  std::vector<telemetry::TraceRecorder> cell_traces(tracing ? num_cells : 0);

  ThreadPool pool(ThreadPool::ResolveThreads(options.threads));
  if (tel_on) {
    tel->metrics().GetGauge("precompute.threads")
        ->Set(static_cast<double>(pool.num_threads() + 1));
  }

  // Each slot lazily builds its own DovComputer: the cube-map buffer and
  // scratch vectors inside are the only mutable state a cell evaluation
  // touches besides its private cells[c] slot.
  std::vector<std::unique_ptr<DovComputer>> computers(pool.num_slots());
  std::atomic<uint32_t> cells_done{0};
  std::mutex progress_mu;

  pool.ParallelFor(num_cells, [&](size_t slot, size_t index) {
    const CellId c = static_cast<CellId>(index);
    if (computers[slot] == nullptr) {
      computers[slot] = std::make_unique<DovComputer>(&scene, options.dov);
    }
    telemetry::TraceRecorder* trace = tracing ? &cell_traces[c] : nullptr;

    std::vector<Vec3> samples =
        CellSamples(grid, c, options.samples_per_cell);
    uint64_t nudged = 0;
    if (options.avoid_object_interiors) {
      for (Vec3& p : samples) {
        const Vec3 moved = PushOutOfObjects(scene, p);
        if (!(moved == p)) {
          ++nudged;
        }
        p = moved;
      }
    }
    std::vector<float> region = computers[slot]->ComputeRegionDov(samples);
    CellVisibility& cell = cells[c];
    for (ObjectId id = 0; id < region.size(); ++id) {
      if (region[id] > 0.0f) {
        cell.ids.push_back(id);
        cell.dov.push_back(region[id]);
      }
    }
    if (tel_on) {
      ctr_cells->Increment();
      ctr_samples->Add(samples.size());
      ctr_nudged->Add(nudged);
      visible_hist->Observe(static_cast<double>(cell.num_visible()));
    }
    if (trace != nullptr) {
      telemetry::ScopedSpan span(trace, "cell");
      span.Attr("cell", static_cast<double>(c));
      span.Attr("samples", static_cast<double>(samples.size()));
      span.Attr("visible", static_cast<double>(cell.num_visible()));
    }
    if (progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      progress(cells_done.fetch_add(1) + 1, num_cells);
    }
  });

  if (tracing) {
    telemetry::TraceRecorder& tracer = tel->tracer();
    const int32_t root = tracer.BeginSpan("precompute");
    tracer.AddAttr(root, "cells", static_cast<double>(num_cells));
    tracer.AddAttr(root, "threads",
                   static_cast<double>(pool.num_threads() + 1));
    for (const telemetry::TraceRecorder& cell_trace : cell_traces) {
      tracer.Merge(cell_trace);
    }
    tracer.EndSpan(root);
  }
  return VisibilityTable(std::move(cells));
}

}  // namespace hdov
