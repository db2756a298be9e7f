#include "walkthrough/lodr_system.h"

#include <algorithm>

namespace hdov {

LodRTreeSystem::LodRTreeSystem(const Scene* scene,
                               const LodRTreeOptions& options)
    : scene_(scene), options_(options),
      index_device_(options.disk, &clock_),
      model_device_(options.disk, &clock_),
      models_(&model_device_) {}

Result<std::unique_ptr<LodRTreeSystem>> LodRTreeSystem::Create(
    const Scene* scene, const LodRTreeOptions& options) {
  if (options.band_fractions.empty()) {
    return Status::InvalidArgument("lodr: need at least one depth band");
  }
  for (size_t i = 1; i < options.band_fractions.size(); ++i) {
    if (options.band_fractions[i] <= options.band_fractions[i - 1]) {
      return Status::InvalidArgument("lodr: bands must increase");
    }
  }
  auto system =
      std::unique_ptr<LodRTreeSystem>(new LodRTreeSystem(scene, options));
  RTree rtree(options.rtree);
  for (const Object& obj : scene->objects()) {
    HDOV_RETURN_IF_ERROR(rtree.Insert(obj.mbr, obj.id));
  }
  HDOV_ASSIGN_OR_RETURN(PackedRTree packed,
                        PackedRTree::Pack(rtree, &system->index_device_));
  system->packed_ = std::make_unique<PackedRTree>(packed);
  system->object_models_.resize(scene->size());
  for (const Object& obj : scene->objects()) {
    auto& slots = system->object_models_[obj.id];
    for (size_t level = 0; level < obj.lods.num_levels(); ++level) {
      slots.push_back(
          system->models_.Register(obj.lods.level(level).byte_size));
    }
  }
  system->ResetIoStats();
  return system;
}

void LodRTreeSystem::RegisterTelemetry() {
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  const std::string& p = telemetry_prefix();
  index_device_.RegisterWith(&m, p + ".io.index");
  model_device_.RegisterWith(&m, p + ".io.model");
  frame_time_hist_ = m.GetHistogram(
      p + ".frame.time_ms", telemetry::ExponentialBuckets(0.25, 2.0, 14));
}

std::vector<Aabb> LodRTreeSystem::QueryBoxes(
    const Viewpoint& viewpoint) const {
  std::vector<Aabb> boxes;
  double previous = 0.0;
  for (double fraction : options_.band_fractions) {
    FrustumOptions fopt = options_.frustum;
    fopt.near_dist = std::max(0.1, previous * options_.frustum.far_dist);
    fopt.far_dist = fraction * options_.frustum.far_dist;
    Frustum band(viewpoint.position, viewpoint.look, fopt);
    boxes.push_back(band.BoundingBox());
    previous = fraction;
  }
  return boxes;
}

Status LodRTreeSystem::RenderFrame(const Viewpoint& viewpoint,
                                   FrameResult* result) {
  telemetry::FlightFrameScope flight(FlightCode(), NextFlightFrame());
  const double t0 = clock_.NowMillis();
  const IoStats light0 = index_device_.stats();
  const IoStats model0 = model_device_.stats();

  // One window query per depth band; the nearest band an object appears
  // in decides its LoD (static, ad hoc — the scheme the paper critiques).
  std::vector<Aabb> boxes = QueryBoxes(viewpoint);
  std::unordered_map<ObjectId, uint32_t> band_of;
  std::vector<uint64_t> ids;
  for (size_t band = 0; band < boxes.size(); ++band) {
    HDOV_RETURN_IF_ERROR(packed_->WindowQuery(boxes[band], &ids));
    for (uint64_t raw : ids) {
      const ObjectId id = static_cast<ObjectId>(raw);
      auto [it, inserted] =
          band_of.emplace(id, static_cast<uint32_t>(band));
      if (!inserted) {
        it->second = std::min(it->second, static_cast<uint32_t>(band));
      }
    }
  }

  size_t fetched = 0;
  uint64_t triangles = 0;
  last_result_.clear();
  last_result_.reserve(band_of.size());
  {
    telemetry::FlightReadBatch batch(telemetry::GlobalFlightRecorder());
    for (const auto& [id, band] : band_of) {
      const Object& obj = scene_->object(id);
      const uint32_t level = static_cast<uint32_t>(
          std::min<size_t>(band, obj.lods.num_levels() - 1));
      auto it = resident_.find(id);
      const bool needs_fetch =
          !delta_enabled_ || it == resident_.end() || it->second.first > level;
      if (needs_fetch) {
        HDOV_RETURN_IF_ERROR(models_.Fetch(object_models_[id][level]));
        ++fetched;
        resident_[id] = {level, obj.lods.level(level).byte_size};
      }
      RetrievedLod lod;
      lod.kind = RetrievedLod::Kind::kObject;
      lod.owner = id;
      lod.lod_level = level;
      lod.model = object_models_[id][level];
      lod.triangle_count = obj.lods.level(level).triangle_count;
      lod.byte_size = obj.lods.level(level).byte_size;
      triangles += lod.triangle_count;
      last_result_.push_back(lod);
    }
  }

  for (auto it = resident_.begin(); it != resident_.end();) {
    if (scene_->object(it->first).mbr.DistanceTo(viewpoint.position) >
        options_.cache_distance) {
      it = resident_.erase(it);
    } else {
      ++it;
    }
  }

  const IoStats light1 = index_device_.stats();
  const IoStats model1 = model_device_.stats();
  result->query_time_ms = clock_.NowMillis() - t0;
  result->light_io_pages = light1.Delta(light0).page_reads;
  result->io_pages =
      result->light_io_pages + model1.Delta(model0).page_reads;
  result->rendered_triangles = triangles;
  result->models_fetched = fetched;
  result->index_bytes_read = light1.Delta(light0).bytes_read;
  result->model_bytes_read = model1.Delta(model0).bytes_read;
  result->resident_bytes = 0;
  for (const auto& [id, entry] : resident_) {
    result->resident_bytes += entry.second;
  }
  result->frame_time_ms =
      result->query_time_ms + options_.render.FrameMillis(triangles);
  flight.set_io_pages(result->io_pages);
  if (TelemetryOn()) {
    frame_time_hist_->Observe(result->frame_time_ms);
    EmitFrameRecord(*result, 0);  // Depth bands, not viewing cells.
  }
  return Status::OK();
}

void LodRTreeSystem::ResetRuntime() {
  resident_.clear();
  last_result_.clear();
}

IoStats LodRTreeSystem::TotalIoStats() const {
  IoStats s = index_device_.stats();
  s += model_device_.stats();
  return s;
}

void LodRTreeSystem::ResetIoStats() {
  index_device_.ResetStats();
  model_device_.ResetStats();
  clock_.Reset();
}

}  // namespace hdov
