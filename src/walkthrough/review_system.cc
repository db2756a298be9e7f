#include "walkthrough/review_system.h"

#include <algorithm>

namespace hdov {

ReviewSystem::ReviewSystem(const Scene* scene, const ReviewOptions& options)
    : scene_(scene), options_(options),
      index_device_(options.disk, &clock_),
      model_device_(options.disk, &clock_),
      models_(&model_device_) {}

Result<std::unique_ptr<ReviewSystem>> ReviewSystem::Create(
    const Scene* scene, const ReviewOptions& options) {
  auto system =
      std::unique_ptr<ReviewSystem>(new ReviewSystem(scene, options));

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

void ReviewSystem::RegisterTelemetry() {
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  const std::string& p = telemetry_prefix();
  index_device_.RegisterWith(&m, p + ".io.index");
  model_device_.RegisterWith(&m, p + ".io.model");
  frame_time_hist_ = m.GetHistogram(
      p + ".frame.time_ms", telemetry::ExponentialBuckets(0.25, 2.0, 14));
}

Aabb ReviewSystem::QueryBox(const Vec3& position) const {
  const double half = options_.query_box_size / 2.0;
  // The box spans the full world height: tall buildings must be found
  // regardless of the pedestrian eye height.
  return Aabb(Vec3(position.x - half, position.y - half,
                   scene_->bounds().min.z),
              Vec3(position.x + half, position.y + half,
                   scene_->bounds().max.z));
}

size_t ReviewSystem::LodLevelForDistance(ObjectId id, double distance) const {
  const Object& obj = scene_->object(id);
  const size_t levels = obj.lods.num_levels();
  size_t level = options_.lod_distance_fractions.size();  // Coarsest bucket.
  for (size_t i = 0; i < options_.lod_distance_fractions.size(); ++i) {
    if (distance <
        options_.lod_distance_fractions[i] * options_.query_box_size) {
      level = i;
      break;
    }
  }
  return std::min(level, levels - 1);
}

Status ReviewSystem::Query(const Vec3& position,
                           std::vector<uint64_t>* object_ids) {
  return packed_->WindowQuery(QueryBox(position), object_ids);
}

Status ReviewSystem::RenderFrame(const Viewpoint& viewpoint,
                                 FrameResult* result) {
  telemetry::FlightFrameScope flight(FlightCode(), NextFlightFrame());
  const double t0 = clock_.NowMillis();
  const IoStats light0 = index_device_.stats();
  const IoStats model0 = model_device_.stats();

  std::vector<uint64_t> ids;
  HDOV_RETURN_IF_ERROR(Query(viewpoint.position, &ids));

  // Complement search + fetch. An object resident at a coarser LoD than
  // now required is re-fetched at the finer LoD.
  size_t fetched = 0;
  uint64_t triangles = 0;
  last_result_.clear();
  last_result_.reserve(ids.size());
  {
    telemetry::FlightReadBatch batch(telemetry::GlobalFlightRecorder());
    for (uint64_t raw_id : ids) {
      const ObjectId id = static_cast<ObjectId>(raw_id);
      const Object& obj = scene_->object(id);
      const double distance = obj.mbr.DistanceTo(viewpoint.position);
      const uint32_t level =
          static_cast<uint32_t>(LodLevelForDistance(id, distance));

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

  // Semantic cache replacement: evict objects beyond the cache distance.
  for (auto it = resident_.begin(); it != resident_.end();) {
    const Object& obj = scene_->object(it->first);
    if (obj.mbr.DistanceTo(viewpoint.position) > options_.cache_distance) {
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
    EmitFrameRecord(*result, 0);  // REVIEW has no viewing-cell notion.
  }
  return Status::OK();
}

void ReviewSystem::ResetRuntime() {
  resident_.clear();
  last_result_.clear();
}

IoStats ReviewSystem::TotalIoStats() const {
  IoStats s = index_device_.stats();
  s += model_device_.stats();
  return s;
}

void ReviewSystem::ResetIoStats() {
  index_device_.ResetStats();
  model_device_.ResetStats();
  clock_.Reset();
}

}  // namespace hdov
