#include "visibility/dov.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hdov {

namespace {

double SquaredDistance(const Aabb& box, const Vec3& p) {
  const double dx = std::max({box.min.x - p.x, 0.0, p.x - box.max.x});
  const double dy = std::max({box.min.y - p.y, 0.0, p.y - box.max.y});
  const double dz = std::max({box.min.z - p.z, 0.0, p.z - box.max.z});
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace

DovComputer::DovComputer(const Scene* scene, const DovOptions& options)
    : scene_(scene), buffer_(options.cubemap) {
  const size_t n = scene_->size();
  occluders_.resize(n);
  solid_angles_.resize(n);
  dov_.resize(n);
  order_.reserve(n);
  for (const Object& obj : scene_->objects()) {
    Occluder& occluder = occluders_[obj.id];
    occluder.bounds = obj.mbr;
    if (options.geometry == OccluderGeometry::kMeshLod && !obj.lods.empty() &&
        !obj.lods.finest().mesh.empty()) {
      const size_t level =
          std::min(options.occluder_lod_level, obj.lods.num_levels() - 1);
      // A coarse LoD can poke outside the MBR; bound what is drawn.
      occluder.mesh = &obj.lods.level(level).mesh;
      occluder.bounds = occluder.mesh->BoundingBox();
    }
  }
}

void DovComputer::SortNearToFar(const Vec3& p) {
  std::vector<std::pair<double, ObjectId>> keyed;
  keyed.reserve(occluders_.size());
  for (ObjectId id = 0; id < occluders_.size(); ++id) {
    keyed.emplace_back(SquaredDistance(occluders_[id].bounds, p), id);
  }
  std::sort(keyed.begin(), keyed.end());
  order_.clear();
  for (const auto& [distance, id] : keyed) {
    order_.push_back(id);
  }
}

void DovComputer::Draw(ObjectId id, uint8_t faces) {
  const Occluder& occluder = occluders_[id];
  if (occluder.mesh == nullptr) {
    buffer_.RasterizeBox(occluder.bounds, id, faces);
    return;
  }
  const TriangleMesh& mesh = *occluder.mesh;
  for (size_t t = 0; t < mesh.triangle_count(); ++t) {
    auto [a, b, c] = mesh.TriangleVertices(t);
    buffer_.RasterizeTriangle(a, b, c, id, faces);
  }
}

void DovComputer::Render(const Vec3& p) {
  buffer_.Reset(p);
  for (ObjectId id : order_) {
    const uint8_t faces = buffer_.WritableFaces(occluders_[id].bounds);
    if (faces != 0) {
      Draw(id, faces);
    }
  }
}

const std::vector<float>& DovComputer::Accumulate() {
  std::fill(solid_angles_.begin(), solid_angles_.end(), 0.0);
  buffer_.AccumulateSolidAngles(&solid_angles_);
  constexpr double kInvSphere = 1.0 / (4.0 * M_PI);
  for (size_t i = 0; i < solid_angles_.size(); ++i) {
    dov_[i] = static_cast<float>(solid_angles_[i] * kInvSphere);
  }
  return dov_;
}

const std::vector<float>& DovComputer::ComputePointDov(const Vec3& p) {
  SortNearToFar(p);
  Render(p);
  return Accumulate();
}

std::vector<float> DovComputer::ComputeRegionDov(
    const std::vector<Vec3>& samples) {
  std::vector<float> region(scene_->size(), 0.0f);
  if (samples.empty()) {
    return region;
  }
  SortNearToFar(samples.front());
  for (const Vec3& p : samples) {
    Render(p);
    const std::vector<float>& point = Accumulate();
    for (size_t i = 0; i < region.size(); ++i) {
      region[i] = std::max(region[i], point[i]);
    }
  }
  return region;
}

}  // namespace hdov
