// DovComputer: evaluates the degree of visibility (DoV, paper §3.1) of
// every scene object from a viewpoint or a viewing region. Region DoV is
// the conservative maximum over sample viewpoints (Eq. 2).
//
// Each viewpoint costs the fill of its visible set, not of the scene. One
// pass draws the objects near to far (by MBR distance to the region's
// first sample; the order affects speed only) onto one CubeMapBuffer, and
// culls every (object, cube face) pair that CubeMapBuffer::WritableFaces
// proves cannot write a pixel.
//
// The result is the brute force's (every triangle of every object onto all
// six faces) pixel for pixel: a pixel's (depth F, owner) depends only on
// the set of its candidates (cubemap_buffer.h), and a culled candidate c
// has float(c) < F, so it is never in the F class and skipping it changes
// neither. (Not proved: WritableFaces' slack covers the rasterizer's
// rounding only for projected edges longer than ~3e-8.)

#ifndef HDOV_VISIBILITY_DOV_H_
#define HDOV_VISIBILITY_DOV_H_

#include <cstdint>
#include <vector>

#include "scene/object.h"
#include "visibility/cubemap_buffer.h"

namespace hdov {

enum class OccluderGeometry : uint8_t {
  // Rasterize object MBR boxes. Exact for box-like buildings, slightly
  // aggressive for organic shapes; always available (proxy scenes carry no
  // meshes).
  kMbrBoxes = 0,
  // Rasterize a LoD mesh of each object (full-geometry scenes only).
  kMeshLod = 1,
};

struct DovOptions {
  CubeMapOptions cubemap;
  OccluderGeometry geometry = OccluderGeometry::kMbrBoxes;
  // LoD level used as occluder geometry in kMeshLod mode; SIZE_MAX means
  // the coarsest level (cheap and adequate for occlusion).
  size_t occluder_lod_level = static_cast<size_t>(-1);
};

class DovComputer {
 public:
  DovComputer(const Scene* scene, const DovOptions& options);

  // DoV of each object viewed from `p` (indexed by ObjectId, in [0, 0.5]
  // for viewpoints outside the object).
  const std::vector<float>& ComputePointDov(const Vec3& p);

  // Conservative region DoV: per-object max over `samples` (Eq. 2).
  std::vector<float> ComputeRegionDov(const std::vector<Vec3>& samples);

 private:
  // The geometry rasterized for one object: its LoD mesh, or (mesh ==
  // nullptr) its MBR box. `bounds` encloses every vertex drawn.
  struct Occluder {
    const TriangleMesh* mesh = nullptr;
    Aabb bounds;
  };

  void SortNearToFar(const Vec3& p);
  void Draw(ObjectId id, uint8_t faces);
  void Render(const Vec3& p);  // The culled near-to-far pass.
  const std::vector<float>& Accumulate();

  const Scene* scene_;
  CubeMapBuffer buffer_;
  std::vector<Occluder> occluders_;   // Indexed by ObjectId.
  std::vector<ObjectId> order_;       // Near to far.
  std::vector<double> solid_angles_;  // Scratch, one slot per object.
  std::vector<float> dov_;            // Last point result.
};

}  // namespace hdov

#endif  // HDOV_VISIBILITY_DOV_H_
