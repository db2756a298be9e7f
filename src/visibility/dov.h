// DovComputer: evaluates the degree of visibility (DoV, paper §3.1) of
// every scene object from a viewpoint or a viewing region. Region DoV is
// the conservative maximum over sample viewpoints (Eq. 2).
//
// Each viewpoint costs the fill of its visible set, not of the scene. Two
// passes run on the one CubeMapBuffer:
//
//  1. Witness pass. Objects are visited near to far (by MBR distance to
//     the region's first sample; the order affects speed only). For each
//     (object, cube face) pair, CubeMapBuffer::WritableFaces tests the
//     occluder's bounds against what is already drawn. A pair that cannot
//     write is culled. Otherwise the object's front-facing box sides (all
//     triangles, for a mesh) are drawn onto that face, and the face's bit
//     is set in the object's mask.
//  2. Final pass. The buffer is reset, and every object with a non-zero
//     mask is drawn in id order with all its triangles, onto its masked
//     faces only.
//
// The result is exactly the brute-force one (every triangle of every
// object onto all six faces, in id order), pixel for pixel:
//  - The final pass draws only whole (object, face) pairs, with the same
//    per-face clip and raster code, so it computes the same candidate
//    inverse depths at a pixel as the brute force does, minus the culled
//    pairs' candidates.
//  - A culled pair can write only at pixels of the footprint
//    WritableFaces tested (its slack covers the rasterizer's rounding for any triangle
//    whose projected edges are longer than ~3e-8). At each of them, its
//    candidate c was below `bound` < S, where S is the stored float left
//    there by a witness draw, candidate w, of a kept pair. Pass 2 draws w
//    again with the same arithmetic, and float(c) < S = float(w)
//    (the test's margin).
//  - Stored depth never decreases, and once w is processed it is at
//    least float(w) > c, so a culled c after w never writes. A culled c
//    before w may write float(c) < w. From then on the run with c holds
//    float(c) and the run without it holds no more, until a draw writes
//    in both (w does, at the latest); after that both hold the same
//    (item, depth). Dropping the culled candidates one at a time (no
//    witness is ever culled) thus leaves the brute-force result.
// So the first-drawn-wins tie rule needs no order-independent z-test.

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
  void Draw(ObjectId id, uint8_t faces, bool front_only);
  void Render(const Vec3& p);  // The two passes.
  const std::vector<float>& Accumulate();

  const Scene* scene_;
  CubeMapBuffer buffer_;
  std::vector<Occluder> occluders_;   // Indexed by ObjectId.
  std::vector<ObjectId> order_;       // Near to far.
  std::vector<uint8_t> masks_;        // Kept cube faces per object.
  std::vector<double> solid_angles_;  // Scratch, one slot per object.
  std::vector<float> dov_;            // Last point result.
};

}  // namespace hdov

#endif  // HDOV_VISIBILITY_DOV_H_
