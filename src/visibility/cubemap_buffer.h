// CubeMapBuffer: a software item buffer over the six faces of a cube map
// centered at a viewpoint. All occluder geometry is rasterized with
// z-buffering; afterwards each pixel is owned by the nearest item, and the
// per-item sums of exact per-pixel solid angles give the degree of
// visibility of every object simultaneously:
//
//   DoV(p, X) = (solid angle of visible part of X) / 4 pi        (paper §3.1)
//
// This is the software substitute for the paper's hardware-accelerated DoV
// computation (see DESIGN.md).
//
// Z-test. Whatever order items are drawn in, each pixel ends as drawing
// them in item-id order would leave it (see UpdatePixel). Every draw call
// takes a mask of cube faces (bit f = face f); a face's pixels depend only
// on what was drawn onto that face, and drawing a triangle on a subset of
// faces writes exactly what the full draw writes there.
//
// WritableFaces is the occlusion test DovComputer culls with (see dov.h for
// why culling with it leaves every pixel exactly as the full draw would).
//
// Raster kernel. Each sub-triangle is tested against the pixel centres in
// its bounding box with edge functions; five shortcuts keep every pixel's
// depth, `lo` and `above` bit-identical to the plain loop:
//  1. Pixel centres come from a table filled with the loop's own expression,
//     2 (i + 0.5) / res - 1: the same doubles.
//  2. u - px is computed once per column and v - py once per row: the same
//     operands, operations and order (ISO C++ mode, so no FMA contraction).
//  3. A pixel whose stored depth F exceeds zmax = float(max(ws)(1 + 1e-5)) is
//     skipped: inside, c <= max(ws)(1 + 4u), so float(c) < F (a no-op).
//  4. A clip plane with no vertex outside returns its input polygon, which
//     is exactly what the Sutherland–Hodgman loop would emit.
//  5. RasterizeBox draws the sides facing the viewpoint first, so (3) skips
//     the hidden back sides; the z-test does not depend on draw order.

#ifndef HDOV_VISIBILITY_CUBEMAP_BUFFER_H_
#define HDOV_VISIBILITY_CUBEMAP_BUFFER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace hdov {

inline constexpr uint32_t kNoItem = ~static_cast<uint32_t>(0);

// Cube-face masks: bit f selects face f (+x, -x, +y, -y, +z, -z).
inline constexpr uint8_t kAllCubeFaces = 0x3f;

// The per-pixel z-test. Drawing a pixel's candidates (inverse depth c,
// item) in item-id order, writing when c exceeds the stored float and
// storing float(c), leaves depth F = float(max c) and, as owner, the
// largest item with float(c) = F and c > F (as doubles), else the smallest
// item with float(c) = F: the first candidate with float(c) = F always
// writes, and after it only those with c > F do. UpdatePixel keeps F, that
// smallest item (`*lo`) and that largest one (`*above`, kNoItem for none),
// which depend on the set of candidates, not on their order; PixelOwner
// resolves them. Candidates are > 0 after near-plane clipping; any other
// never writes in id order, so it is ignored.
inline void UpdatePixel(double c, uint32_t item, float* depth, uint32_t* lo,
                        uint32_t* above) {
  if (!(c > 0.0)) {
    return;
  }
  const float f = static_cast<float>(c);
  if (f > *depth) {
    *depth = f;
    *lo = item;
    *above = c > f ? item : kNoItem;
  } else if (f == *depth) {
    *lo = std::min(*lo, item);
    if (c > f && (*above == kNoItem || item > *above)) {
      *above = item;
    }
  }
}

inline uint32_t PixelOwner(uint32_t lo, uint32_t above) {
  return above != kNoItem ? above : lo;
}

struct CubeMapOptions {
  // Pixels per cube face edge. 32 gives 6144 pixels (~0.2% solid-angle
  // resolution); raise for fidelity experiments.
  int face_resolution = 32;
};

class CubeMapBuffer {
 public:
  explicit CubeMapBuffer(const CubeMapOptions& options = CubeMapOptions());

  // Clears the buffer and re-centers it at `viewpoint`.
  void Reset(const Vec3& viewpoint);

  const Vec3& viewpoint() const { return viewpoint_; }
  int face_resolution() const { return res_; }

  // Rasterizes a (two-sided) occluder triangle owned by `item` onto the
  // cube faces in `faces`.
  void RasterizeTriangle(const Vec3& a, const Vec3& b, const Vec3& c,
                         uint32_t item, uint8_t faces = kAllCubeFaces);

  // Rasterizes the 12 triangles of `box` onto `faces`.
  void RasterizeBox(const Aabb& box, uint32_t item,
                    uint8_t faces = kAllCubeFaces);

  // Conservative occlusion test of any geometry lying inside `bounds`:
  // the mask of cube faces it may still write. A face is left out only
  // when no such triangle can write a pixel of it now: either no pixel
  // centre lies in the face-plane footprint of `bounds`, or every stored
  // inverse depth over the footprint exceeds `bound` = (1/dlo)(1 + 1e-5),
  // where dlo is a lower bound on the depth of any point of `bounds`
  // inside the face frustum. Any inverse depth such geometry could write,
  // rounded to float, is then strictly below the stored value (the
  // margins cover clipping, projection and float rounding).
  uint8_t WritableFaces(const Aabb& bounds) const;

  // Accumulates the visible solid angle of every item into `solid_angles`
  // (indexed by item id; the vector must be pre-sized and zeroed by the
  // caller). Returns the total covered solid angle.
  double AccumulateSolidAngles(std::vector<double>* solid_angles) const;

  // Solid angle of one specific item (linear scan; for tests).
  double SolidAngleOf(uint32_t item) const;

  // Fraction of the sphere covered by any item.
  double TotalCoverage() const;

  // Stored inverse depth (0 when empty) and owner (kNoItem when empty) of
  // pixel (i, j) of `face`; for tests.
  float PixelInverseDepth(int face, int i, int j) const {
    return inv_depth_[PixelIndex(face, i, j)];
  }
  uint32_t PixelItem(int face, int i, int j) const {
    const size_t p = PixelIndex(face, i, j);
    return PixelOwner(lo_[p], above_[p]);
  }

 private:
  struct Face {
    Vec3 forward, right, up;
  };

  // Pixel solid angle helper: integral corner term for face-plane
  // coordinates (x, y) on the z=1 plane.
  static double CornerSolidAngle(double x, double y);

  void RasterizeOnFace(int face, const Vec3* poly, int n, uint32_t item);

  size_t PixelIndex(int face, int i, int j) const {
    return (static_cast<size_t>(face) * res_ + j) * res_ + i;
  }

  CubeMapOptions options_;
  int res_;
  Vec3 viewpoint_;
  // 6 * res * res each; see UpdatePixel.
  std::vector<float> inv_depth_;  // Larger = closer.
  std::vector<uint32_t> lo_;
  std::vector<uint32_t> above_;
  std::vector<double> pixel_solid_angle_;  // res * res (same per face).
  std::vector<double> pixel_centre_;       // res: 2 (i + 0.5) / res - 1.
  std::vector<double> column_terms_;       // 3 * res raster scratch.
  std::array<Face, 6> faces_;
};

}  // namespace hdov

#endif  // HDOV_VISIBILITY_CUBEMAP_BUFFER_H_
