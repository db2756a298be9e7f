#include "visibility/cubemap_buffer.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hdov {

namespace {

constexpr double kNearEpsilon = 1e-6;

// Sutherland–Hodgman clip of the camera-space polygon `in` (`*n`
// vertices) against the half-space normal·v >= offset. When no vertex lies
// outside, the loop would emit `in` unchanged, so `in` itself is returned;
// otherwise the clipped polygon is written to `out` (which must differ from
// `in`), `*n` is updated and `out` is returned.
const Vec3* ClipAgainstPlane(const Vec3* in, int* n, const Vec3& normal,
                             double offset, Vec3* out) {
  const int n_in = *n;
  double d[16];
  bool all_inside = true;
  for (int i = 0; i < n_in; ++i) {
    d[i] = normal.Dot(in[i]) - offset;
    all_inside = all_inside && d[i] >= 0.0;
  }
  if (all_inside) {
    return in;
  }
  int n_out = 0;
  for (int i = 0; i < n_in; ++i) {
    const int next = i + 1 < n_in ? i + 1 : 0;
    const Vec3& a = in[i];
    const Vec3& b = in[next];
    const double da = d[i];
    const double db = d[next];
    if (da >= 0.0) {
      out[n_out++] = a;
    }
    if ((da >= 0.0) != (db >= 0.0)) {
      double t = da / (da - db);
      out[n_out++] = a + (b - a) * t;
    }
  }
  *n = n_out;
  return out;
}

struct Interval {
  double lo, hi;
};

// Range of axis·v over the box [lo, hi]; `axis` is a signed unit axis, as
// every cube-face basis vector is, so the range is exact.
Interval AxisRange(const Vec3& axis, const Vec3& lo, const Vec3& hi) {
  if (axis.x != 0.0) {
    return axis.x > 0.0 ? Interval{lo.x, hi.x} : Interval{-hi.x, -lo.x};
  }
  if (axis.y != 0.0) {
    return axis.y > 0.0 ? Interval{lo.y, hi.y} : Interval{-hi.y, -lo.y};
  }
  return axis.z > 0.0 ? Interval{lo.z, hi.z} : Interval{-hi.z, -lo.z};
}

double DistanceFromZero(const Interval& r) {
  return r.lo > 0.0 ? r.lo : (r.hi < 0.0 ? -r.hi : 0.0);
}

// Pixel indices [first, last] (first > last when empty) whose centres, at
// face-plane coordinate 2 (i + 0.5) / res - 1, can see a point with
// lateral coordinate in `r` and depth in [dlo, dhi] (u = r / d).
// RasterizeOnFace writes a pixel only when its centre passes the
// barycentric inside test; rounding lets that test accept centres outside
// the projected triangle by at most ~3e-14 / L, for L its shortest
// projected edge, so the slack covers every triangle with L > ~3e-8.
std::pair<int, int> CentreRange(const Interval& r, double dlo, double dhi,
                                int res) {
  constexpr double kUvSlack = 1e-6;
  auto index = [res](double u) {
    return (std::clamp(u, -2.0, 2.0) + 1.0) * 0.5 * res - 0.5;
  };
  const double lo = std::min(r.lo / dlo, r.lo / dhi) - kUvSlack;
  const double hi = std::max(r.hi / dlo, r.hi / dhi) + kUvSlack;
  return {std::max(0, static_cast<int>(std::ceil(index(lo)))),
          std::min(res - 1, static_cast<int>(std::floor(index(hi))))};
}

}  // namespace

CubeMapBuffer::CubeMapBuffer(const CubeMapOptions& options)
    : options_(options), res_(std::max(2, options.face_resolution)) {
  const size_t pixels = static_cast<size_t>(6) * res_ * res_;
  inv_depth_.assign(pixels, 0.0f);
  lo_.assign(pixels, kNoItem);
  above_.assign(pixels, kNoItem);

  // Face bases: forward, right, up per face. The (right, up) choice only
  // fixes the pixel grid orientation; solid angles are unaffected.
  faces_[0] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};    // +x
  faces_[1] = {{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}};  // -x
  faces_[2] = {{0, 1, 0}, {-1, 0, 0}, {0, 0, 1}};   // +y
  faces_[3] = {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}};   // -y
  faces_[4] = {{0, 0, 1}, {1, 0, 0}, {0, 1, 0}};    // +z
  faces_[5] = {{0, 0, -1}, {1, 0, 0}, {0, -1, 0}};  // -z

  // Exact per-pixel solid angles on the z = 1 face plane.
  pixel_solid_angle_.assign(static_cast<size_t>(res_) * res_, 0.0);
  auto plane_coord = [&](int i) { return 2.0 * i / res_ - 1.0; };
  for (int j = 0; j < res_; ++j) {
    for (int i = 0; i < res_; ++i) {
      const double x0 = plane_coord(i);
      const double x1 = plane_coord(i + 1);
      const double y0 = plane_coord(j);
      const double y1 = plane_coord(j + 1);
      pixel_solid_angle_[static_cast<size_t>(j) * res_ + i] =
          CornerSolidAngle(x1, y1) - CornerSolidAngle(x0, y1) -
          CornerSolidAngle(x1, y0) + CornerSolidAngle(x0, y0);
    }
  }

  pixel_centre_.resize(res_);
  for (int i = 0; i < res_; ++i) {
    pixel_centre_[i] = 2.0 * (i + 0.5) / res_ - 1.0;
  }
  column_terms_.resize(static_cast<size_t>(3) * res_);
}

double CubeMapBuffer::CornerSolidAngle(double x, double y) {
  return std::atan2(x * y, std::sqrt(x * x + y * y + 1.0));
}

void CubeMapBuffer::Reset(const Vec3& viewpoint) {
  viewpoint_ = viewpoint;
  std::fill(inv_depth_.begin(), inv_depth_.end(), 0.0f);
  std::fill(lo_.begin(), lo_.end(), kNoItem);
  std::fill(above_.begin(), above_.end(), kNoItem);
}

void CubeMapBuffer::RasterizeTriangle(const Vec3& a, const Vec3& b,
                                      const Vec3& c, uint32_t item,
                                      uint8_t faces) {
  const Vec3 cam[3] = {a - viewpoint_, b - viewpoint_, c - viewpoint_};
  // Scratch buffers big enough for a triangle clipped by 5 planes.
  Vec3 buf_a[16];
  Vec3 buf_b[16];
  for (int face = 0; face < 6; ++face) {
    if ((faces & (1u << face)) == 0) {
      continue;
    }
    const Face& f = faces_[face];
    // Quick reject: all three vertices behind the face.
    if (f.forward.Dot(cam[0]) <= 0.0 && f.forward.Dot(cam[1]) <= 0.0 &&
        f.forward.Dot(cam[2]) <= 0.0) {
      continue;
    }
    const Vec3* poly = cam;
    int n = 3;
    auto clip = [&](const Vec3& normal, double offset) {
      poly = ClipAgainstPlane(poly, &n, normal, offset,
                              poly == buf_a ? buf_b : buf_a);
      return n >= 3;
    };
    // Near plane, then the four side planes (with a hair of slack so
    // neighbouring faces overlap rather than leave seams).
    const Vec3 fs = f.forward * (1.0 + 1e-9);
    if (clip(f.forward, kNearEpsilon) && clip(fs - f.right, 0.0) &&
        clip(fs + f.right, 0.0) && clip(fs - f.up, 0.0) &&
        clip(fs + f.up, 0.0)) {
      RasterizeOnFace(face, poly, n, item);
    }
  }
}

void CubeMapBuffer::RasterizeOnFace(int face, const Vec3* poly, int n,
                                    uint32_t item) {
  const Face& f = faces_[face];
  // Project to face-plane coordinates; keep 1/depth for z-buffering
  // (1/depth is affine in screen space across a planar polygon).
  double u[16];
  double v[16];
  double w[16];
  for (int i = 0; i < n; ++i) {
    const double depth = f.forward.Dot(poly[i]);
    const double inv = 1.0 / depth;
    u[i] = f.right.Dot(poly[i]) * inv;
    v[i] = f.up.Dot(poly[i]) * inv;
    w[i] = inv;
  }

  const size_t face_offset = static_cast<size_t>(face) * res_ * res_;
  float* face_depth = inv_depth_.data() + face_offset;
  uint32_t* face_lo = lo_.data() + face_offset;
  uint32_t* face_above = above_.data() + face_offset;

  // Fan-triangulate and raster each triangle with edge functions.
  for (int k = 1; k + 1 < n; ++k) {
    const double ux[3] = {u[0], u[k], u[k + 1]};
    const double vy[3] = {v[0], v[k], v[k + 1]};
    const double ws[3] = {w[0], w[k], w[k + 1]};

    double min_u = std::min({ux[0], ux[1], ux[2]});
    double max_u = std::max({ux[0], ux[1], ux[2]});
    double min_v = std::min({vy[0], vy[1], vy[2]});
    double max_v = std::max({vy[0], vy[1], vy[2]});

    // Pixel index range covering [min, max] in [-1, 1] coordinates.
    int i0 = std::max(0, static_cast<int>((min_u + 1.0) * 0.5 * res_));
    int i1 = std::min(res_ - 1,
                      static_cast<int>((max_u + 1.0) * 0.5 * res_));
    int j0 = std::max(0, static_cast<int>((min_v + 1.0) * 0.5 * res_));
    int j1 = std::min(res_ - 1,
                      static_cast<int>((max_v + 1.0) * 0.5 * res_));
    if (i0 > i1 || j0 > j1) {
      continue;
    }

    const double area = (ux[1] - ux[0]) * (vy[2] - vy[0]) -
                        (ux[2] - ux[0]) * (vy[1] - vy[0]);
    if (std::fabs(area) < 1e-18) {
      continue;
    }
    const double inv_area = 1.0 / area;
    // Every inverse depth this triangle can write is below zmax (see the
    // raster kernel notes in the header).
    const float zmax = static_cast<float>(std::max({ws[0], ws[1], ws[2]}) *
                                          (1.0 + 1e-5));

    double* dx = column_terms_.data();
    for (int i = i0; i <= i1; ++i) {
      const double px = pixel_centre_[i];
      dx[3 * i] = ux[0] - px;
      dx[3 * i + 1] = ux[1] - px;
      dx[3 * i + 2] = ux[2] - px;
    }
    for (int j = j0; j <= j1; ++j) {
      const double py = pixel_centre_[j];
      const double dy0 = vy[0] - py;
      const double dy1 = vy[1] - py;
      const double dy2 = vy[2] - py;
      const size_t row = static_cast<size_t>(j) * res_;
      for (int i = i0; i <= i1; ++i) {
        const size_t pixel = row + i;
        if (face_depth[pixel] > zmax) {
          continue;
        }
        const double* d = dx + 3 * i;
        // Barycentric coordinates (signed, normalized by the full area so
        // both windings are accepted when all have the same sign).
        const double w0 = (d[1] * dy2 - d[2] * dy1) * inv_area;
        const double w1 = (d[2] * dy0 - d[0] * dy2) * inv_area;
        const double w2 = 1.0 - w0 - w1;
        if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) {
          continue;
        }
        const double inv_depth = w0 * ws[0] + w1 * ws[1] + w2 * ws[2];
        UpdatePixel(inv_depth, item, &face_depth[pixel], &face_lo[pixel],
                    &face_above[pixel]);
      }
    }
  }
}

void CubeMapBuffer::RasterizeBox(const Aabb& box, uint32_t item,
                                 uint8_t faces) {
  if (box.IsEmpty()) {
    return;
  }
  Vec3 c[8];
  for (int i = 0; i < 8; ++i) {
    c[i] = box.Corner(i);
  }
  // One quad per box side, the min side of each axis before its max side.
  static constexpr int kQuads[6][4] = {
      {0, 2, 3, 1},  // bottom (z min)
      {4, 5, 7, 6},  // top (z max)
      {0, 1, 5, 4},  // front (y min)
      {2, 6, 7, 3},  // back (y max)
      {0, 4, 6, 2},  // left (x min)
      {1, 3, 7, 5},  // right (x max)
  };
  // The sides facing the viewpoint go first, so the early depth reject
  // skips the hidden pixels of the sides behind them.
  const Vec3& p = viewpoint_;
  const bool facing[6] = {p.z < box.min.z, p.z > box.max.z,
                          p.y < box.min.y, p.y > box.max.y,
                          p.x < box.min.x, p.x > box.max.x};
  for (const bool front : {true, false}) {
    for (int q = 0; q < 6; ++q) {
      if (facing[q] == front) {
        const int* v = kQuads[q];
        RasterizeTriangle(c[v[0]], c[v[1]], c[v[2]], item, faces);
        RasterizeTriangle(c[v[0]], c[v[2]], c[v[3]], item, faces);
      }
    }
  }
}

uint8_t CubeMapBuffer::WritableFaces(const Aabb& bounds) const {
  if (bounds.IsEmpty()) {
    return 0;
  }
  // Camera-space bounds: the same subtraction RasterizeTriangle applies to
  // every vertex, so each vertex lands inside [lo, hi].
  const Vec3 lo = bounds.min - viewpoint_;
  const Vec3 hi = bounds.max - viewpoint_;
  // Clipping interpolates new vertices along edges; rounding can put them
  // a few ulps of the largest coordinate outside the box.
  const double magnitude =
      std::max({std::fabs(lo.x), std::fabs(lo.y), std::fabs(lo.z),
                std::fabs(hi.x), std::fabs(hi.y), std::fabs(hi.z)});
  const double grow = 1e-12 * (1.0 + magnitude);
  auto range = [&](const Vec3& axis) {
    const Interval r = AxisRange(axis, lo, hi);
    return Interval{r.lo - grow, r.hi + grow};
  };
  uint8_t faces = 0;
  for (int face = 0; face < 6; ++face) {
    const Face& f = faces_[face];
    const Interval d = range(f.forward);
    if (d.hi < kNearEpsilon) {
      continue;  // Wholly behind the near plane.
    }
    const Interval r = range(f.right);
    const Interval s = range(f.up);
    // A point the clipper keeps has d >= kNearEpsilon and |r|, |s| <=
    // d (1 + 1e-9) (the side planes' slack), so its depth is at least dlo.
    constexpr double kSideSlack = 1.0 + 1e-8;
    const double dlo =
        std::max({kNearEpsilon, d.lo, DistanceFromZero(r) / kSideSlack,
                  DistanceFromZero(s) / kSideSlack});
    if (dlo > d.hi) {
      continue;  // No point of the box lies inside the frustum.
    }
    const auto [i0, i1] = CentreRange(r, dlo, d.hi, res_);
    const auto [j0, j1] = CentreRange(s, dlo, d.hi, res_);
    // Interpolated inverse depths are convex combinations of the
    // vertices' 1/d <= 1/dlo; the margin dwarfs their rounding and the
    // float rounding of the store.
    const double bound = (1.0 / dlo) * (1.0 + 1e-5);
    const float* face_depth =
        inv_depth_.data() + static_cast<size_t>(face) * res_ * res_;
    bool writable = false;
    for (int j = j0; j <= j1 && !writable; ++j) {
      const float* row = face_depth + static_cast<size_t>(j) * res_;
      for (int i = i0; i <= i1; ++i) {
        if (row[i] <= bound) {
          writable = true;
          break;
        }
      }
    }
    if (writable) {
      faces |= static_cast<uint8_t>(1u << face);
    }
  }
  return faces;
}

double CubeMapBuffer::AccumulateSolidAngles(
    std::vector<double>* solid_angles) const {
  double total = 0.0;
  const size_t face_pixels = static_cast<size_t>(res_) * res_;
  for (size_t base = 0; base < lo_.size(); base += face_pixels) {
    for (size_t p = 0; p < face_pixels; ++p) {
      const uint32_t item = PixelOwner(lo_[base + p], above_[base + p]);
      if (item == kNoItem) {
        continue;
      }
      const double omega = pixel_solid_angle_[p];
      total += omega;
      if (item < solid_angles->size()) {
        (*solid_angles)[item] += omega;
      }
    }
  }
  return total;
}

double CubeMapBuffer::SolidAngleOf(uint32_t item) const {
  double total = 0.0;
  const size_t face_pixels = static_cast<size_t>(res_) * res_;
  for (size_t base = 0; base < lo_.size(); base += face_pixels) {
    for (size_t p = 0; p < face_pixels; ++p) {
      if (PixelOwner(lo_[base + p], above_[base + p]) == item) {
        total += pixel_solid_angle_[p];
      }
    }
  }
  return total;
}

double CubeMapBuffer::TotalCoverage() const {
  double covered = 0.0;
  const size_t face_pixels = static_cast<size_t>(res_) * res_;
  for (size_t base = 0; base < lo_.size(); base += face_pixels) {
    for (size_t p = 0; p < face_pixels; ++p) {
      if (PixelOwner(lo_[base + p], above_[base + p]) != kNoItem) {
        covered += pixel_solid_angle_[p];
      }
    }
  }
  return covered / (4.0 * M_PI);
}

}  // namespace hdov
