#include "persist/world_codec.h"

#include <cmath>

#include "common/coding.h"

namespace hdov {

namespace {

// Smallest encodings, for Decoder::CheckCount.
constexpr size_t kVec3Bytes = 3 * sizeof(double);
constexpr size_t kTriangleBytes = 3 * sizeof(uint32_t);
constexpr size_t kMeshMinBytes = 2 * sizeof(uint64_t);
constexpr size_t kLodLevelMinBytes =
    sizeof(uint32_t) + sizeof(uint64_t) + kMeshMinBytes;
constexpr size_t kCellMinBytes = sizeof(uint32_t);
constexpr size_t kCellEntryBytes = sizeof(ObjectId) + sizeof(float);

void EncodeVec3(std::string* out, const Vec3& v) {
  EncodeDouble(out, v.x);
  EncodeDouble(out, v.y);
  EncodeDouble(out, v.z);
}

Status DecodeVec3(Decoder* decoder, Vec3* v) {
  HDOV_RETURN_IF_ERROR(decoder->DecodeDouble(&v->x));
  HDOV_RETURN_IF_ERROR(decoder->DecodeDouble(&v->y));
  return decoder->DecodeDouble(&v->z);
}

void EncodeAabb(std::string* out, const Aabb& box) {
  EncodeVec3(out, box.min);
  EncodeVec3(out, box.max);
}

Status DecodeAabb(Decoder* decoder, Aabb* box) {
  HDOV_RETURN_IF_ERROR(DecodeVec3(decoder, &box->min));
  return DecodeVec3(decoder, &box->max);
}

void EncodeMesh(std::string* out, const TriangleMesh& mesh) {
  EncodeFixed64(out, mesh.vertex_count());
  for (const Vec3& v : mesh.vertices()) {
    EncodeVec3(out, v);
  }
  EncodeFixed64(out, mesh.triangle_count());
  for (const Triangle& tri : mesh.triangles()) {
    EncodeFixed32(out, tri.v[0]);
    EncodeFixed32(out, tri.v[1]);
    EncodeFixed32(out, tri.v[2]);
  }
}

Result<TriangleMesh> DecodeMesh(Decoder* decoder) {
  uint64_t vertex_count = 0;
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&vertex_count));
  HDOV_RETURN_IF_ERROR(decoder->CheckCount(vertex_count, kVec3Bytes));
  std::vector<Vec3> vertices(vertex_count);
  for (Vec3& v : vertices) {
    HDOV_RETURN_IF_ERROR(DecodeVec3(decoder, &v));
  }
  uint64_t triangle_count = 0;
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&triangle_count));
  HDOV_RETURN_IF_ERROR(decoder->CheckCount(triangle_count, kTriangleBytes));
  std::vector<Triangle> triangles(triangle_count);
  for (Triangle& tri : triangles) {
    HDOV_RETURN_IF_ERROR(decoder->DecodeFixed32(&tri.v[0]));
    HDOV_RETURN_IF_ERROR(decoder->DecodeFixed32(&tri.v[1]));
    HDOV_RETURN_IF_ERROR(decoder->DecodeFixed32(&tri.v[2]));
    for (uint32_t corner : tri.v) {
      if (corner >= vertex_count) {
        return Status::Corruption("scene codec: triangle index out of range");
      }
    }
  }
  return TriangleMesh(std::move(vertices), std::move(triangles));
}

void EncodeLodChain(std::string* out, const LodChain& chain) {
  EncodeFixed32(out, static_cast<uint32_t>(chain.num_levels()));
  for (size_t i = 0; i < chain.num_levels(); ++i) {
    const LodLevel& level = chain.level(i);
    EncodeFixed32(out, level.triangle_count);
    EncodeFixed64(out, level.byte_size);
    EncodeMesh(out, level.mesh);
  }
}

Result<LodChain> DecodeLodChain(Decoder* decoder) {
  uint32_t num_levels = 0;
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed32(&num_levels));
  HDOV_RETURN_IF_ERROR(decoder->CheckCount(num_levels, kLodLevelMinBytes));
  std::vector<LodLevel> levels;
  levels.reserve(num_levels);
  for (uint32_t i = 0; i < num_levels; ++i) {
    LodLevel level;
    HDOV_RETURN_IF_ERROR(decoder->DecodeFixed32(&level.triangle_count));
    HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&level.byte_size));
    HDOV_ASSIGN_OR_RETURN(level.mesh, DecodeMesh(decoder));
    levels.push_back(std::move(level));
  }
  if (levels.empty()) {
    return LodChain();
  }
  return LodChain::FromLevels(std::move(levels));
}

}  // namespace

std::string StoreMetaSection(std::string_view scheme_name) {
  return "store/" + std::string(scheme_name) + "/meta";
}

std::string StoreDeviceSection(std::string_view scheme_name) {
  return "store/" + std::string(scheme_name) + "/device";
}

void EncodeScene(const Scene& scene, std::string* out) {
  EncodeFixed32(out, static_cast<uint32_t>(scene.size()));
  for (const Object& object : scene.objects()) {
    out->push_back(static_cast<char>(object.kind));
    EncodeAabb(out, object.mbr);
    EncodeLodChain(out, object.lods);
  }
}

Result<Scene> DecodeScene(std::string_view data) {
  Decoder decoder(data);
  uint32_t num_objects = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&num_objects));
  Scene scene;
  for (uint32_t i = 0; i < num_objects; ++i) {
    if (decoder.remaining() < 1) {
      return Status::Corruption("scene codec: truncated object");
    }
    Object object;
    const uint8_t kind = static_cast<uint8_t>(data[decoder.position()]);
    HDOV_RETURN_IF_ERROR(decoder.Skip(1));
    if (kind > static_cast<uint8_t>(ObjectKind::kOther)) {
      return Status::Corruption("scene codec: unknown object kind");
    }
    object.kind = static_cast<ObjectKind>(kind);
    HDOV_RETURN_IF_ERROR(DecodeAabb(&decoder, &object.mbr));
    HDOV_ASSIGN_OR_RETURN(object.lods, DecodeLodChain(&decoder));
    scene.AddObject(std::move(object));  // Ids reassigned sequentially.
  }
  return scene;
}

void EncodeCellGridOptions(const CellGridOptions& options, std::string* out) {
  EncodeFixed32(out, static_cast<uint32_t>(options.cells_x));
  EncodeFixed32(out, static_cast<uint32_t>(options.cells_y));
  EncodeDouble(out, options.min_eye_height);
  EncodeDouble(out, options.max_eye_height);
}

Result<CellGridOptions> DecodeCellGridOptions(std::string_view data) {
  Decoder decoder(data);
  CellGridOptions options;
  uint32_t cells_x = 0, cells_y = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&cells_x));
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&cells_y));
  HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&options.min_eye_height));
  HDOV_RETURN_IF_ERROR(decoder.DecodeDouble(&options.max_eye_height));
  options.cells_x = static_cast<int>(cells_x);
  options.cells_y = static_cast<int>(cells_y);
  return options;
}

void EncodeVisibilityTable(const VisibilityTable& table, std::string* out) {
  EncodeFixed32(out, table.num_cells());
  for (CellId cell = 0; cell < table.num_cells(); ++cell) {
    const CellVisibility& vis = table.cell(cell);
    EncodeFixed32(out, static_cast<uint32_t>(vis.ids.size()));
    for (ObjectId id : vis.ids) {
      EncodeFixed32(out, id);
    }
    for (float dov : vis.dov) {
      EncodeFloat(out, dov);
    }
  }
}

Result<VisibilityTable> DecodeVisibilityTable(std::string_view data) {
  Decoder decoder(data);
  uint32_t num_cells = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&num_cells));
  HDOV_RETURN_IF_ERROR(decoder.CheckCount(num_cells, kCellMinBytes));
  std::vector<CellVisibility> cells(num_cells);
  for (CellVisibility& vis : cells) {
    uint32_t count = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&count));
    HDOV_RETURN_IF_ERROR(decoder.CheckCount(count, kCellEntryBytes));
    vis.ids.resize(count);
    vis.dov.resize(count);
    for (size_t i = 0; i < count; ++i) {
      HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&vis.ids[i]));
      if (i > 0 && vis.ids[i] <= vis.ids[i - 1]) {
        return Status::Corruption(
            "visibility codec: object ids not strictly increasing");
      }
    }
    for (float& dov : vis.dov) {
      HDOV_RETURN_IF_ERROR(decoder.DecodeFloat(&dov));
      if (!std::isfinite(dov) || !(dov > 0.0f)) {
        return Status::Corruption("visibility codec: DoV not finite and > 0");
      }
    }
  }
  return VisibilityTable(std::move(cells));
}

}  // namespace hdov
